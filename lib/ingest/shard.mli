(** Address-range-sharded shadow memory.

    The per-location shadow state (writer + two readers) evolves
    independently across locations, and SP precedence between two
    already-executed threads never changes as the walk continues — so
    access checks can be {e deferred} and partitioned by address
    without changing any verdict.  The server exploits both: accesses
    are appended to per-shard batches (3 ints each: packed loc/rw,
    tid, global access sequence number) and, when any batch fills, all
    shards drain concurrently — each domain owning its address
    partition's packed shadow cells exclusively while the fused
    SP-order structure is shared read-only.  Race reports keep their
    sequence numbers, so the server can merge the per-shard lists back
    into the exact serial detection order.

    One shard = one {!Spr_race.Detector} over the partition
    [\[base, base+width)] with locations translated to shard-local
    offsets.  [prepare] re-partitions in place per program (detector
    recreated only when the partition outgrows every previous one), so
    a resident server's steady state allocates nothing here.

    The drain loop passes {!Spr_schedhook.Hook} yield points
    ([ingest/drain-batch], [ingest/drain-step]), so the schedule
    explorer can drive the hand-off path through adversarial
    interleavings. *)

type t

val create :
  id:int -> precedes:(executed:int -> current:int -> bool) -> unit -> t
(** [precedes] answers on {e thread ids} (the server closes it over
    the fused SP order and the tid→leaf map); all shards share it. *)

val prepare : t -> base:int -> width:int -> batch:int -> unit
(** Re-partition for a new program: own locations
    [\[base, base+width)], size the batch buffer to [batch] entries,
    clear shadow memory, pending entries and race sequence numbers. *)

val base : t -> int

val push : t -> loc:int -> write:bool -> tid:int -> seq:int -> unit
(** Append one access (loc already verified to fall in this shard's
    range).  Allocation-free. *)

val is_full : t -> bool

val pending : t -> int
(** Entries currently batched. *)

val drain : t -> unit
(** Run every batched access through this shard's detector, in batch
    order, tagging each reported race with its access sequence number;
    empties the batch.  The only writers during a concurrent drain are
    shard-local, so draining all shards from distinct domains is
    race-free. *)

val detector : t -> Spr_race.Detector.t

val race_seqs : t -> int Spr_util.Vec.t
(** Sequence number of each race in [Detector.races], same order. *)

val accesses_drained : t -> int
(** Total accesses this shard has checked since [prepare]. *)

(** A persistent pool of worker domains for concurrent drains.  The
    coordinator broadcasts an array of thunks (one per shard); worker
    [i] runs thunk [i], the coordinator runs thunk 0 itself, and
    {!Pool.run} returns when all have finished.  Publication happens
    entirely through the pool mutex (release on broadcast, acquire on
    completion), so the drains see every batch entry written before
    the flush. *)
module Pool : sig
  type pool

  val create : workers:int -> pool
  (** Spawn [workers] domains ([workers] = shards − 1; the coordinator
      is the remaining one). *)

  val run : pool -> (unit -> unit) array -> unit
  (** Execute [thunks.(1..)] on the workers and [thunks.(0)] on the
      calling domain; barrier on completion.  The array must have at
      most [workers + 1] elements.  If thunks raise, every other thunk
      still runs to completion and [run] re-raises one of the
      exceptions (thunk 0's if it raised, else the first a worker
      recorded) after the barrier; the pool stays usable. *)

  val shutdown : pool -> unit
  (** Join every domain.  Idempotent. *)
end
