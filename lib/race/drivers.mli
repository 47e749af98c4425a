(** Ready-made detection pipelines.

    [detect_serial] replays the program's serial (left-to-right)
    execution, driving any serial SP-maintenance algorithm and the
    Nondeterminator protocol — the configuration of Corollary 6.

    [detect_hybrid] runs the program on the work-stealing simulator
    with SP-hybrid as the oracle, issuing the detector's queries from
    each thread's execution hook — the parallel, on-the-fly
    configuration of Sections 3–7.

    [detect_serial_locked] is the All-Sets-style pipeline. *)

type serial_result = {
  races : Detector.race list;
  racy_locs : int list;
  sp_queries : int;  (** queries issued to the SP oracle *)
}

val detect_serial :
  Spr_prog.Prog_tree.t ->
  (Spr_sptree.Sp_tree.t -> Spr_core.Sp_maintainer.instance) ->
  serial_result
(** Detect with the given serial algorithm (e.g.
    {!Spr_core.Algorithms.sp_order}). *)

type releasing_result = {
  result : serial_result;
  peak_om_nodes : int;  (** high-water mark of the SP-order structures *)
  final_om_nodes : int;
  released : int;  (** threads deleted after leaving shadow memory *)
}

val detect_serial_releasing : Spr_prog.Prog_tree.t -> releasing_result
(** Like [detect_serial] with SP-order, but threads that drop out of
    shadow memory are {e deleted} from the order-maintenance
    structures ({!Spr_core.Sp_order.release}): the structure tracks the
    live frontier, not the whole execution history.  Race reports are
    identical to the non-releasing run. *)

(** The fully packed serial pipeline: a direct walk of the program's
    canonical parse tree (the {!Spr_prog.Prog_tree} shape, never
    materialized) driving fused English/Hebrew SP-order
    ({!Spr_core.Sp_order_fused}) and packed shadow cells, created once
    and rewound in place per run.  A steady-state {!Fused.run} —
    replay the fork/join walk, issue every access and SP query —
    allocates zero minor words on a race-free program (recording a
    race allocates its report); [regress --alloc-gate --e2e] pins
    this, and the test suite pins answer equality with
    {!detect_serial} and OM-operation equality with a
    {!Spr_core.Driver.run} of [sp-order-fused] over the
    {!Spr_prog.Prog_tree}. *)
module Fused : sig
  type t

  val create : Spr_prog.Fj_program.t -> t
  (** Size every internal structure for the program and run the
      pipeline's constructor-time allocations. *)

  val run : t -> unit
  (** One full detection pass, in place.  Idempotent across calls —
      each run rewinds and replays. *)

  val detector : t -> Detector.t

  val order : t -> Spr_core.Sp_order_fused.t
  (** The SP-order structure the last run built, for inspection (e.g.
      {!Spr_om.Om_fused.stats_eng} via {!Spr_core.Sp_order_fused.om});
      the next {!run} rewinds it. *)

  val result : t -> serial_result
  (** Snapshot of the last run (allocates; call outside any probed
      region). *)
end

val detect_serial_fused : Spr_prog.Fj_program.t -> serial_result
(** [Fused.create] + [run] + [result] — drop-in comparison point for
    [detect_serial pt Algorithms.sp_order]. *)

type locked_result = { lock_races : Lockset.race list; racy_locs : int list }

val detect_serial_locked :
  Spr_prog.Prog_tree.t ->
  (Spr_sptree.Sp_tree.t -> Spr_core.Sp_maintainer.instance) ->
  locked_result

type hybrid_result = {
  races : Detector.race list;
  racy_locs : int list;
  sim : Spr_sched.Sim.result;
  hybrid_stats : Spr_hybrid.Sp_hybrid.stats;
}

val detect_hybrid :
  ?sink:Spr_obs.Sink.t -> ?seed:int -> ?procs:int -> Spr_prog.Fj_program.t -> hybrid_result
(** Every layer — SP-hybrid, the detector and the simulator — reports
    into [sink] (default {!Spr_obs.Sink.null}). *)

type hybrid_locked_result = {
  lock_races : Lockset.race list;
  racy_locs : int list;
  sim : Spr_sched.Sim.result;
}

val detect_hybrid_locked :
  ?seed:int -> ?procs:int -> Spr_prog.Fj_program.t -> hybrid_locked_result
(** The All-Sets-style detector with SP-hybrid as the oracle: parallel,
    on-the-fly, lock-aware — the full configuration the paper's
    abstract promises improved bounds for. *)
