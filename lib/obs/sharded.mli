(** The metrics registry: counters, gauges and log-scale histograms
    keyed by ["subsystem/name"], with exact cross-domain totals and a
    plain-store bump path.

    Counters and histograms own one cache-line-padded cell per domain
    (per bucket, for histograms); {!add} and {!observe} are a
    [Domain.DLS] lookup plus unsynchronized stores into the calling
    domain's cells, so concurrent bumps neither race nor contend.
    {!read} and {!snapshot} combine the per-domain cells; after the
    writing domains have been joined (any happens-before edge), the
    totals are exact — no lost updates.

    Cells persist after their domain terminates, so totals include
    work done by joined domains.  Reads that run concurrently with
    writers may miss in-flight bumps (they use plain loads by design);
    they never observe torn or decreasing values from a single
    domain's cell.  Snapshots are rendered by {!Metrics}. *)

type t
(** A registry: a name -> instrument table.  Instrument cells live in
    one process-wide space shared by all registries (DLS keys are never
    reclaimed, so registries must not own per-domain state).  A fresh
    registry starts every name at zero. *)

val create : unit -> t

val default : t
(** The process-wide registry: library layers with no sink of their
    own (concurrent OM, runtime, ingest server) record here, and the
    CLIs point their sinks at it. *)

(** {1 Instruments}

    Find or register the instrument named [key] (conventionally
    ["subsystem/name"]).  Resolve once, bump many: resolution takes
    the registry lock, bumps never do.
    @raise Invalid_argument if [key] names an instrument of another
    kind. *)

type counter

type gauge

type histogram

val counter : t -> string -> counter

val gauge : t -> string -> gauge

val histogram : t -> string -> histogram

val add : counter -> int -> unit
(** One DLS lookup + one plain store into this domain's cell. *)

val incr : counter -> unit

val set : gauge -> float -> unit
(** Last write wins.  A gauge is one cell shared by every domain, so
    it must have a single writer at a time. *)

val observe : histogram -> int -> unit
(** Record one non-negative sample (negatives clamp to 0) into this
    domain's cells.  Buckets are powers of two: bucket [i] counts
    samples with [floor (lg v) = i] (bucket 0 takes 0 and 1). *)

val read : counter -> int
(** Sum of the counter's cells across all domains, live and joined. *)

val snapshot : t -> Metrics.snapshot
(** Every registered instrument, sorted by name.  Counters, histogram
    counts, sums and buckets sum across domains; a histogram's max is
    the largest per-domain max. *)
