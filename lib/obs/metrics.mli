(** Metric snapshots and their renderers.

    The instruments live in {!Sharded}; a {!Sharded.snapshot} freezes
    a registry into the sorted association list below, which can be
    {!diff}ed against an earlier one — the bench harness wraps each
    experiment this way.  Renders are deterministic: keys sort
    lexicographically. *)

(** {1 The histogram bucket scheme}

    Shared by the cells that fill it ({!Sharded.observe}) and the
    renderers that read it (quantiles here, [le] bounds in {!Prom}). *)

val hist_buckets : int
(** 62: enough for the whole OCaml int range. *)

val bucket_of : int -> int
(** [floor (lg v)], with bucket 0 taking 0 and 1. *)

(** {1 Snapshots} *)

type hist_data = { count : int; sum : int; max : int; buckets : int array }
(** A log-scale histogram: [buckets] has {!hist_buckets} entries,
    entry [i] counting the samples [v] with [bucket_of v = i]. *)

type datum = C of int | G of float | H of hist_data

type snapshot = (string * datum) list
(** Sorted by key. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier]: the activity window between two snapshots —
    counters and histogram counts subtract, gauges and histogram maxima
    keep the later value. *)

val pp_snapshot : Format.formatter -> snapshot -> unit
(** Pretty, grouped by subsystem; histograms show n/mean/p50/p90/p99/max
    (approximate quantiles: each bucket answers with its midpoint,
    capped at the true maximum). *)

val snapshot_to_json : snapshot -> Json.t
(** Flat object keyed by full path: counters as numbers, gauges as
    floats, histograms as [{count, sum, max, p50, p90, p99}]. *)
