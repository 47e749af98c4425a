(** Prometheus text exposition (format 0.0.4) of registry snapshots
    ({!Sharded.snapshot}) — the scrape-side face of the observability
    layer.

    Keys map to metric names as [prefix ^ "_" ^ key] with every
    non-[[a-zA-Z0-9_]] byte replaced by ['_'] (so ["om/inserts"]
    renders as [spr_om_inserts]).  Counters and gauges are single
    samples with a [# TYPE] line; log-scale histograms render as
    cumulative [le] buckets (inclusive upper bound [2^(i+1)-1] for
    bucket [i]) plus [_sum]/[_count].  Deterministic: follows the
    snapshot's sorted key order. *)

val sanitize : prefix:string -> string -> string

val render : ?prefix:string -> Metrics.snapshot -> string
(** Default [prefix] is ["spr"]. *)
