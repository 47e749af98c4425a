(** Instrumentation sink threaded through the library layers.

    Bundles an optional {!Metrics} registry, an optional {!Flight}
    recorder and the current (virtual time, worker id) context.  The
    scheduler owns the context: it calls {!set_context} as it steps so
    that clock-less layers (order maintenance, the race detector)
    stamp events with the right virtual time.

    {!null} is the default everywhere: emitting against it is a single
    option match, so instrumentation is free unless a recording sink
    is installed. *)

type t

val null : t
(** The disabled sink.  Shared and immutable: setters are no-ops on
    it. *)

val make : ?metrics:Metrics.t -> ?flight:Flight.t -> unit -> t

val is_null : t -> bool

val metrics : t -> Metrics.t option

val set_context : t -> now:int -> wid:int -> unit

val now : t -> int

val emit : t -> Trace.kind -> unit
(** Emit at the current context into the flight recorder (flight
    lane = current worker id); no-op when none is attached.  Note the
    caller has already allocated the [Trace.kind] value — hot paths
    that must stay allocation-free use the typed emitters below
    instead. *)

(** {1 Typed emitters}

    Allocation-free: arguments are immediates and the flight recorder
    stores them as plain ints (structure names as interned ids).  The
    bench alloc-gate relies on these in the packed-OM steady state. *)

val emit_om_insert : t -> om:string -> unit

val emit_om_relabel : t -> om:string -> moved:int -> unit

val emit_om_bucket_split : t -> om:string -> unit
