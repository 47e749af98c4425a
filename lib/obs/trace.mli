(** The structured-event vocabulary: typed events stamped with the
    simulator's virtual clock ([ts], one tick = one exported
    microsecond) and the worker id that produced them, rendered as
    Chrome [trace_event] JSON (load the file in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}).  Events are recorded by
    {!Flight}, one ring per worker; this module holds no buffer. *)

type kind =
  | Spawn of { parent : int; child : int }
  | Sync of { frame : int }
  | Steal of { thief : int; victim : int; frame : int }
  | Return of { frame : int; inline : bool }
  | Thread_run of { tid : int; cost : int }
  | Trace_split of { victim_trace : int; u1 : int; u2 : int; u4 : int; u5 : int }
  | Lock_span of { wait : int; hold : int }
  | Om_insert of { om : string }
  | Om_relabel of { om : string; moved : int }
  | Om_bucket_split of { om : string }
  | Race_query of { tid : int; queries : int }

type event = { ts : int; wid : int; kind : kind }

val chrome_of_event : event -> Json.t
(** One Chrome [trace_event] object: always carries [name], [cat],
    [ph], [ts], [pid], [tid] plus either [dur] (complete events:
    thread execution, the global-lock span) or [s] (instants), and an
    [args] object with the typed payload. *)

val to_chrome : ?other_data:(string * Json.t) list -> dropped:int -> event list -> Json.t
(** The full JSON-object-format trace: [traceEvents] (worker-naming
    metadata first, then the events in list order) plus an
    [otherData] section with the event count, the recorder's
    [dropped] count and the caller's extra fields. *)
