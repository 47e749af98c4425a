(* The structured-event vocabulary: typed events stamped with the
   simulator's virtual clock and a worker id, and their Chrome
   trace_event JSON rendering (loadable in chrome://tracing and
   Perfetto).  The events themselves are recorded by [Flight], the
   one event ring; this module only names and renders them. *)

type kind =
  | Spawn of { parent : int; child : int }  (* frame ids *)
  | Sync of { frame : int }  (* a sync block's join was passed *)
  | Steal of { thief : int; victim : int; frame : int }
  | Return of { frame : int; inline : bool }
  | Thread_run of { tid : int; cost : int }
  | Trace_split of { victim_trace : int; u1 : int; u2 : int; u4 : int; u5 : int }
  | Lock_span of { wait : int; hold : int }  (* global-tier lock acquire..release *)
  | Om_insert of { om : string }
  | Om_relabel of { om : string; moved : int }
  | Om_bucket_split of { om : string }
  | Race_query of { tid : int; queries : int }

type event = { ts : int; wid : int; kind : kind }

let name_of = function
  | Spawn _ -> "spawn"
  | Sync _ -> "sync"
  | Steal _ -> "steal"
  | Return _ -> "return"
  | Thread_run _ -> "thread"
  | Trace_split _ -> "trace-split"
  | Lock_span _ -> "global-lock"
  | Om_insert _ -> "om-insert"
  | Om_relabel _ -> "om-relabel"
  | Om_bucket_split _ -> "om-bucket-split"
  | Race_query _ -> "race-query"

let cat_of = function
  | Spawn _ | Sync _ | Steal _ | Return _ | Thread_run _ -> "sched"
  | Trace_split _ | Lock_span _ -> "hybrid"
  | Om_insert _ | Om_relabel _ | Om_bucket_split _ -> "om"
  | Race_query _ -> "race"

let args_of = function
  | Spawn { parent; child } -> [ ("parent", Json.Int parent); ("child", Json.Int child) ]
  | Sync { frame } -> [ ("frame", Json.Int frame) ]
  | Steal { thief; victim; frame } ->
      [ ("thief", Json.Int thief); ("victim", Json.Int victim); ("frame", Json.Int frame) ]
  | Return { frame; inline } -> [ ("frame", Json.Int frame); ("inline", Json.Bool inline) ]
  | Thread_run { tid; cost } -> [ ("tid", Json.Int tid); ("cost", Json.Int cost) ]
  | Trace_split { victim_trace; u1; u2; u4; u5 } ->
      [
        ("victim_trace", Json.Int victim_trace);
        ("u1", Json.Int u1);
        ("u2", Json.Int u2);
        ("u4", Json.Int u4);
        ("u5", Json.Int u5);
      ]
  | Lock_span { wait; hold } -> [ ("wait", Json.Int wait); ("hold", Json.Int hold) ]
  | Om_insert { om } -> [ ("om", Json.String om) ]
  | Om_relabel { om; moved } -> [ ("om", Json.String om); ("moved", Json.Int moved) ]
  | Om_bucket_split { om } -> [ ("om", Json.String om) ]
  | Race_query { tid; queries } -> [ ("tid", Json.Int tid); ("queries", Json.Int queries) ]

(* Chrome's trace_event schema: every event carries name/cat/ph/ts/
   pid/tid.  Durations (thread execution, the global-lock span) are
   "complete" events (ph = "X" with [dur]); everything else is a
   thread-scoped instant (ph = "i", s = "t").  One virtual tick maps
   to one microsecond, the unit of [ts]. *)
let chrome_of_event (e : event) =
  let dur =
    match e.kind with
    | Thread_run { cost; _ } -> Some cost
    | Lock_span { wait; hold } -> Some (wait + hold)
    | _ -> None
  in
  let base =
    [
      ("name", Json.String (name_of e.kind));
      ("cat", Json.String (cat_of e.kind));
      ("ph", Json.String (match dur with Some _ -> "X" | None -> "i"));
      ("ts", Json.Int e.ts);
      ("pid", Json.Int 0);
      ("tid", Json.Int e.wid);
    ]
  in
  let dur = match dur with Some d -> [ ("dur", Json.Int d) ] | None -> [ ("s", Json.String "t") ] in
  Json.Obj (base @ dur @ [ ("args", Json.Obj (args_of e.kind)) ])

let chrome_objects events =
  let evs = List.map chrome_of_event events in
  (* Metadata events name the virtual workers in the viewer. *)
  let wids = List.sort_uniq compare (List.map (fun e -> e.wid) events) in
  let meta =
    List.map
      (fun wid ->
        Json.Obj
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int 0);
            ("tid", Json.Int wid);
            ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "worker %d" wid)) ]);
          ])
      wids
  in
  meta @ evs

let to_chrome ?(other_data = []) ~dropped events =
  Json.Obj
    [
      ("traceEvents", Json.List (chrome_objects events));
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Obj
          ([ ("events", Json.Int (List.length events)); ("dropped", Json.Int dropped) ]
          @ other_data) );
    ]
