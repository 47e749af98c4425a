(* Unit tests for the observability layer (spr_obs): the JSON printer,
   the metrics registry, the Chrome trace_event export, the sink
   plumbing and the flight recorder (the one event ring) — including an
   end-to-end run of the simulator + SP-hybrid recorded into per-worker
   flight lanes that validates the schema of every exported event. *)

open Spr_obs

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

let json_printing () =
  let j =
    Json.Obj
      [
        ("s", Json.String "a\"b\n");
        ("i", Json.Int (-3));
        ("f", Json.Float 1.5);
        ("l", Json.List [ Json.Bool true; Json.Null ]);
        ("o", Json.Obj []);
      ]
  in
  Alcotest.(check string)
    "canonical print" {|{"s":"a\"b\n","i":-3,"f":1.5,"l":[true,null],"o":{}}|}
    (Json.to_string j);
  Alcotest.(check bool) "member hit" true (Json.member "i" j = Some (Json.Int (-3)));
  Alcotest.(check bool) "member miss" true (Json.member "zzz" j = None);
  Alcotest.(check bool) "member on non-object" true (Json.member "x" Json.Null = None)

let json_parsing () =
  let roundtrip j =
    match Json.of_string (Json.to_string j) with
    | Ok j' -> Alcotest.(check bool) ("roundtrip " ^ Json.to_string j) true (j = j')
    | Error e -> Alcotest.fail ("parse failed: " ^ e)
  in
  List.iter roundtrip
    [
      Json.Null;
      Json.Bool false;
      Json.Int 42;
      Json.Int (-7);
      Json.Float 1.25;
      Json.Float (-0.0625);
      Json.String "a\"b\\c\nd\te\r\x01";
      Json.List [];
      Json.Obj [];
      Json.Obj
        [
          ("samples", Json.List [ Json.Float 134.2; Json.Int 7; Json.Null ]);
          ("nested", Json.Obj [ ("k", Json.List [ Json.Obj [ ("x", Json.Bool true) ] ]) ]);
        ];
    ];
  (* Whitespace and jq-style formatting are accepted. *)
  (match Json.of_string " {\n  \"a\" : [ 1 , 2.5 ] ,\n  \"b\" : null\n}\n" with
  | Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 2.5 ]); ("b", Json.Null) ]) -> ()
  | Ok j -> Alcotest.fail ("wrong parse: " ^ Json.to_string j)
  | Error e -> Alcotest.fail e);
  (* Malformed inputs are errors, not exceptions. *)
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted malformed " ^ s))
    [ ""; "{"; "[1,"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated"; "{\"a\" 1}" ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let metrics_instruments () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a/c" in
  Metrics.incr c;
  Metrics.add c 4;
  let g = Metrics.gauge m "a/g" in
  Metrics.set g 2.5;
  let h = Metrics.histogram m "a/h" in
  List.iter (Metrics.observe h) [ 1; 2; 4; 100 ];
  (match Metrics.snapshot m with
  | [ ("a/c", Metrics.C 5); ("a/g", Metrics.G 2.5); ("a/h", Metrics.H hd) ] ->
      Alcotest.(check int) "hist count" 4 hd.Metrics.count;
      Alcotest.(check int) "hist sum" 107 hd.Metrics.sum;
      Alcotest.(check int) "hist max" 100 hd.Metrics.max
  | _ -> Alcotest.fail "unexpected snapshot shape (should be sorted by key)");
  (* Re-registering by key returns the same cell. *)
  Metrics.incr (Metrics.counter m "a/c");
  (match Metrics.snapshot m with
  | ("a/c", Metrics.C 6) :: _ -> ()
  | _ -> Alcotest.fail "counter lookup did not find the existing cell");
  (* A key cannot change kind. *)
  Alcotest.(check bool) "kind clash rejected" true
    (try
       ignore (Metrics.gauge m "a/c");
       false
     with Invalid_argument _ -> true)

let metrics_snapshot_diff_reset () =
  let m = Metrics.create () in
  let c = Metrics.counter m "x/c" in
  let h = Metrics.histogram m "x/h" in
  Metrics.add c 10;
  Metrics.observe h 8;
  let before = Metrics.snapshot m in
  Metrics.add c 7;
  Metrics.observe h 32;
  let after = Metrics.snapshot m in
  (match Metrics.diff after before with
  | [ ("x/c", Metrics.C 7); ("x/h", Metrics.H hd) ] ->
      Alcotest.(check int) "window count" 1 hd.Metrics.count;
      Alcotest.(check int) "window sum" 32 hd.Metrics.sum
  | _ -> Alcotest.fail "diff shape");
  Metrics.reset m;
  match Metrics.snapshot m with
  | [ ("x/c", Metrics.C 0); ("x/h", Metrics.H hd) ] ->
      Alcotest.(check int) "reset count" 0 hd.Metrics.count
  | _ -> Alcotest.fail "reset should keep registrations and zero values"

let metrics_json_and_quantiles () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "s/c") 3;
  let h = Metrics.histogram m "s/h" in
  for _ = 1 to 90 do
    Metrics.observe h 1
  done;
  for _ = 1 to 10 do
    Metrics.observe h 1000
  done;
  (* Log-bucketed approximation: p50 lands in the 1-bucket, p99 in the
     1000-bucket (whose answer is capped at the observed max). *)
  Alcotest.(check (float 1e-9)) "p50" 1.0 (Metrics.quantile h 0.5);
  Alcotest.(check bool) "p99 in the top bucket" true (Metrics.quantile h 0.99 > 500.0);
  Alcotest.(check bool) "p99 capped at max" true (Metrics.quantile h 0.99 <= 1000.0);
  let j = Metrics.to_json m in
  Alcotest.(check bool) "counter field" true (Json.member "s/c" j = Some (Json.Int 3));
  match Json.member "s/h" j with
  | Some hist ->
      Alcotest.(check bool) "hist count field" true
        (Json.member "count" hist = Some (Json.Int 100));
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " present") true (Json.member k hist <> None))
        [ "sum"; "max"; "p50"; "p90"; "p99" ]
  | None -> Alcotest.fail "histogram missing from JSON"

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                           *)

(* Every exported trace_event must carry the Chrome-required fields;
   complete events ("ph":"X") additionally carry a duration, instants
   ("ph":"i") a scope. *)
let check_chrome_event ?(meta_ok = false) j =
  let require keys =
    List.iter
      (fun k ->
        if Json.member k j = None then
          Alcotest.failf "event %s lacks required field %S" (Json.to_string j) k)
      keys
  in
  match Json.member "ph" j with
  | Some (Json.String "X") ->
      require [ "name"; "ts"; "pid"; "tid"; "dur" ]
  | Some (Json.String "i") -> require [ "name"; "ts"; "pid"; "tid"; "s" ]
  | Some (Json.String "M") when meta_ok ->
      (* Metadata records (thread naming) carry no timestamp. *)
      require [ "name"; "pid"; "tid"; "args" ]
  | ph ->
      Alcotest.failf "event %s has unexpected ph %s" (Json.to_string j)
        (match ph with Some p -> Json.to_string p | None -> "<none>")

let all_kinds =
  [
    Trace.Spawn { parent = 1; child = 2 };
    Trace.Sync { frame = 1 };
    Trace.Steal { thief = 1; victim = 0; frame = 3 };
    Trace.Return { frame = 3; inline = true };
    Trace.Thread_run { tid = 7; cost = 5 };
    Trace.Trace_split { victim_trace = 1; u1 = 2; u2 = 3; u4 = 4; u5 = 5 };
    Trace.Lock_span { wait = 2; hold = 3 };
    Trace.Om_insert { om = "eng" };
    Trace.Om_relabel { om = "eng"; moved = 12 };
    Trace.Om_bucket_split { om = "heb" };
    Trace.Race_query { tid = 4; queries = 2 };
  ]

let trace_chrome_schema () =
  List.iter
    (fun kind -> check_chrome_event (Trace.chrome_of_event { Trace.ts = 5; wid = 1; kind }))
    all_kinds;
  (* Durations come from the payload: thread runs last their cost, the
     lock span covers wait + hold. *)
  let dur kind =
    match Json.member "dur" (Trace.chrome_of_event { Trace.ts = 0; wid = 0; kind }) with
    | Some (Json.Int d) -> d
    | _ -> Alcotest.fail "expected an integer dur"
  in
  Alcotest.(check int) "thread dur = cost" 5 (dur (Trace.Thread_run { tid = 0; cost = 5 }));
  Alcotest.(check int) "lock dur = wait+hold" 5 (dur (Trace.Lock_span { wait = 2; hold = 3 }))

let trace_to_chrome () =
  let events = List.mapi (fun i kind -> { Trace.ts = i; wid = i mod 3; kind }) all_kinds in
  let j = Trace.to_chrome ~other_data:[ ("workload", Json.String "unit") ] ~dropped:5 events in
  (match Json.member "traceEvents" j with
  | Some (Json.List evs) ->
      Alcotest.(check bool) "metadata + events" true (List.length evs > List.length all_kinds);
      List.iter (check_chrome_event ~meta_ok:true) evs
  | _ -> Alcotest.fail "traceEvents missing");
  match Json.member "otherData" j with
  | Some od ->
      Alcotest.(check bool) "caller data kept" true
        (Json.member "workload" od = Some (Json.String "unit"));
      Alcotest.(check bool) "event count" true
        (Json.member "events" od = Some (Json.Int (List.length all_kinds)));
      Alcotest.(check bool) "drop count" true (Json.member "dropped" od = Some (Json.Int 5))
  | None -> Alcotest.fail "otherData missing"

(* ------------------------------------------------------------------ *)
(* Sink                                                                *)

let sink_plumbing () =
  Alcotest.(check bool) "null is null" true (Sink.is_null Sink.null);
  (* Emitting and setting context on the null sink must be no-ops. *)
  Sink.set_context Sink.null ~now:99 ~wid:3;
  Sink.emit Sink.null (Trace.Sync { frame = 0 });
  Alcotest.(check int) "null clock untouched" 0 (Sink.now Sink.null);
  let f = Flight.create ~lanes:3 () in
  let m = Metrics.create () in
  let s = Sink.make ~metrics:m ~flight:f () in
  Alcotest.(check bool) "live sink" false (Sink.is_null s);
  Alcotest.(check bool) "metrics exposed" true (Sink.metrics s = Some m);
  Sink.set_context s ~now:42 ~wid:2;
  Sink.emit s (Trace.Sync { frame = 1 });
  Sink.emit_om_relabel s ~om:"eng" ~moved:3;
  (* Both emits land in the lane of the context's worker id. *)
  Alcotest.(check int) "lane 0 empty" 0 (Flight.lane_length f 0);
  Alcotest.(check int) "lane 1 empty" 0 (Flight.lane_length f 1);
  match Flight.lane_events f 2 with
  | [ a; b ] ->
      Alcotest.(check int) "context ts" 42 a.Trace.ts;
      Alcotest.(check int) "context wid" 2 a.Trace.wid;
      Alcotest.(check bool) "typed payload" true (a.Trace.kind = Trace.Sync { frame = 1 });
      Alcotest.(check bool)
        "typed emitter payload" true
        (b.Trace.kind = Trace.Om_relabel { om = "eng"; moved = 3 })
  | _ -> Alcotest.fail "expected exactly two events in lane 2"

(* ------------------------------------------------------------------ *)
(* Sharded counters: exact totals, single-domain parity                *)

let sharded_parity () =
  (* A sharded registry's snapshot is bit-identical to a serial Metrics
     registry fed the same bumps from one domain. *)
  let s = Sharded.create () in
  let m = Metrics.create () in
  let pairs =
    [ ("om/inserts", 17); ("om/relabels", 0); ("runtime/steals", 123456789) ]
  in
  List.iter
    (fun (k, n) ->
      Sharded.add (Sharded.counter s k) n;
      Metrics.add (Metrics.counter m k) n)
    pairs;
  Alcotest.(check bool)
    "snapshots bit-identical" true
    (Sharded.metrics_snapshot s = Metrics.snapshot m);
  (* find-or-register returns the same cell; bumps accumulate. *)
  Sharded.incr (Sharded.counter s "om/inserts");
  Alcotest.(check int) "accumulated" 18 (Sharded.read (Sharded.counter s "om/inserts"))

let sharded_domains () =
  (* 8 domains bump one counter concurrently with no synchronization on
     the bump path; after join the total is exact, not approximate. *)
  let s = Sharded.create () in
  let c = Sharded.counter s "test/exact" in
  let n_domains = 8 and per = 50_000 in
  let domains =
    Array.init n_domains (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to per + d do
              Sharded.incr c
            done))
  in
  Array.iter Domain.join domains;
  let expect = (n_domains * per) + (n_domains * (n_domains - 1) / 2) in
  Alcotest.(check int) "exact cross-domain total" expect (Sharded.read c)

(* ------------------------------------------------------------------ *)
(* Probes: uninstalled passthrough, span accounting, alloc_words       *)

let probe_uninstalled () =
  Probe.reset ();
  Alcotest.(check bool) "not installed" false (Probe.is_installed ());
  let r = Probe.region "test/uninstalled" in
  let v = Probe.span r (fun () -> 41 + 1) in
  Alcotest.(check int) "value passes through" 42 v;
  let st = Probe.stats r in
  Alcotest.(check int) "no spans charged" 0 st.Probe.s_spans;
  Alcotest.(check int) "no words charged" 0 st.Probe.s_minor_words

let probe_span_accounting () =
  Probe.reset ();
  Probe.install ();
  let r = Probe.region "test/span" in
  let n = 10_000 in
  let v =
    Probe.span r (fun () ->
        (* n list conses: exactly 3 words each on the minor heap. *)
        let l = ref [] in
        for i = 1 to n do
          l := i :: !l
        done;
        List.length !l)
  in
  Probe.uninstall ();
  Alcotest.(check int) "thunk result" n v;
  let st = Probe.stats r in
  Alcotest.(check int) "one span" 1 st.Probe.s_spans;
  Alcotest.(check bool) "wall time advanced" true (st.Probe.s_wall_ns > 0);
  Alcotest.(check bool)
    (Printf.sprintf "minor words >= 3n (got %d)" st.Probe.s_minor_words)
    true
    (st.Probe.s_minor_words >= 3 * n);
  (* Exceptions still charge the region, then propagate. *)
  Probe.install ();
  (try Probe.span r (fun () -> failwith "boom") with Failure _ -> ());
  Probe.uninstall ();
  Alcotest.(check int) "span charged on exception" 2 (Probe.stats r).Probe.s_spans;
  (* Regions with activity appear in the sorted snapshot. *)
  Alcotest.(check bool) "in snapshot" true (List.mem_assoc "test/span" (Probe.snapshot ()))

let probe_alloc_words () =
  (* Calibrated: an allocation-free loop reads exactly 0... *)
  let sum = ref 0 in
  let (), w0 =
    Probe.alloc_words (fun () ->
        for i = 1 to 1_000 do
          sum := !sum + i
        done)
  in
  Alcotest.(check int) "allocation-free loop is 0 words" 0 w0;
  (* ...and n conses read exactly 3n words. *)
  let n = 1_000 in
  let l, w1 =
    Probe.alloc_words (fun () ->
        let l = ref [] in
        for i = 1 to n do
          l := i :: !l
        done;
        !l)
  in
  Alcotest.(check int) "list still usable" n (List.length l);
  Alcotest.(check int) "3 words per cons" (3 * n) w1

(* ------------------------------------------------------------------ *)
(* Flight recorder: wraparound, roundtrip, concurrent lanes            *)

let flight_ring () =
  let f = Flight.create ~lanes:2 ~capacity:8 () in
  for i = 0 to 19 do
    Flight.emit f ~lane:0 ~ts:i ~wid:0 (Trace.Sync { frame = i })
  done;
  Alcotest.(check int) "full lane holds capacity" 8 (Flight.lane_length f 0);
  Alcotest.(check int) "overwritten events counted" 12 (Flight.lane_dropped f 0);
  Alcotest.(check int) "untouched lane empty" 0 (Flight.lane_length f 1);
  (* The ring keeps the tail of the run, oldest first. *)
  let frames =
    List.map
      (fun (e : Trace.event) ->
        match e.Trace.kind with Trace.Sync { frame } -> frame | _ -> -1)
      (Flight.lane_events f 0)
  in
  Alcotest.(check (list int)) "tail, oldest first" [ 12; 13; 14; 15; 16; 17; 18; 19 ] frames;
  Flight.clear f;
  Alcotest.(check int) "clear empties" 0 (Flight.lane_length f 0);
  Alcotest.(check int) "clear resets dropped" 0 (Flight.lane_dropped f 0)

let flight_roundtrip () =
  let f = Flight.create ~lanes:3 ~capacity:16 () in
  Flight.emit f ~lane:0 ~ts:1 ~wid:0 (Trace.Spawn { parent = 2; child = 3 });
  Flight.emit f ~lane:0 ~ts:2 ~wid:0 (Trace.Om_relabel { om = "om-packed"; moved = 7 });
  Flight.emit f ~lane:1 ~ts:3 ~wid:1
    (Trace.Trace_split { victim_trace = 4; u1 = 5; u2 = 6; u4 = 7; u5 = 8 });
  Flight.emit f ~lane:1 ~ts:4 ~wid:1 (Trace.Om_insert { om = "om-two-level" });
  let snapshot = Json.Obj [ ("om/inserts", Json.Int 2) ] in
  let bytes = Flight.to_bytes ~snapshot f in
  (* Deterministic image: same state, same bytes. *)
  Alcotest.(check string) "to_bytes deterministic" bytes (Flight.to_bytes ~snapshot f);
  let d = Flight.of_bytes bytes in
  Alcotest.(check int) "capacity" 16 d.Flight.d_capacity;
  Alcotest.(check (array int)) "per-lane counts" [| 2; 2; 0 |] d.Flight.d_counts;
  Alcotest.(check bool) "snapshot embedded" true (d.Flight.d_snapshot = Some snapshot);
  let lane0 = d.Flight.d_events.(0) in
  Alcotest.(check int) "lane 0 decoded" 2 (List.length lane0);
  (match lane0 with
  | [ a; b ] ->
      Alcotest.(check bool) "spawn payload" true (a.Trace.kind = Trace.Spawn { parent = 2; child = 3 });
      Alcotest.(check int) "ts survives" 1 a.Trace.ts;
      Alcotest.(check bool)
        "string field re-interned" true
        (b.Trace.kind = Trace.Om_relabel { om = "om-packed"; moved = 7 })
  | _ -> Alcotest.fail "lane 0 shape");
  (match d.Flight.d_events.(1) with
  | [ a; _ ] ->
      Alcotest.(check bool)
        "5-field payload survives" true
        (a.Trace.kind = Trace.Trace_split { victim_trace = 4; u1 = 5; u2 = 6; u4 = 7; u5 = 8 })
  | _ -> Alcotest.fail "lane 1 shape");
  (* Truncation and bad magic are Failure, not crashes. *)
  Alcotest.check_raises "bad magic" (Failure "Flight: bad magic (not a .spr-flight file)")
    (fun () -> ignore (Flight.of_bytes "XXXXXXXXXXXXXXXX"))

(* qcheck: a 1-3-byte mutant of a dump image either decodes or raises
   [Failure] — never [Invalid_argument] from a corrupted count sizing
   an allocation, nor any other exception.  The dump's counterpart of
   the ingest decoder's corruption property. *)
let flight_image =
  lazy
    (let f = Flight.create ~lanes:2 ~capacity:2 () in
     (* Negative fields encode as 10-byte varints, so a count byte
        mutated to continue into one decodes negative; lane 0 wraps. *)
     Flight.emit f ~lane:0 ~ts:(-1) ~wid:(-1) (Trace.Spawn { parent = -1; child = -2 });
     Flight.emit f ~lane:1 ~ts:(-3) ~wid:1 (Trace.Om_relabel { om = "eng"; moved = -4 });
     Flight.emit f ~lane:0 ~ts:(-5) ~wid:0 (Trace.Sync { frame = -6 });
     Flight.emit f ~lane:0 ~ts:(-7) ~wid:0 (Trace.Race_query { tid = -8; queries = 1 });
     Flight.to_bytes ~snapshot:(Json.Obj [ ("om/inserts", Json.Int (-1)) ]) f)

let flight_corruption_is_a_failure =
  QCheck2.Test.make ~count:5000
    ~print:(fun muts ->
      String.concat ", " (List.map (fun (at, byte) -> Printf.sprintf "%d:=%d" at byte) muts))
    ~name:"flight: corrupted dump decodes or raises Failure"
    QCheck2.Gen.(list_size (1 -- 3) (pair (0 -- 1_000_000) (0 -- 255)))
    (fun muts ->
      let image = Lazy.force flight_image in
      let b = Bytes.of_string image in
      List.iter (fun (at, byte) -> Bytes.set b (at mod String.length image) (Char.chr byte)) muts;
      match Flight.of_bytes (Bytes.to_string b) with
      | _ -> true
      | exception Failure _ -> true)

(* qcheck: N domains each own one lane and emit M events concurrently;
   every decoded event is untorn (payload satisfies c = a lxor b) and
   each lane is in its writer's program order.  Single-writer-per-lane
   is the recorder's whole concurrency contract. *)
let flight_concurrent_lanes =
  QCheck.Test.make ~count:25 ~name:"flight: N domains x M events, no tearing, lane order"
    QCheck.(pair (int_range 1 6) (int_range 1 200))
    (fun (n_domains, m_events) ->
      let f = Flight.create ~lanes:n_domains ~capacity:64 () in
      let domains =
        Array.init n_domains (fun d ->
            Domain.spawn (fun () ->
                for i = 0 to m_events - 1 do
                  Flight.emit_raw f ~lane:d ~ts:i ~wid:d ~tag:Flight.tag_spawn ~a:i
                    ~b:(d * 1_000_003) ~c:(i lxor (d * 1_000_003)) ~d:0 ~e:0
                done))
      in
      Array.iter Domain.join domains;
      let ok = ref true in
      for d = 0 to n_domains - 1 do
        List.iter
          (fun (e : Trace.event) ->
            match e.Trace.kind with
            | Trace.Spawn { parent; child } ->
                (* An untorn slot satisfies parent = ts = i and
                   child = the lane's writer constant. *)
                if child <> d * 1_000_003 then ok := false;
                if parent <> e.Trace.ts then ok := false
            | _ -> ok := false)
          (Flight.lane_events f d);
        (* Program order within the lane: ts strictly increasing. *)
        let tss = List.map (fun (e : Trace.event) -> e.Trace.ts) (Flight.lane_events f d) in
        if tss <> List.sort_uniq compare tss then ok := false;
        if Flight.lane_length f d <> min m_events 64 then ok := false;
        if Flight.lane_dropped f d <> max 0 (m_events - 64) then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)

let prom_render () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "om/inserts") 42;
  Metrics.set (Metrics.gauge m "sched/time") 17.0;
  let h = Metrics.histogram m "race/queries_per_access" in
  List.iter (Metrics.observe h) [ 0; 1; 2; 3; 9 ];
  Alcotest.(check string) "pinned exposition"
    "# TYPE spr_om_inserts counter\n\
     spr_om_inserts 42\n\
     # TYPE spr_race_queries_per_access histogram\n\
     spr_race_queries_per_access_bucket{le=\"1\"} 2\n\
     spr_race_queries_per_access_bucket{le=\"3\"} 4\n\
     spr_race_queries_per_access_bucket{le=\"7\"} 4\n\
     spr_race_queries_per_access_bucket{le=\"15\"} 5\n\
     spr_race_queries_per_access_bucket{le=\"+Inf\"} 5\n\
     spr_race_queries_per_access_sum 15\n\
     spr_race_queries_per_access_count 5\n\
     # TYPE spr_sched_time gauge\n\
     spr_sched_time 17\n"
    (Prom.render (Metrics.snapshot m));
  Alcotest.(check string) "sanitize" "x_om_2level_q" (Prom.sanitize ~prefix:"x" "om/2level.q")

(* ------------------------------------------------------------------ *)
(* End to end: simulator + SP-hybrid under a recording sink            *)

let end_to_end () =
  let procs = 4 in
  let flight = Flight.create ~lanes:procs ~capacity:4096 () in
  let m = Metrics.create () in
  let sink = Sink.make ~metrics:m ~flight () in
  let p = Spr_workloads.Progs.fib ~n:8 ~cost:3 () in
  let h = Spr_hybrid.Sp_hybrid.create ~sink p in
  let res = Spr_sched.Sim.run ~hooks:(Spr_hybrid.Sp_hybrid.hooks h) ~sink ~seed:1 ~procs p in
  let lanes = List.init procs Fun.id in
  let events = List.concat_map (Flight.lane_events flight) lanes in
  Alcotest.(check bool) "events recorded" true (events <> []);
  Alcotest.(check int) "nothing dropped" 0
    (List.fold_left (fun acc l -> acc + Flight.lane_dropped flight l) 0 lanes);
  (* Every recorded event passes the Chrome schema check once exported. *)
  (match Json.member "traceEvents" (Trace.to_chrome ~dropped:0 events) with
  | Some (Json.List evs) -> List.iter (check_chrome_event ~meta_ok:true) evs
  | _ -> Alcotest.fail "traceEvents missing");
  (* Counters agree with the simulator's own accounting, and Theorem
     2's trace structure shows as steals == splits. *)
  let counter key =
    match List.assoc_opt key (Metrics.snapshot m) with
    | Some (Metrics.C n) -> n
    | _ -> Alcotest.failf "missing counter %s" key
  in
  Alcotest.(check int) "sched/steals matches result" res.Spr_sched.Sim.steals
    (counter "sched/steals");
  Alcotest.(check int) "steal = split" (counter "sched/steals") (counter "hybrid/splits");
  let stolen =
    List.length
      (List.filter (fun e -> match e.Trace.kind with Trace.Steal _ -> true | _ -> false) events)
  in
  Alcotest.(check int) "steal events recorded" res.Spr_sched.Sim.steals stolen

let () =
  Alcotest.run "spr_obs"
    [
      ( "json",
        [
          Alcotest.test_case "printing" `Quick json_printing;
          Alcotest.test_case "parsing" `Quick json_parsing;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "instruments" `Quick metrics_instruments;
          Alcotest.test_case "snapshot/diff/reset" `Quick metrics_snapshot_diff_reset;
          Alcotest.test_case "json + quantiles" `Quick metrics_json_and_quantiles;
        ] );
      ( "trace",
        [
          Alcotest.test_case "chrome schema" `Quick trace_chrome_schema;
          Alcotest.test_case "to_chrome" `Quick trace_to_chrome;
        ] );
      ("sink", [ Alcotest.test_case "plumbing" `Quick sink_plumbing ]);
      ( "sharded",
        [
          Alcotest.test_case "single-domain parity" `Quick sharded_parity;
          Alcotest.test_case "8-domain exact totals" `Quick sharded_domains;
        ] );
      ( "probe",
        [
          Alcotest.test_case "uninstalled passthrough" `Quick probe_uninstalled;
          Alcotest.test_case "span accounting" `Quick probe_span_accounting;
          Alcotest.test_case "alloc_words calibration" `Quick probe_alloc_words;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring wraparound" `Quick flight_ring;
          Alcotest.test_case "dump roundtrip" `Quick flight_roundtrip;
          QCheck_alcotest.to_alcotest flight_corruption_is_a_failure;
          QCheck_alcotest.to_alcotest flight_concurrent_lanes;
        ] );
      ("prom", [ Alcotest.test_case "text exposition" `Quick prom_render ]);
      ("end-to-end", [ Alcotest.test_case "sim + hybrid" `Quick end_to_end ]);
    ]
