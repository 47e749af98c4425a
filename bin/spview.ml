(* spview — command-line explorer for the SP-maintenance library.

   Subcommands:
     tree    generate a parse tree; print it, its English/Hebrew labels
             and (optionally) its computation dag
     detect  run a determinacy-race detector over a workload
     hybrid  simulate SP-hybrid on the work-stealing scheduler

   Examples:
     spview tree --gen paper --labels --dag
     spview tree --gen random --size 12 --seed 3
     spview detect --workload dcsum-buggy --size 64 --algo sp-order
     spview hybrid --workload fib --size 12 --procs 8
     spview trace --workload fib --size 8 --procs 4 --seed 1           *)

open Cmdliner
open Spr_sptree

(* A user-facing input error (unknown generator/workload/algorithm
   name): report it cleanly on stderr and exit 1 instead of dying with
   an uncaught exception and a backtrace. *)
exception Usage of string

let usage_error what name valid =
  raise
    (Usage (Printf.sprintf "unknown %s %S (valid: %s)" what name (String.concat ", " valid)))

let with_usage f =
  try f ()
  with Usage msg ->
    Printf.eprintf "spview: %s\n" msg;
    1

(* Sim.run and Runtime.run raise [Invalid_argument] on fewer workers. *)
let check_workers flag n =
  if n < 1 then raise (Usage (Printf.sprintf "%s must be at least 1 (got %d)" flag n))

(* ------------------------------------------------------------------ *)
(* tree                                                                *)

let tree_kinds = [ "paper"; "balanced"; "deep"; "forks"; "serial"; "wide"; "random" ]

let gen_tree kind size seed =
  match kind with
  | "paper" -> Paper_example.tree ()
  | "balanced" -> Tree_gen.balanced ~leaves:size
  | "deep" -> Tree_gen.deep_nest ~depth:size
  | "forks" -> Tree_gen.fork_chain ~forks:size
  | "serial" -> Tree_gen.serial_chain ~leaves:size
  | "wide" -> Tree_gen.wide_flat ~leaves:size
  | "random" ->
      Tree_gen.random_tree ~rng:(Spr_util.Rng.create seed) ~leaves:size ~p_prob:0.5
  | other -> usage_error "generator" other tree_kinds

let tree_cmd_run kind size seed labels dag =
  with_usage @@ fun () ->
  let t = gen_tree kind size seed in
  Format.printf "parse tree (%d threads, %d forks, nesting depth %d, span %d):@.  %a@."
    (Sp_tree.leaf_count t) (Sp_tree.fork_count t) (Sp_tree.nesting_depth t) (Sp_tree.span t)
    Sp_tree.pp t;
  if labels then begin
    let eng = Sp_tree.english_order t and heb = Sp_tree.hebrew_order t in
    Format.printf "@.thread : (E, H)@.";
    Array.iteri
      (fun i (leaf : Sp_tree.node) ->
        Format.printf "  u%-4d : (%d, %d)@." i eng.(leaf.Sp_tree.id) heb.(leaf.Sp_tree.id))
      (Sp_tree.leaves t)
  end;
  if dag then begin
    Format.printf "@.computation dag:@.";
    Format.printf "%a" Sp_dag.pp (Sp_dag.of_tree t)
  end;
  0

let gen_arg =
  let doc = "Tree generator: paper, balanced, deep, forks, serial, wide, random." in
  Arg.(value & opt string "paper" & info [ "gen"; "g" ] ~docv:"KIND" ~doc)

let size_arg =
  Arg.(value & opt int 16 & info [ "size"; "n" ] ~docv:"N" ~doc:"Generator size parameter.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let procs_arg = Arg.(value & opt int 4 & info [ "procs"; "p" ] ~docv:"P" ~doc:"Workers.")

let tree_cmd =
  let labels = Arg.(value & flag & info [ "labels" ] ~doc:"Print English/Hebrew orders.") in
  let dag = Arg.(value & flag & info [ "dag" ] ~doc:"Print the computation dag.") in
  Cmd.v
    (Cmd.info "tree" ~doc:"Generate and display an SP parse tree")
    Term.(const tree_cmd_run $ gen_arg $ size_arg $ seed_arg $ labels $ dag)

(* ------------------------------------------------------------------ *)
(* detect                                                              *)

(* Workloads come from the shared registry ({!Spr_workloads.Progs.named})
   so spview, spingest and the capture/replay tests agree on names. *)
let gen_workload kind size seed =
  match Spr_workloads.Progs.find_opt kind with
  | Some gen -> gen ~size ~seed
  | None -> raise (Usage (Spr_workloads.Progs.unknown kind))

let detect_cmd_run kind size seed algo locked =
  with_usage @@ fun () ->
  let p = gen_workload kind size seed in
  let pt = Spr_prog.Prog_tree.of_program p in
  let make =
    match Spr_core.Algorithms.find_opt algo with
    | Some f -> f
    | None -> raise (Usage (Spr_core.Algorithms.unknown algo))
  in
  if locked then begin
    let r = Spr_race.Drivers.detect_serial_locked pt make in
    Format.printf "lock-aware detection (%s): %d race report(s) on locations [%s]@." algo
      (List.length r.Spr_race.Drivers.lock_races)
      (String.concat "; " (List.map string_of_int r.Spr_race.Drivers.racy_locs))
  end
  else begin
    let r = Spr_race.Drivers.detect_serial pt make in
    Format.printf "detection (%s): %d race report(s) on locations [%s], %d SP queries@." algo
      (List.length r.Spr_race.Drivers.races)
      (String.concat "; " (List.map string_of_int r.Spr_race.Drivers.racy_locs))
      r.Spr_race.Drivers.sp_queries;
    List.iteri
      (fun i (race : Spr_race.Detector.race) ->
        if i < 10 then
          Format.printf "  loc %d: t%d (%s) vs t%d (%s)@." race.Spr_race.Detector.loc
            race.Spr_race.Detector.earlier
            (if race.Spr_race.Detector.earlier_write then "W" else "R")
            race.Spr_race.Detector.later
            (if race.Spr_race.Detector.later_write then "W" else "R"))
      r.Spr_race.Drivers.races
  end;
  0

let workload_arg =
  let doc =
    "Workload: dcsum, dcsum-buggy, fib, deep, wide, locked, locked-buggy, random."
  in
  Arg.(value & opt string "dcsum-buggy" & info [ "workload"; "w" ] ~docv:"KIND" ~doc)

let detect_cmd =
  let algo =
    Arg.(
      value & opt string "sp-order"
      & info [ "algo"; "a" ] ~docv:"ALGO"
          ~doc:"SP oracle: sp-order, sp-bags, english-hebrew, offset-span, ...")
  in
  let locked =
    Arg.(value & flag & info [ "locked" ] ~doc:"Use the lock-aware (All-Sets) detector.")
  in
  Cmd.v
    (Cmd.info "detect" ~doc:"Run a determinacy-race detector")
    Term.(const detect_cmd_run $ workload_arg $ size_arg $ seed_arg $ algo $ locked)

(* ------------------------------------------------------------------ *)
(* hybrid                                                              *)

let hybrid_cmd_run kind size seed procs =
  with_usage @@ fun () ->
  check_workers "--procs" procs;
  let p = gen_workload kind size seed in
  Format.printf "workload: %a@." Spr_prog.Fj_program.pp_stats p;
  let h = Spr_hybrid.Sp_hybrid.create p in
  let res =
    Spr_sched.Sim.run ~hooks:(Spr_hybrid.Sp_hybrid.hooks h) ~seed ~procs p
  in
  let st = Spr_hybrid.Sp_hybrid.stats h in
  Format.printf
    "P=%d: virtual time %d, steals %d, traces %d (= 4s+1: %b),@\n\
     local ops %d, global-insert ticks %d, lock-wait ticks %d@." procs res.Spr_sched.Sim.time
    res.Spr_sched.Sim.steals st.Spr_hybrid.Sp_hybrid.traces
    (st.Spr_hybrid.Sp_hybrid.traces = (4 * st.Spr_hybrid.Sp_hybrid.splits) + 1)
    st.Spr_hybrid.Sp_hybrid.local_ops st.Spr_hybrid.Sp_hybrid.global_insert_ticks
    st.Spr_hybrid.Sp_hybrid.lock_wait_ticks;
  0

let hybrid_cmd =
  Cmd.v
    (Cmd.info "hybrid" ~doc:"Simulate SP-hybrid under work stealing")
    Term.(const hybrid_cmd_run $ workload_arg $ size_arg $ seed_arg $ procs_arg)

(* ------------------------------------------------------------------ *)
(* trace — record a run through the observability layer               *)

let trace_cmd_run kind size seed procs out metrics_fmt =
  with_usage @@ fun () ->
  check_workers "--procs" procs;
  (match metrics_fmt with
  | "pretty" | "json" -> ()
  | other -> usage_error "metrics format" other [ "pretty"; "json" ]);
  let p = gen_workload kind size seed in
  (* One flight lane per worker; the lanes share a 2^16-event budget. *)
  let flight =
    Spr_obs.Flight.create ~lanes:procs ~capacity:(max 512 ((1 lsl 16) / procs)) ()
  in
  let m = Spr_obs.Sharded.create () in
  let sink = Spr_obs.Sink.make ~metrics:m ~flight () in
  let r = Spr_race.Drivers.detect_hybrid ~sink ~seed ~procs p in
  let lanes = List.init (Spr_obs.Flight.lanes flight) Fun.id in
  let events = List.concat_map (Spr_obs.Flight.lane_events flight) lanes in
  let dropped =
    List.fold_left (fun acc l -> acc + Spr_obs.Flight.lane_dropped flight l) 0 lanes
  in
  let other_data =
    [
      ("workload", Spr_obs.Json.String kind);
      ("size", Spr_obs.Json.Int size);
      ("seed", Spr_obs.Json.Int seed);
      ("procs", Spr_obs.Json.Int procs);
      ("virtualTime", Spr_obs.Json.Int r.Spr_race.Drivers.sim.Spr_sched.Sim.time);
      ("steals", Spr_obs.Json.Int r.Spr_race.Drivers.sim.Spr_sched.Sim.steals);
      ("races", Spr_obs.Json.Int (List.length r.Spr_race.Drivers.races));
    ]
  in
  let oc = open_out out in
  Spr_obs.Json.to_channel oc (Spr_obs.Trace.to_chrome ~other_data ~dropped events);
  output_char oc '\n';
  close_out oc;
  let snapshot = Spr_obs.Sharded.snapshot m in
  (match metrics_fmt with
  | "json" -> print_endline (Spr_obs.Json.to_string (Spr_obs.Metrics.snapshot_to_json snapshot))
  | _ ->
      Format.printf
        "wrote %s: %d events (%d dropped) — load in chrome://tracing or ui.perfetto.dev@."
        out (List.length events) dropped;
      Format.printf "%a" Spr_obs.Metrics.pp_snapshot snapshot);
  0

let trace_cmd =
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Chrome trace_event output file.")
  in
  let metrics_fmt =
    Arg.(
      value & opt string "pretty"
      & info [ "metrics" ] ~docv:"FMT" ~doc:"Metrics summary format: pretty or json.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Record an instrumented SP-hybrid run as Chrome trace_event JSON plus metrics")
    Term.(const trace_cmd_run $ workload_arg $ size_arg $ seed_arg $ procs_arg $ out $ metrics_fmt)

(* ------------------------------------------------------------------ *)
(* runtime — the same instrumented execution, on real domains          *)

let runtime_cmd_run kind size seed procs spin =
  with_usage @@ fun () ->
  check_workers "--workers" procs;
  let p = gen_workload kind size seed in
  Format.printf "workload: %a@." Spr_prog.Fj_program.pp_stats p;
  let h = Spr_hybrid.Sp_hybrid.create p in
  let res =
    Spr_runtime.Runtime.run ~hooks:(Spr_hybrid.Sp_hybrid.hooks h) ~seed ~spin ~workers:procs p
  in
  let st = Spr_hybrid.Sp_hybrid.stats h in
  Format.printf
    "workers=%d: %.1f ms wall, %d steals (%d attempts), %d threads, traces %d (4s+1: %b)@."
    procs
    (res.Spr_runtime.Runtime.elapsed_s *. 1e3)
    res.Spr_runtime.Runtime.steals res.Spr_runtime.Runtime.steal_attempts
    res.Spr_runtime.Runtime.threads_run st.Spr_hybrid.Sp_hybrid.traces
    (st.Spr_hybrid.Sp_hybrid.traces = (4 * res.Spr_runtime.Runtime.steals) + 1);
  0

let runtime_cmd =
  let procs = Arg.(value & opt int 4 & info [ "workers"; "p" ] ~docv:"P" ~doc:"Domains.") in
  let spin =
    Arg.(
      value & opt int 5_000
      & info [ "spin" ] ~docv:"N"
          ~doc:
            "Busy-loop iterations per instruction of thread cost.  On a \
             single-core machine larger values create the preemption windows \
             in which steals can land.")
  in
  Cmd.v
    (Cmd.info "runtime" ~doc:"Run SP-hybrid on real OCaml domains")
    Term.(const runtime_cmd_run $ workload_arg $ size_arg $ seed_arg $ procs $ spin)

(* ------------------------------------------------------------------ *)
(* stats — metrics exposition and flight-dump decoding                 *)

let stats_cmd_run kind size seed procs fmt flight_file =
  with_usage @@ fun () ->
  (match fmt with
  | "pretty" | "json" | "prom" -> ()
  | other -> usage_error "stats format" other [ "pretty"; "json"; "prom" ]);
  match flight_file with
  | Some file ->
      (* Post-mortem: decode a binary .spr-flight dump (written by
         spfuzz or the bench alloc gate on a failing execution). *)
      let d =
        try Spr_obs.Flight.read_file file with
        | Sys_error e -> raise (Usage e)
        | Failure e -> raise (Usage (file ^ ": " ^ e))
      in
      Format.printf "%a" Spr_obs.Flight.pp_dump d;
      (match d.Spr_obs.Flight.d_snapshot with
      | None -> Format.printf "no metrics snapshot embedded@."
      | Some j -> Format.printf "metrics snapshot: %s@." (Spr_obs.Json.to_string j));
      0
  | None ->
      (* Live run: the instrumented assembly of `spview trace`, recorded
         into the process-wide registry beside the concurrent-OM and
         runtime counters. *)
      check_workers "--procs" procs;
      let p = gen_workload kind size seed in
      let sink = Spr_obs.Sink.make ~metrics:Spr_obs.Sharded.default () in
      ignore (Spr_race.Drivers.detect_hybrid ~sink ~seed ~procs p);
      let snapshot = Spr_obs.Sharded.snapshot Spr_obs.Sharded.default in
      (match fmt with
      | "prom" -> print_string (Spr_obs.Prom.render snapshot)
      | "json" ->
          print_endline (Spr_obs.Json.to_string (Spr_obs.Metrics.snapshot_to_json snapshot))
      | _ ->
          Format.printf "stats: %s n=%d seed=%d procs=%d@." kind size seed procs;
          Format.printf "%a" Spr_obs.Metrics.pp_snapshot snapshot);
      0

let stats_cmd =
  let fmt =
    Arg.(
      value & opt string "pretty"
      & info [ "format"; "f" ] ~docv:"FMT"
          ~doc:
            "Output format: pretty (grouped table), json (flat object), prom (Prometheus \
             text exposition 0.0.4).")
  in
  let flight_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight" ] ~docv:"FILE"
          ~doc:
            "Instead of running a workload, decode a binary .spr-flight post-mortem dump: \
             per-lane event counts by kind plus the embedded final metrics snapshot.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run an instrumented workload and print the merged metrics snapshot (registry + \
          domain-sharded counters), or decode a .spr-flight dump")
    Term.(const stats_cmd_run $ workload_arg $ size_arg $ seed_arg $ procs_arg $ fmt $ flight_file)

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "spview" ~version:"1.0.0"
      ~doc:"Explore on-the-fly series-parallel maintenance (SPAA 2004 reproduction)"
  in
  exit
    (Cmd.eval'
       (Cmd.group info [ tree_cmd; detect_cmd; hybrid_cmd; trace_cmd; runtime_cmd; stats_cmd ]))
