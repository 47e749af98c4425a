(* Ingestion-service validation: the streaming server's capture/replay
   pipeline is pinned differentially against [Drivers.detect_serial] —
   same races in the same order, same racy locations, same SP query
   count — over every named workload generator, over random programs
   on a resident reused server, and with the shadow memory sharded
   across real worker domains or a schedtest-controlled hand-off.
   Each serial differential runs under all three SP oracles (the fused
   order and both clocks); the registry one also covers hand-built
   shapes that stress the clocks' P-node bookkeeping.  Decoder totality: truncated or
   corrupted traces yield [Error] with a frame-located diagnostic,
   never an exception, never a partial result, agree across the
   oracles, and leave the server usable. *)

open Spr_prog
module W = Spr_workloads.Progs
module Fj = Fj_program
module Codec = Spr_ingest.Codec
module Server = Spr_ingest.Server
module Drivers = Spr_race.Drivers
module Control = Spr_schedtest.Control
module Rng = Spr_util.Rng

(* ------------------------------------------------------------------ *)
(* Oracle and comparison plumbing.                                     *)

let oracle p =
  let pt = Prog_tree.of_program p in
  Drivers.detect_serial pt Spr_core.Algorithms.sp_order

let race_repr (r : Spr_race.Detector.race) =
  Printf.sprintf "loc=%d %d(%c)->%d(%c)" r.loc r.earlier
    (if r.earlier_write then 'w' else 'r')
    r.later
    (if r.later_write then 'w' else 'r')

let check_result ctx (want : Drivers.serial_result) (got : Server.program_result) =
  Alcotest.(check (list string))
    (ctx ^ ": races")
    (List.map race_repr want.Drivers.races)
    (List.map race_repr got.Server.races);
  Alcotest.(check (list int)) (ctx ^ ": racy locs") want.Drivers.racy_locs got.Server.racy_locs;
  Alcotest.(check int) (ctx ^ ": sp queries") want.Drivers.sp_queries got.Server.sp_queries

let run_one ?(ctx = "run") srv trace =
  match Server.run_string srv trace with
  | Ok [ r ] -> r
  | Ok rs -> Alcotest.failf "%s: expected 1 program result, got %d" ctx (List.length rs)
  | Error e -> Alcotest.failf "%s: unexpected decode error: %a" ctx Codec.pp_error e

let with_server ?shards ?batch ?oracle ?runner f =
  let srv = Server.create ?shards ?batch ?oracle ?runner () in
  Fun.protect ~finally:(fun () -> Server.close srv) (fun () -> f srv)

let oracles = [ Server.Sp_fused; Server.Hb_vector; Server.Hb_tree ]

let oracle_name = function
  | Server.Sp_fused -> "sp-order-fused"
  | Server.Hb_vector -> "hb-vector"
  | Server.Hb_tree -> "hb-tree"

(* One resident server per oracle, shared by a whole property run. *)
let resident_servers () = List.map (fun o -> (o, Server.create ~oracle:o ())) oracles

let gen_oracle = QCheck2.Gen.oneofl oracles

(* Per-workload sizes keeping each program in the hundreds-to-few-
   thousand-events range (fib/matmul sizes are exponential/cubic). *)
let size_for = function
  | "fib" -> 8
  | "matmul" | "matmul-buggy" -> 8
  | "serial" -> 12
  | "deep" | "locked" | "locked-buggy" -> 16
  | "wide" | "shared-readers" -> 24
  | "dcsum" | "dcsum-buggy" -> 32
  | "random" | "adversarial" -> 60
  | "mergesort" | "mergesort-buggy" -> 64
  | name -> Alcotest.failf "size_for: unknown workload %s" name

(* ------------------------------------------------------------------ *)
(* 1. Capture -> replay differential over the whole registry.          *)

(* Hand-built shapes for the clocks' P-node bookkeeping: every thread
   writes one of two shared cells and reads a third.  Each shape puts
   a P-node's Enter, Mid or Exit where a block or a procedure boundary
   makes it easy to misplace: a block ending in a spawn (whose
   continuation is the canonical tree's synthetic leaf), a child that
   is nothing but a spawn, the implicit sync closing two spawns at
   once, and spawns nested first-in-child two deep. *)
let shapes =
  let build f =
    let b = Fj.Builder.create () in
    let k = ref 0 in
    let run () =
      let i = !k in
      incr k;
      Fj.Run
        (Fj.Builder.thread b
           ~accesses:
             [
               { Fj.loc = i mod 2; write = true; locks = [] };
               { Fj.loc = 2; write = false; locks = [] };
             ]
           ~cost:1 ())
    in
    let proc blocks = Fj.Spawn (Fj.Builder.proc b blocks) in
    Fj.Builder.finish b (Fj.Builder.proc b (f run proc))
  in
  [
    ( "child is a single spawn",
      build (fun run proc -> [ [ run (); proc [ [ proc [ [ run () ] ] ] ] ]; [ run () ] ]) );
    ( "block ends in a spawn",
      build (fun run proc ->
          [ [ run (); proc [ [ proc [ [ run () ] ] ]; [ run () ] ] ]; [ run (); run () ] ]) );
    ( "two spawns then the implicit sync",
      build (fun run proc ->
          [ [ run (); proc [ [ run (); proc [ [ run () ] ]; proc [ [ run () ] ] ] ]; run () ]; [ run () ] ]) );
    ( "spawn-first child nested two deep",
      build (fun run proc ->
          [ [ proc [ [ proc [ [ proc [ [ run () ] ]; run () ] ]; run () ] ]; run () ]; [ run () ] ]) );
  ]

(* Every named workload, plus the hand-built shapes, under each oracle. *)
let registry_roundtrip () =
  let programs =
    List.map (fun (name, gen) -> (name, gen ~size:(size_for name) ~seed:3)) W.named @ shapes
  in
  List.iter
    (fun o ->
      with_server ~oracle:o (fun srv ->
          List.iter
            (fun (name, p) ->
              let ctx = name ^ " / " ^ oracle_name o in
              let got = run_one ~ctx srv (Codec.capture [ p ]) in
              check_result ctx (oracle p) got;
              Alcotest.(check int) (ctx ^ ": accesses") (Fj.access_count p) got.Server.accesses;
              Alcotest.(check int) (ctx ^ ": threads") (Fj.thread_count p) got.Server.threads)
            programs))
    oracles

(* The buggy variants must actually exercise the race path, or the
   differential above proves nothing about reports. *)
let buggy_variants_report () =
  with_server (fun srv ->
      List.iter
        (fun name ->
          let gen = Option.get (W.find_opt name) in
          let p = gen ~size:(size_for name) ~seed:3 in
          let got = run_one ~ctx:name srv (Codec.capture [ p ]) in
          Alcotest.(check bool) (name ^ ": reports races") true (got.Server.races <> []))
        [ "dcsum-buggy"; "mergesort-buggy"; "matmul-buggy"; "locked-buggy" ])

(* ------------------------------------------------------------------ *)
(* 2. Random programs vs the oracle, one resident server throughout.   *)

let print_case (seed, threads, o) = Printf.sprintf "seed %d, %d threads, %s" seed threads (oracle_name o)

let random_matches_oracle =
  let servers = resident_servers () in
  QCheck2.Test.make ~count:240 ~print:print_case
    ~name:"ingest replay matches detect_serial on random programs"
    QCheck2.Gen.(triple (0 -- 1_000_000) (2 -- 60) gen_oracle)
    (fun (seed, threads, o) ->
      let rng = Rng.create seed in
      let p = W.random_prog ~rng ~threads ~locs:8 ~accesses_per_thread:4 () in
      let want = oracle p in
      let got = run_one (List.assoc o servers) (Codec.capture [ p ]) in
      List.map race_repr want.Drivers.races = List.map race_repr got.Server.races
      && want.Drivers.racy_locs = got.Server.racy_locs
      && want.Drivers.sp_queries = got.Server.sp_queries)

let adversarial_matches_oracle =
  let servers = resident_servers () in
  QCheck2.Test.make ~count:120 ~print:print_case
    ~name:"ingest replay matches detect_serial on adversarial shapes"
    QCheck2.Gen.(triple (0 -- 1_000_000) (2 -- 40) gen_oracle)
    (fun (seed, threads, o) ->
      let rng = Rng.create seed in
      let shape =
        match seed mod 4 with
        | 0 -> `Uniform
        | 1 -> `Spawn_heavy
        | 2 -> `Deep_serial
        | _ -> `Wide
      in
      let p = W.random_adversarial ~rng ~threads ~shape () in
      let want = oracle p in
      let got = run_one (List.assoc o servers) (Codec.capture [ p ]) in
      List.map race_repr want.Drivers.races = List.map race_repr got.Server.races
      && want.Drivers.racy_locs = got.Server.racy_locs)

(* ------------------------------------------------------------------ *)
(* 3. Sharded shadow memory: real worker domains, byte-identical.      *)

let sharded_matches_serial () =
  (* A small batch forces many mid-program flushes, so the deferred
     drain really interleaves with decoding. *)
  with_server ~shards:3 ~batch:64 (fun srv ->
      List.iter
        (fun name ->
          let gen = Option.get (W.find_opt name) in
          let p = gen ~size:(size_for name) ~seed:11 in
          let got = run_one ~ctx:name srv (Codec.capture [ p ]) in
          check_result ("sharded " ^ name) (oracle p) got)
        [
          "dcsum-buggy";
          "mergesort-buggy";
          "matmul-buggy";
          "locked";
          "locked-buggy";
          "shared-readers";
          "random";
          "adversarial";
        ])

let sharded_random_matches_serial =
  let srv = Server.create ~shards:4 ~batch:32 () in
  QCheck2.Test.make ~count:40 ~name:"sharded detection matches serial on random programs"
    QCheck2.Gen.(pair (0 -- 1_000_000) (2 -- 50))
    (fun (seed, threads) ->
      let rng = Rng.create seed in
      let p = W.random_prog ~rng ~threads ~locs:8 ~accesses_per_thread:4 () in
      let want = oracle p in
      let got = run_one srv (Codec.capture [ p ]) in
      List.map race_repr want.Drivers.races = List.map race_repr got.Server.races
      && want.Drivers.sp_queries = got.Server.sp_queries)

(* ------------------------------------------------------------------ *)
(* 4. Residency: in-place reset across programs, stable answers.       *)

let resident_reuse () =
  with_server (fun srv ->
      let a = W.mergesort ~buggy:true ~n:64 () in
      let b = W.dc_sum ~leaves:128 () in
      let first = run_one ~ctx:"A" srv (Codec.capture [ a ]) in
      let _middle = run_one ~ctx:"B" srv (Codec.capture [ b ]) in
      let again = run_one ~ctx:"A again" srv (Codec.capture [ a ]) in
      Alcotest.(check (list string))
        "A's races unchanged after B"
        (List.map race_repr first.Server.races)
        (List.map race_repr again.Server.races);
      Alcotest.(check int) "A's queries unchanged" first.Server.sp_queries again.Server.sp_queries;
      let st = Server.stats srv in
      Alcotest.(check int) "3 programs ingested" 3 st.Server.programs;
      Alcotest.(check int)
        "accesses accumulate"
        (2 * Fj.access_count a + Fj.access_count b)
        st.Server.accesses)

(* ------------------------------------------------------------------ *)
(* 5. Multi-program traces: one stream, per-program results.           *)

let multi_program_trace () =
  let progs =
    [
      W.dc_sum ~leaves:32 ();
      W.mergesort ~buggy:true ~n:32 ();
      W.fib ~n:7 ();
      W.matmul ~buggy:true ~n:6 ();
    ]
  in
  let trace = Codec.capture progs in
  with_server (fun srv ->
      match Server.run_string srv trace with
      | Error e -> Alcotest.failf "multi: %a" Codec.pp_error e
      | Ok results ->
          Alcotest.(check int) "result per program" (List.length progs) (List.length results);
          List.iteri
            (fun i ((p, (r : Server.program_result))) ->
              Alcotest.(check int) "index" i r.Server.index;
              check_result (Printf.sprintf "multi[%d]" i) (oracle p) r)
            (List.combine progs results))

let empty_trace () =
  let buf = Buffer.create 16 in
  Codec.write_header buf;
  with_server (fun srv ->
      match Server.run_string srv (Buffer.contents buf) with
      | Ok [] -> ()
      | Ok rs -> Alcotest.failf "header-only trace: %d results" (List.length rs)
      | Error e -> Alcotest.failf "header-only trace: %a" Codec.pp_error e)

(* ------------------------------------------------------------------ *)
(* 6. Decoder totality on malformed input.                             *)

(* The reference trace plus its only two valid cut points: a prefix
   ending exactly after the header or after the first program is
   itself a well-formed (shorter) trace; every other cut must fail. *)
let reference =
  lazy
    (let buf = Buffer.create 1024 in
     Codec.write_header buf;
     let header_end = Buffer.length buf in
     Codec.encode_program buf (W.mergesort ~buggy:true ~n:32 ());
     let first_end = Buffer.length buf in
     Codec.encode_program buf (W.locked_counter ~mode:`Common_lock ~leaves:8 ());
     (Buffer.contents buf, [ header_end; first_end ]))

let reference_trace = lazy (fst (Lazy.force reference))

let truncation_is_an_error =
  let srv = Server.create () in
  QCheck2.Test.make ~count:120 ~name:"every truncation yields Error, server stays usable"
    QCheck2.Gen.(0 -- 10_000)
    (fun cut ->
      let full, boundaries = Lazy.force reference in
      let cut = cut mod String.length full in
      let prefix = String.sub full 0 cut in
      let truncated_ok =
        match Server.run_string srv prefix with
        | Error e -> (not (List.mem cut boundaries)) && e.Codec.offset <= String.length prefix
        | Ok rs -> List.mem cut boundaries && List.length rs = (if cut = List.hd boundaries then 0 else 1)
      in
      (* The error must not wedge the resident server. *)
      let recovers = match Server.run_string srv full with Ok _ -> true | Error _ -> false in
      truncated_ok && recovers)

(* A mutant (1-3 overwritten bytes) goes through every oracle and a
   2-shard server: each must return the identical [Error] (same
   offset, frame and message) or the identical per-program results,
   never raise, and then accept the clean trace again.  The sharded
   server's worker pool is shut down once the property has run. *)
let corruption_never_escapes =
  let sharded = Server.create ~shards:2 ~batch:16 () in
  let servers = resident_servers () @ [ (Server.Sp_fused, sharded) ] in
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200
         ~print:(fun muts ->
           String.concat ", " (List.map (fun (at, byte) -> Printf.sprintf "%d:=%d" at byte) muts))
         ~name:"byte corruption yields Ok or Error, never an exception"
         QCheck2.Gen.(list_size (1 -- 3) (pair (0 -- 1_000_000) (0 -- 255)))
         (fun muts ->
           let full = Lazy.force reference_trace in
           let b = Bytes.of_string full in
           List.iter (fun (at, byte) -> Bytes.set b (at mod String.length full) (Char.chr byte)) muts;
           let mutant = Bytes.to_string b in
           let outcomes =
             List.map
               (fun (_, srv) ->
                 match Server.run_string srv mutant with
                 | r -> Some r
                 | exception _ -> None)
               servers
           in
           let first = List.hd outcomes in
           first <> None
           && List.for_all (( = ) first) outcomes
           (* And again: no lingering poisoned state. *)
           && List.for_all
                (fun (_, srv) -> match Server.run_string srv full with Ok _ -> true | Error _ -> false)
                servers))
  in
  (name, speed, fun () -> Fun.protect ~finally:(fun () -> Server.close sharded) run)

let diagnostics_locate_the_frame () =
  with_server (fun srv ->
      (match Server.run_string srv "not a trace at all" with
      | Error e ->
          Alcotest.(check int) "bad magic at offset 0" 0 e.Codec.offset;
          Alcotest.(check string) "bad magic message" "bad magic (not a .spr-trace file)" e.Codec.msg
      | Ok _ -> Alcotest.fail "garbage accepted");
      let full = Lazy.force reference_trace in
      (* Flip the PROG_END trailer's event count: the last varint byte
         of the trace. *)
      let b = Bytes.of_string full in
      let last = Bytes.length b - 1 in
      Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 1));
      match Server.run_string srv (Bytes.to_string b) with
      | Error e ->
          Alcotest.(check bool)
            "event-count mismatch diagnosed" true
            (String.length e.Codec.msg >= 20
            && String.sub e.Codec.msg 0 20 = "event-count mismatch")
      | Ok _ -> Alcotest.fail "corrupted trailer accepted")

(* ------------------------------------------------------------------ *)
(* 7. schedtest-controlled shard hand-off.                             *)

let controlled_handoff () =
  let p = W.random_prog ~rng:(Rng.create 5) ~threads:40 ~locs:8 ~accesses_per_thread:4 () in
  let want = oracle p in
  let trace = Codec.capture [ p ] in
  for seed = 0 to 9 do
    let outcomes = ref [] in
    let runner tasks =
      let r = Control.run (Control.Random seed) ~tasks:(Array.to_list tasks) in
      outcomes := r.Control.outcome :: !outcomes;
      (* [Control.run] collects task exceptions; surface them as the
         pool would, so a faulting drain cannot pass with partial
         verdicts. *)
      match r.Control.exns with (_, e) :: _ -> raise e | [] -> ()
    in
    with_server ~shards:3 ~batch:16 ~runner (fun srv ->
        let got = run_one ~ctx:(Printf.sprintf "seed %d" seed) srv trace in
        check_result (Printf.sprintf "controlled seed %d" seed) want got;
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: flushes completed" seed)
          true
          (!outcomes <> [] && List.for_all (fun o -> o = Control.Completed) !outcomes))
  done

(* ------------------------------------------------------------------ *)
(* Shard.Pool faults: a raising thunk — on a worker or on the
   coordinator — makes [run] raise after every other thunk finished,
   never hang, and the pool keeps working.                             *)

exception Planted of int

let pool_survives_raising_thunks () =
  let pool = Spr_ingest.Shard.Pool.create ~workers:2 in
  let ran = Array.init 3 (fun _ -> Atomic.make 0) in
  let good i () = Atomic.incr ran.(i) in
  let expect_planted ctx slot thunks =
    match Spr_ingest.Shard.Pool.run pool thunks with
    | () -> Alcotest.failf "%s: run returned although thunk %d raised" ctx slot
    | exception Planted s -> Alcotest.(check int) (ctx ^ ": raised by") slot s
  in
  (* A worker slot raises: the coordinator still reaches the barrier. *)
  expect_planted "worker" 1 [| good 0; (fun () -> raise (Planted 1)); good 2 |];
  Alcotest.(check (list int)) "others ran" [ 1; 0; 1 ] (Array.to_list (Array.map Atomic.get ran));
  (* The coordinator's slot raises while a worker is still busy: run
     must not return before that worker is done. *)
  let started = Atomic.make false and finished = Atomic.make false in
  let slow () =
    while not (Atomic.get started) do
      Domain.cpu_relax ()
    done;
    for _ = 1 to 200_000 do
      Domain.cpu_relax ()
    done;
    Atomic.set finished true
  in
  expect_planted "coordinator" 0
    [| (fun () -> Atomic.set started true; raise (Planted 0)); slow; good 2 |];
  Alcotest.(check bool) "worker finished before run raised" true (Atomic.get finished);
  (* Healthy round afterwards, then a clean join. *)
  Spr_ingest.Shard.Pool.run pool [| good 0; good 1; good 2 |];
  Alcotest.(check (list int)) "pool still works" [ 2; 1; 3 ]
    (Array.to_list (Array.map Atomic.get ran));
  Spr_ingest.Shard.Pool.shutdown pool

(* The server side of the same fault: a drain that raises surfaces as
   an [Error] located at the flush, and the server's next trace gets
   exactly the verdicts a fresh server gives. *)
let drain_fault_is_an_error () =
  let p = W.random_prog ~rng:(Rng.create 7) ~threads:40 ~locs:8 ~accesses_per_thread:4 () in
  let trace = Codec.capture [ p ] in
  let armed = ref true in
  let runner tasks =
    if !armed then begin
      armed := false;
      raise (Planted 0)
    end;
    Array.iter (fun f -> f ()) tasks
  in
  let fresh = with_server ~shards:2 ~batch:16 (fun srv -> run_one ~ctx:"fresh" srv trace) in
  with_server ~shards:2 ~batch:16 ~runner (fun srv ->
      (match Server.run_string srv trace with
      | Ok _ -> Alcotest.fail "raising drain returned Ok"
      | Error e ->
          let prefix = "shard drain failed: " in
          let n = String.length prefix in
          Alcotest.(check string)
            "message" prefix
            (String.sub e.Codec.msg 0 (min n (String.length e.Codec.msg)));
          Alcotest.(check bool) "located mid-trace" true
            (e.Codec.frame > 0 && e.Codec.offset > 0 && e.Codec.offset < String.length trace));
      let again = run_one ~ctx:"after fault" srv trace in
      check_result "after fault" (oracle p) again;
      Alcotest.(check bool) "identical to a fresh server" true (again = fresh))

(* The same fault under PCT-scheduled hand-offs: on the first flush,
   one shard's drain raises after its real work.  The controller must
   still complete the round, the server must report the located
   [Error], and its next trace must match a fresh server's. *)
let pct_drain_fault_is_an_error () =
  let p = W.random_prog ~rng:(Rng.create 9) ~threads:40 ~locs:8 ~accesses_per_thread:4 () in
  let trace = Codec.capture [ p ] in
  for seed = 0 to 11 do
    let ctx = Printf.sprintf "pct seed %d" seed in
    let shards = 2 + (seed mod 2) in
    let outcomes = ref [] in
    let armed = ref true in
    let runner tasks =
      let tasks = Array.to_list tasks in
      let tasks =
        if !armed then begin
          armed := false;
          List.mapi
            (fun i f -> if i = seed mod shards then fun () -> f (); raise (Planted i) else f)
            tasks
        end
        else tasks
      in
      let r = Control.run (Control.Pct { seed; depth = 3; steps = 200 }) ~tasks in
      outcomes := r.Control.outcome :: !outcomes;
      match r.Control.exns with (_, e) :: _ -> raise e | [] -> ()
    in
    let fresh = with_server ~shards ~batch:16 (fun srv -> run_one ~ctx srv trace) in
    with_server ~shards ~batch:16 ~runner (fun srv ->
        (match Server.run_string srv trace with
        | Ok _ -> Alcotest.failf "%s: raising drain returned Ok" ctx
        | Error e ->
            let prefix = "shard drain failed: " in
            let n = String.length prefix in
            Alcotest.(check string)
              (ctx ^ ": message") prefix
              (String.sub e.Codec.msg 0 (min n (String.length e.Codec.msg))));
        let again = run_one ~ctx srv trace in
        Alcotest.(check bool) (ctx ^ ": identical to a fresh server") true (again = fresh);
        Alcotest.(check bool)
          (ctx ^ ": every round completed")
          true
          (!outcomes <> [] && List.for_all (fun o -> o = Control.Completed) !outcomes))
  done

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "spr_ingest"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "registry differential" `Quick registry_roundtrip;
          Alcotest.test_case "buggy variants report" `Quick buggy_variants_report;
          Alcotest.test_case "multi-program trace" `Quick multi_program_trace;
          Alcotest.test_case "header-only trace" `Quick empty_trace;
          QCheck_alcotest.to_alcotest random_matches_oracle;
          QCheck_alcotest.to_alcotest adversarial_matches_oracle;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "registry differential" `Quick sharded_matches_serial;
          Alcotest.test_case "controlled hand-off" `Quick controlled_handoff;
          Alcotest.test_case "pool survives raising thunks" `Quick pool_survives_raising_thunks;
          Alcotest.test_case "drain fault is an Error" `Quick drain_fault_is_an_error;
          Alcotest.test_case "drain fault under PCT" `Quick pct_drain_fault_is_an_error;
          QCheck_alcotest.to_alcotest sharded_random_matches_serial;
        ] );
      ( "resident",
        [ Alcotest.test_case "in-place reuse" `Quick resident_reuse ] );
      ( "decoder",
        [
          Alcotest.test_case "diagnostics locate the frame" `Quick diagnostics_locate_the_frame;
          QCheck_alcotest.to_alcotest truncation_is_an_error;
          corruption_never_escapes;
        ] );
    ]
