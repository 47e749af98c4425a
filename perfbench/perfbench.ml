(* The race-detection benchmark.

   One process is one closed-loop client: each program's trace is its
   own [Server.run_string ~collect:true] call, and the next program is
   submitted only after the previous verdicts are back and checked
   against the reference.  [--trace 0] prints the end-to-end metrics;
   [--trace 1] replays the same programs layer by layer, timing calls
   into each layer's public functions, and prints the per-layer
   metrics.  README.md has the workloads and the layer -> end-to-end
   map; run.py builds this program and wraps it. *)

module Fj = Spr_prog.Fj_program
module Pt = Spr_prog.Prog_tree
module Tree = Spr_sptree.Sp_tree
module W = Spr_workloads.Progs
module Rng = Spr_util.Rng
module V = Spr_util.Varint
module Vec = Spr_util.Vec
module Stats = Spr_util.Stats
module Spf = Spr_core.Sp_order_fused
module Om = Spr_om.Om_fused
module D = Spr_race.Detector
module Drv = Spr_race.Drivers
module Codec = Spr_ingest.Codec
module Server = Spr_ingest.Server
module Shard = Spr_ingest.Shard
module Sharded = Spr_obs.Sharded

let now = Unix.gettimeofday

let median xs = Stats.median (Array.of_list xs)

let ratio a b = if b = 0. then 0. else a /. b

let sum_int a = Array.fold_left ( + ) 0 a

(* --- Host speed --------------------------------------------------- *)

(* On a virtual machine that shares its host, the other guests' load
   changes how fast the same code runs by up to 2x over minutes.  A
   fixed core kernel (xorshift into a 32 KiB table, so it never leaves
   L1) is timed in short slices between the measured passes; every time
   the benchmark reports is scaled by [reference_core_ns] over the
   median slice, i.e. to a core on which the kernel takes 2.8 ns per
   step, what it takes on an idle host (README.md, "Host speed"). *)
let reference_core_ns = 2.8

let kernel_table = Array.make 4096 0

let core_kernel steps =
  let x = ref 88172645463325252 in
  let t0 = now () in
  for _ = 1 to steps do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = !x land 4095 in
    kernel_table.(j) <- kernel_table.(j) + 1
  done;
  (now () -. t0) *. 1e9 /. float_of_int steps

let slices = ref []

let slice () = slices := core_kernel (1 lsl 19) :: !slices

let slice_ns () = median !slices

let scale () = reference_core_ns /. slice_ns ()

(* --- Workloads ---------------------------------------------------- *)

type size = Full | Smoke

let workloads = [ "spmix"; "clean-access"; "fork-heavy" ]

(* spmix is [Ingest_bench.spmix] unchanged, so its figures continue
   BENCH_ingest.json; the seed drives its random programs.  At full
   size every workload yields >= 100 programs, which gives the
   per-program p90 >= 10 samples beyond it in a single pass. *)
let spmix size ~seed =
  let events = match size with Full -> 1_400_000 | Smoke -> 60_000 in
  Array.of_list (Spr_ingest.Ingest_bench.spmix ~events ~seed)

(* spmix with the racy random program swapped for matmul: race-free
   and access-dense.  The seed draws the reduction and fan-out sizes
   around spmix's (768 leaves, 512 readers), so that their latencies
   overlap: with four fixed sizes the per-program median would sit in
   the gap between two clusters and swing with the slightest noise. *)
let clean_access size ~seed =
  let n = match size with Full -> 100 | Smoke -> 8 in
  let rng = Rng.create seed in
  Array.init n (fun i ->
      match i mod 4 with
      | 0 -> W.dc_sum ~leaves:(640 + Rng.int rng 257) ~grain:12 ()
      | 1 -> W.mergesort ~n:1024 ~grain:32 ()
      | 2 -> W.shared_readers ~readers:(448 + Rng.int rng 129) ~reads:24 ()
      | _ -> W.matmul ~n:32 ~grain:4 ())

(* Spawn-dense random programs with at most one access per thread over
   a location space much wider than the accesses: about six frames per
   access, so the structure (OM inserts, relabels, frame dispatch)
   dominates and the shadow checks are cheap. *)
let fork_heavy size ~seed =
  let n, threads = match size with Full -> (120, 2048) | Smoke -> (8, 256) in
  let rng = Rng.create seed in
  Array.init n (fun _ ->
      W.random_prog ~rng ~threads ~spawn_prob:0.85 ~locs:(1 lsl 14)
        ~accesses_per_thread:1 ())

let generate size name ~seed =
  match name with
  | "spmix" -> spmix size ~seed
  | "clean-access" -> clean_access size ~seed
  | _ -> fork_heavy size ~seed

(* The same fork/join structure with every access removed: what the
   server's structural path costs on its own. *)
let strip (p : Fj.t) =
  let b = Fj.Builder.create () in
  let rec proc (pr : Fj.proc) =
    Fj.Builder.proc b
      (Array.to_list (Array.map (fun blk -> Array.to_list (Array.map item blk)) pr.Fj.blocks))
  and item = function
    | Fj.Run u -> Fj.Run (Fj.Builder.thread b ~cost:u.Fj.cost ())
    | Fj.Spawn c -> Fj.Spawn (proc c)
  in
  Fj.Builder.finish b (proc (Fj.main p))

(* Accesses in serial execution order (the order the trace carries
   them), two ints each: tid, then [loc * 2 + write]. *)
let access_stream (p : Fj.t) =
  let v = Vec.create () in
  let rec proc (pr : Fj.proc) = Array.iter (Array.iter item) pr.Fj.blocks
  and item = function
    | Fj.Run u ->
        Array.iter
          (fun (a : Fj.access) ->
            Vec.push v u.Fj.tid;
            Vec.push v ((a.Fj.loc lsl 1) lor if a.Fj.write then 1 else 0))
          u.Fj.accesses
    | Fj.Spawn c -> proc c
  in
  proc (Fj.main p);
  Vec.to_array v

(* --- Verdict checking --------------------------------------------- *)

(* Every timed call is checked against [Drivers.detect_serial_fused],
   computed untimed before set-up: races in order, racy locations and
   the SP query count.  Body-frame counts must repeat exactly across
   calls and paths.  A program fails when any call on it returns an
   [Error] or a different verdict. *)
type check = {
  reference : Drv.serial_result array;
  accesses : int array;
  events : int array;  (** body frames, learnt from the first call; -1 before *)
  failed : bool array;
  mutable calls : int;
}

let make_check programs =
  {
    reference = Array.map Drv.detect_serial_fused programs;
    accesses = Array.map Fj.access_count programs;
    events = Array.make (Array.length programs) (-1);
    failed = Array.make (Array.length programs) false;
    calls = 0;
  }

let same_verdict (r : Drv.serial_result) races racy_locs sp_queries =
  races = r.Drv.races && racy_locs = r.Drv.racy_locs && sp_queries = r.Drv.sp_queries

let fail ck i = ck.failed.(i) <- true

let check_events ck i events =
  if ck.events.(i) < 0 then ck.events.(i) <- events;
  if ck.events.(i) <> events then fail ck i

let check_server ck i = function
  | Ok [ (r : Server.program_result) ] ->
      ck.calls <- ck.calls + 1;
      check_events ck i r.Server.events;
      if
        r.Server.accesses <> ck.accesses.(i)
        || not
             (same_verdict ck.reference.(i) r.Server.races r.Server.racy_locs
                r.Server.sp_queries)
      then fail ck i
  | Ok _ | Error _ ->
      ck.calls <- ck.calls + 1;
      fail ck i

let check_fused ck i f =
  ck.calls <- ck.calls + 1;
  let r = Drv.Fused.result f in
  if not (same_verdict ck.reference.(i) r.Drv.races r.Drv.racy_locs r.Drv.sp_queries) then
    fail ck i

(* The planted negative control: drop one race from the first racy
   reference, so exactly that program must fail. *)
let drop_one_race ck =
  let rec go i =
    if i >= Array.length ck.reference then failwith "--plant-drop-race: no racy program"
    else
      match ck.reference.(i).Drv.races with
      | _ :: rest -> ck.reference.(i) <- { (ck.reference.(i)) with Drv.races = rest }
      | [] -> go (i + 1)
  in
  go 0

(* --- Set-up ------------------------------------------------------- *)

type ready = {
  traces : string array;
  serial : Server.t;
  sharded : Server.t;
  fused : Drv.Fused.t array;
}

let close r =
  Server.close r.serial;
  Server.close r.sharded

let setup_repeats = 15

(* Set-up is everything a client pays before the first call: capturing
   each program's trace, creating both servers (the sharded one spawns
   its worker domain) and the in-process pipelines.  Timed
   [setup_repeats] times; returns the last set-up with the median total
   and the median capture share. *)
let timed_setup programs =
  let rec go k totals captures =
    Gc.full_major ();
    slice ();
    let t0 = now () in
    let traces = Array.map (fun p -> Codec.capture [ p ]) programs in
    let t1 = now () in
    let serial = Server.create () in
    let sharded = Server.create ~shards:2 () in
    let fused = Array.map Drv.Fused.create programs in
    let t2 = now () in
    let r = { traces; serial; sharded; fused } in
    let totals = (t2 -. t0) :: totals and captures = (t1 -. t0) :: captures in
    if k <= 1 then (r, median totals, median captures)
    else begin
      close r;
      go (k - 1) totals captures
    end
  in
  go setup_repeats [] []

(* --- Passes ------------------------------------------------------- *)

(* One closed-loop pass of [Server.run_string ~collect:true] over every
   program; returns the summed call time. *)
let server_pass ck srv traces =
  let total = ref 0. in
  Array.iteri
    (fun i s ->
      let t0 = now () in
      let res = Server.run_string ~collect:true srv s in
      total := !total +. (now () -. t0);
      check_server ck i res)
    traces;
  !total

(* Run [round] until [seconds] have passed, at least [min_rounds]
   times, after one untimed warm-up round.  A full major collection
   between rounds keeps one round's garbage from piling onto the next,
   so the peak heap measures the working set, not how far the major
   GC happens to lag after a given run length. *)
let min_rounds = 3

let rounds ~seconds round =
  ignore (round ());
  let t0 = now () in
  let rec go acc k =
    if k >= min_rounds && now () -. t0 >= seconds then List.rev acc
    else begin
      Gc.full_major ();
      go (round () :: acc) (k + 1)
    end
  in
  go [] 0

(* --- End-to-end run (tracing off) --------------------------------- *)

type e2e = {
  serial_ns : float;
  p50_ms : float;
  p90_ms : float;
  inproc_ns : float;
  setup_s : float;
}

(* A round is one closed-loop pass over every program on the serial
   server, then one in-process pass, each after a host-speed slice.
   Each program's time is its best over the rounds: the other guests'
   load comes in bursts shorter than a round, and a total or median
   over rounds keeps a share of them that changes from run to run.  The
   best times are then scaled to the reference core ([scale]), which
   takes out the slower, longer swings.  The 2-shard server's time
   repeats too poorly on a 2-core box to gate on (README.md); here its
   verdicts are checked once, and its time is the
   [shard.ingest_ns_per_access] layer metric. *)
let end_to_end ~seconds programs ck =
  let r, setup_s, _ = timed_setup programs in
  let n = Array.length programs in
  ignore (server_pass ck r.sharded r.traces);
  let round () =
    let lat = Array.make n 0. and inproc = Array.make n 0. in
    slice ();
    Array.iteri
      (fun i s ->
        let t0 = now () in
        let res = Server.run_string ~collect:true r.serial s in
        lat.(i) <- now () -. t0;
        check_server ck i res)
      r.traces;
    slice ();
    Array.iteri
      (fun i f ->
        let t0 = now () in
        Drv.Fused.run f;
        inproc.(i) <- now () -. t0;
        check_fused ck i f)
      r.fused;
    (lat, inproc)
  in
  let rs = rounds ~seconds round in
  close r;
  let best pick = Array.init n (fun i -> List.fold_left (fun b x -> min b (pick x).(i)) infinity rs) in
  let k = scale () in
  let lat = Array.map (fun t -> t *. k) (best fst) and inproc = best snd in
  let per_access a = Array.fold_left ( +. ) 0. a *. 1e9 /. float_of_int (sum_int ck.accesses) in
  {
    serial_ns = per_access lat;
    p50_ms = Stats.quantile lat 0.5 *. 1e3;
    p90_ms = Stats.quantile lat 0.9 *. 1e3;
    inproc_ns = per_access inproc *. k;
    setup_s = setup_s *. k;
  }

(* --- Traced run: one layer at a time ------------------------------ *)


let time f =
  let t0 = now () in
  f ();
  now () -. t0

(* A [Varint.get] loop over a whole trace: the codec's decode cost with
   no dispatch behind it. *)
let scan s =
  let pos = ref 0 in
  Codec.check_header s pos;
  let len = String.length s in
  let acc = ref 0 in
  while !pos < len do
    acc := !acc lxor V.get s pos
  done;
  ignore (Sys.opaque_identity !acc)

(* What the SP layer sees of one program, recorded once in set-up from
   its parse tree: the walk's Enter calls as (parent, left, right * 2 +
   parallel) triples, each thread's leaf, and every SP query the
   detector puts to the order, as a packed (executed leaf, current
   leaf) pair with the order's answer. *)
type sp_log = {
  nodes : int;
  root : int;
  enters : int array;
  leaves : int array;
  queries : int array;
  answers : bool array;
}

let pair_mask = (1 lsl 31) - 1

let enter_log tree =
  let v = Vec.create () in
  Tree.iter_events tree (function
    | Tree.Enter { Tree.id; shape = Tree.Internal { kind; left; right }; _ } ->
        Vec.push v id;
        Vec.push v left.Tree.id;
        Vec.push v ((right.Tree.id lsl 1) lor if kind = Tree.Parallel then 1 else 0)
    | _ -> ());
  Vec.to_array v

(* The walk's Enter calls, replayed through the raw-id API. *)
let replay_enters st log =
  Spf.reset st ~nodes:log.nodes ~root:log.root;
  let e = log.enters in
  let k = ref 0 in
  while !k < Array.length e do
    let r = e.(!k + 2) in
    Spf.enter st ~parent:e.(!k) ~left:e.(!k + 1) ~right:(r lsr 1) ~parallel:(r land 1 = 1);
    k := !k + 3
  done

let replay_queries st q =
  let yes = ref 0 in
  for k = 0 to Array.length q - 1 do
    let x = q.(k) in
    if Spf.precedes_id st (x lsr 31) (x land pair_mask) then incr yes
  done;
  ignore (Sys.opaque_identity !yes)

let run_stream det stream =
  let j = ref 0 in
  while !j < Array.length stream do
    let a = stream.(!j + 1) in
    D.access_raw det ~current:stream.(!j) ~loc:(a lsr 1) ~write:(a land 1 = 1);
    j := !j + 2
  done

(* A detector grown on demand and rewound per program, the way the
   server keeps its own. *)
type det_slot = {
  oracle : executed:int -> current:int -> bool;
  mutable det : D.t;
  mutable locs : int;
}

let det_slot oracle = { oracle; det = D.create ~locs:1 ~precedes:oracle (); locs = 1 }

let rewind slot program =
  let locs = D.max_loc program + 1 in
  if locs > slot.locs then begin
    slot.det <- D.create ~locs ~precedes:slot.oracle ();
    slot.locs <- locs
  end
  else D.reset slot.det

(* The replays reuse their structures across programs, so none of them
   pays for fresh memory.  [real] asks the replayed order; [stub]
   returns the recorded answers in turn, which leaves the detector's
   own work (shadow cells, race recording) and an array read. *)
type replay = {
  st : Spf.t;
  leaf : int array ref;
  answers : bool array ref;
  next : int ref;
  real : det_slot;
  stub : det_slot;
}

let make_replay () =
  let st = Spf.create_raw () and leaf = ref [||] in
  let answers = ref [||] and next = ref 0 in
  let real ~executed ~current =
    let l = !leaf in
    Spf.precedes_id st l.(executed) l.(current)
  in
  let stub ~executed:_ ~current:_ =
    let k = !next in
    next := k + 1;
    !answers.(k)
  in
  {
    st;
    leaf;
    answers;
    next;
    real = det_slot real;
    stub = det_slot stub;
  }

let record_sp_log rp program stream =
  let pt = Pt.of_program program in
  let tree = Pt.tree pt in
  let leaves =
    Array.init (Fj.thread_count program) (fun tid -> (Pt.leaf_of_thread pt tid).Tree.id)
  in
  let log0 =
    {
      nodes = Tree.node_count tree;
      root = (Tree.root tree).Tree.id;
      enters = enter_log tree;
      leaves;
      queries = [||];
      answers = [||];
    }
  in
  replay_enters rp.st log0;
  let q = Vec.create () and ans = Vec.create () in
  let precedes ~executed ~current =
    let a = leaves.(executed) and b = leaves.(current) in
    let yes = Spf.precedes_id rp.st a b in
    Vec.push q ((a lsl 31) lor b);
    Vec.push ans yes;
    yes
  in
  run_stream (D.create ~locs:(D.max_loc program + 1) ~precedes ()) stream;
  { log0 with queries = Vec.to_array q; answers = Vec.to_array ans }

(* Seconds (or words, counts) summed over one round's programs. *)
type layer_round = {
  mutable untraced : float;  (** serial run_string *)
  mutable traced : float;  (** the same call inside a span *)
  mutable minor_words : float;  (** inside the spans *)
  mutable drive : float;
  mutable scan_full : float;
  mutable scan_stripped : float;
  mutable stripped : float;
  mutable walk : float;  (** Driver.run over the parse tree *)
  mutable enter : float;  (** the same Enter calls through the raw API *)
  mutable relabels : int;
  mutable inserts : int;
  mutable precedes : float;
  mutable detect : float;  (** real oracle *)
  mutable detect_words : float;
  mutable detect_races : int;
  mutable detect_self : float;  (** recorded answers *)
  mutable sharded : float;
  mutable busy : float;
  mutable wait : float;
  mutable flushes : int;
  mutable shard_accesses : int array;
  mutable fused_words : float;
}

let zero_round () =
  {
    untraced = 0.;
    traced = 0.;
    minor_words = 0.;
    drive = 0.;
    scan_full = 0.;
    scan_stripped = 0.;
    stripped = 0.;
    walk = 0.;
    enter = 0.;
    relabels = 0;
    inserts = 0;
    precedes = 0.;
    detect = 0.;
    detect_words = 0.;
    detect_races = 0;
    detect_self = 0.;
    sharded = 0.;
    busy = 0.;
    wait = 0.;
    flushes = 0;
    shard_accesses = [||];
    fused_words = 0.;
  }

type shard_probe = {
  pool : Shard.Pool.pool;
  srv : Server.t;
  busy : float ref;
  wait : float ref;
}

(* A 2-shard server whose drains run on our own pool, through a runner
   that times each drain thunk and the barrier around them: busy is the
   thunk's own time, wait is the rest of the flush's wall time. *)
let shard_probe () =
  let pool = Shard.Pool.create ~workers:1 in
  let busy = ref 0. and wait = ref 0. in
  let starts = Array.make 2 0. and ends = Array.make 2 0. in
  let runner thunks =
    let wrapped =
      Array.mapi
        (fun i f () ->
          starts.(i) <- now ();
          f ();
          ends.(i) <- now ())
        thunks
    in
    let wall = time (fun () -> Shard.Pool.run pool wrapped) in
    Array.iteri
      (fun i _ ->
        let b = ends.(i) -. starts.(i) in
        busy := !busy +. b;
        wait := !wait +. (wall -. b))
      thunks
  in
  { pool; srv = Server.create ~shards:2 ~runner (); busy; wait }

let shard_counters =
  Array.init 2 (fun i ->
      Sharded.counter Sharded.default (Printf.sprintf "ingest/shard%d/accesses" i))

(* SP maintenance, SP queries and the detector on one program, each
   replayed right after the others. *)
let replay_program ck (rp : replay) x i program ~stream ~log =
  let tree = Pt.tree (Pt.of_program program) in
  Spf.reset rp.st ~nodes:log.nodes ~root:log.root;
  let inst = Spr_core.Sp_maintainer.Instance ((module Spf), rp.st) in
  x.walk <- x.walk +. time (fun () -> Spr_core.Driver.run tree inst);
  x.enter <- x.enter +. time (fun () -> replay_enters rp.st log);
  let eng = Om.stats_eng (Spf.om rp.st) and heb = Om.stats_heb (Spf.om rp.st) in
  x.relabels <- x.relabels + eng.relabel_passes + heb.relabel_passes;
  x.inserts <- x.inserts + eng.inserts + heb.inserts;
  x.precedes <- x.precedes +. time (fun () -> replay_queries rp.st log.queries);
  let verdict det =
    if
      not (same_verdict ck.reference.(i) (D.races det) (D.racy_locs det) (D.query_count det))
    then fail ck i
  in
  rp.leaf := log.leaves;
  rewind rp.real program;
  let w0 = Gc.minor_words () in
  x.detect <- x.detect +. time (fun () -> run_stream rp.real.det stream);
  x.detect_words <- x.detect_words +. (Gc.minor_words () -. w0);
  x.detect_races <- x.detect_races + D.race_count rp.real.det;
  verdict rp.real.det;
  rp.answers := log.answers;
  rp.next := 0;
  rewind rp.stub program;
  x.detect_self <- x.detect_self +. time (fun () -> run_stream rp.stub.det stream);
  verdict rp.stub.det

(* The server's passes go program after program, as in production: a
   server called twice in a row on one racy program runs the second
   call slower.  The traced and untraced passes swap places every
   round, so their order cancels out of the overhead. *)
let layer_round ck programs r rp ~stripped ~streams ~logs probe ~flip =
  let x = zero_round () in
  slice ();
  let untraced () = x.untraced <- server_pass ck r.serial r.traces in
  let traced () =
    Array.iteri
      (fun i s ->
        let t0 = now () in
        let w0 = Gc.minor_words () in
        let res = Server.run_string ~collect:true r.serial s in
        let w1 = Gc.minor_words () in
        x.traced <- x.traced +. (now () -. t0);
        x.minor_words <- x.minor_words +. (w1 -. w0);
        check_server ck i res)
      r.traces
  in
  if flip then begin
    traced ();
    untraced ()
  end
  else begin
    untraced ();
    traced ()
  end;
  x.drive <- time (fun () -> Array.iter (Server.drive r.serial) r.traces);
  x.scan_full <- time (fun () -> Array.iter scan r.traces);
  x.scan_stripped <- time (fun () -> Array.iter scan stripped);
  Array.iteri
    (fun i s ->
      let res = ref (Ok []) in
      x.stripped <-
        x.stripped +. time (fun () -> res := Server.run_string ~collect:true r.serial s);
      match !res with
      | Ok [ (p : Server.program_result) ]
        when p.Server.races = [] && p.Server.events = ck.events.(i) - ck.accesses.(i) -> ()
      | _ -> fail ck i)
    stripped;
  Array.iteri
    (fun i program -> replay_program ck rp x i program ~stream:streams.(i) ~log:logs.(i))
    programs;
  (* The 2-shard server through the timing runner. *)
  let flushes0 = (Server.stats probe.srv).Server.flushes in
  let acc0 = Array.map Sharded.read shard_counters in
  let busy0 = !(probe.busy) and wait0 = !(probe.wait) in
  x.sharded <- server_pass ck probe.srv r.traces;
  x.shard_accesses <- Array.mapi (fun i c -> Sharded.read c - acc0.(i)) shard_counters;
  x.busy <- !(probe.busy) -. busy0;
  x.wait <- !(probe.wait) -. wait0;
  x.flushes <- (Server.stats probe.srv).Server.flushes - flushes0;
  (* The in-process pipeline's allocation per run. *)
  let w0 = Gc.minor_words () in
  Array.iter Drv.Fused.run r.fused;
  x.fused_words <- Gc.minor_words () -. w0;
  Array.iteri (check_fused ck) r.fused;
  x

let default_batch = 8192

(* Layer self times, ns per access.  codec: the varint scan of the
   whole trace.  sp_order_fused: the raw Enter calls plus the query
   replay.  detector: the access stream with recorded answers in place
   of the order.  server: its structural path (the access-stripped run)
   less the decode and the SP inserts in it, plus result collection
   (run_string minus drive).  Dispatching access frames is the server's
   too but has no call of its own to time, so it stays unattributed. *)
let traced ~seconds programs ck =
  let r, _, capture_s = timed_setup programs in
  let stripped = Array.map (fun p -> Codec.capture [ strip p ]) programs in
  let streams = Array.map access_stream programs in
  let rp = make_replay () in
  let logs = Array.mapi (fun i p -> record_sp_log rp p streams.(i)) programs in
  let probe = shard_probe () in
  let round_no = ref 0 in
  let rs =
    rounds ~seconds (fun () ->
        incr round_no;
        let flip = !round_no land 1 = 1 in
        layer_round ck programs r rp ~stripped ~streams ~logs probe ~flip)
  in
  close r;
  Server.close probe.srv;
  Shard.Pool.shutdown probe.pool;
  let n = Array.length programs in
  let accesses = float_of_int (sum_int ck.accesses) in
  let events = float_of_int (sum_int ck.events) in
  let nodes = float_of_int (Array.fold_left (fun acc l -> acc + l.nodes) 0 logs) in
  let queries =
    float_of_int (Array.fold_left (fun acc l -> acc + Array.length l.queries) 0 logs)
  in
  let bytes = float_of_int (Array.fold_left (fun acc s -> acc + String.length s) 0 r.traces) in
  (* Times are scaled to the reference core like the end-to-end ones,
     and each figure is its median over rounds. *)
  let k = scale () in
  let ns t = t *. 1e9 *. k /. accesses in
  let m f = median (List.map f rs) in
  let codec_self x = ns x.scan_full in
  let sp_self x = ns (x.enter +. x.precedes) in
  let det_self x = ns x.detect_self in
  let server_self x =
    ns (x.stripped -. x.scan_stripped -. x.enter +. (x.untraced -. x.drive))
  in
  let first = List.hd rs in
  let skew =
    let a = Array.map float_of_int first.shard_accesses in
    let mean = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a) in
    ratio (Array.fold_left max 0. a) mean
  in
  [
    ("codec.scan_ns_per_event", "ns", m (fun x -> x.scan_full *. 1e9 *. k /. events));
    ("codec.bytes_per_access", "bytes", bytes /. accesses);
    ("codec.capture_s", "s", capture_s *. k);
    ("codec.self_ns_per_access", "ns", m codec_self);
    ("server.structure_ns_per_access", "ns", m (fun x -> ns x.stripped));
    ("server.events_per_access", "count", events /. accesses);
    ("server.collect_ns_per_access", "ns", m (fun x -> ns (x.untraced -. x.drive)));
    ("server.minor_words_per_access", "words", first.minor_words /. accesses);
    ("server.self_ns_per_access", "ns", m server_self);
    ("sp_order_fused.enter_ns_per_node", "ns", m (fun x -> x.walk *. 1e9 *. k /. nodes));
    ("sp_order_fused.enter_raw_ns_per_node", "ns", m (fun x -> x.enter *. 1e9 *. k /. nodes));
    ( "om_fused.relabels_per_insert",
      "count",
      ratio (float first.relabels) (float first.inserts) );
    ( "sp_order_fused.precedes_ns_per_query",
      "ns",
      m (fun x -> ratio (x.precedes *. 1e9 *. k) queries) );
    ("sp_order_fused.queries_per_access", "count", queries /. accesses);
    ("sp_order_fused.self_ns_per_access", "ns", m sp_self);
    ("detector.access_ns", "ns", m (fun x -> ns x.detect));
    ("detector.races_per_access", "count", float first.detect_races /. accesses);
    ("detector.minor_words_per_access", "words", first.detect_words /. accesses);
    ("detector.self_ns_per_access", "ns", m det_self);
    ("shard.ingest_ns_per_access", "ns", m (fun x -> ns x.sharded));
    ("shard.flushes", "count", float first.flushes);
    ("shard.batch_fill", "ratio", ratio accesses (float (first.flushes * 2 * default_batch)));
    ("shard.skew", "ratio", skew);
    ("shard.drain_busy_ns", "ns", m (fun x -> ns x.busy));
    ("shard.barrier_wait_ns", "ns", m (fun x -> ns x.wait));
    ("drivers_fused.minor_words_per_run", "words", first.fused_words /. float n);
    ("trace.overhead", "ratio", m (fun x -> x.traced /. x.untraced));
    ( "trace.unattributed_share",
      "ratio",
      m (fun x ->
          1. -. ((codec_self x +. sp_self x +. det_self x +. server_self x) /. ns x.traced)) );
  ]

(* --- Output ------------------------------------------------------- *)

(* Two fixed kernels whose ns per step say how fast the box that
   produced a figure is: xorshift into a 32 KiB table (the core), and a
   pointer chase around one random cycle through 8 MiB (the memory
   behind it, which the detection paths lean on). *)
let calibrate () =
  let core () = core_kernel (1 lsl 22) in
  let cells = 1 lsl 20 in
  let order = Array.init cells (fun i -> i) in
  Rng.shuffle (Rng.create 1) order;
  let next = Array.make cells 0 in
  Array.iteri (fun k i -> next.(i) <- order.((k + 1) mod cells)) order;
  let memory () =
    let steps = 1 lsl 21 and p = ref 0 in
    let t0 = now () in
    for _ = 1 to steps do
      p := next.(!p)
    done;
    ignore (Sys.opaque_identity !p);
    (now () -. t0) *. 1e9 /. float_of_int steps
  in
  (median (List.init 5 (fun _ -> core ())), median (List.init 3 (fun _ -> memory ())))

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let size = ref Full and plant = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ( "--size",
        Arg.Symbol ([ "full"; "smoke" ], fun s -> size := if s = "smoke" then Smoke else Full),
        " program-set size (smoke is for the self-check)" );
      ("--plant-drop-race", Arg.Set plant, " negative control: drop one reference race");
    ]
  in
  let usage = "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload workloads) then begin
    Printf.eprintf "perfbench: unknown workload %S (valid: %s)\n" !workload
      (String.concat ", " workloads);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace must be 0 or 1";
    exit 2
  end;
  let core_ns, memory_ns = calibrate () in
  Printf.printf "machine: nproc=%d ocaml=%s calib_core_ns=%.4f calib_memory_ns=%.4f\n%!"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version core_ns memory_ns;
  let programs = generate !size !workload ~seed:!seed in
  let ck = make_check programs in
  if !plant then drop_one_race ck;
  let metrics =
    if !trace = 0 then begin
      let e = end_to_end ~seconds:!seconds programs ck in
      let heap_mb = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1e6 in
      [
        ("ingest_ns_per_access", "ns", e.serial_ns);
        ("ingest_program_ms_p50", "ms", e.p50_ms);
        ("ingest_program_ms_p90", "ms", e.p90_ms);
        ("inproc_ns_per_access", "ns", e.inproc_ns);
        ("setup_s", "s", e.setup_s);
        ("peak_heap_mb", "MB", heap_mb);
      ]
    end
    else traced ~seconds:!seconds programs ck
  in
  let reference_races =
    Array.fold_left
      (fun acc (r : Drv.serial_result) -> acc + List.length r.Drv.races)
      0 ck.reference
  in
  let queries =
    Array.fold_left (fun acc (r : Drv.serial_result) -> acc + r.Drv.sp_queries) 0 ck.reference
  in
  let trace_bytes =
    Array.fold_left (fun acc p -> acc + String.length (Codec.capture [ p ])) 0 programs
  in
  Printf.printf "host: core_slice_ns=%.4f slices=%d scale=%.4f\n" (slice_ns ())
    (List.length !slices) (scale ());
  Printf.printf
    "counts: programs=%d accesses=%d events=%d races=%d sp_queries=%d trace_bytes=%d \
     calls=%d\n"
    (Array.length programs) (sum_int ck.accesses) (sum_int ck.events) reference_races queries
    trace_bytes ck.calls;
  let failed = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 ck.failed in
  print_result ~correct:(failed = 0) ~attempted:(Array.length programs) ~failed metrics
