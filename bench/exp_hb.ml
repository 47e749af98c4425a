(* EXP-HB — clock-based happens-before baselines vs the SP-order
   detector (ISSUE-10; EXPERIMENTS.md EXP-HB).

   For sp-order-fused and the two clock detectors (vector clocks,
   tree clocks) on the fork-chain and balanced families, measure:

     - time per thread creation (drive the whole on-the-fly walk,
       divide by thread count);
     - time per SP query (random executed pairs vs the current
       thread);
     - clock words copied (snapshots) and joined per thread — the
       engines' own counters, reached by calling the [Sp_clock]
       functor output directly rather than through the maintainer
       registry.

   Expected shape (the crossover the paper's Figure 3 argument
   predicts for vector clocks): every detector answers a query in
   O(1), but a vector-clock join moves Θ(P) words, so on the
   fork-chain its joined words-per-thread grow linearly with the
   number of forks while tree clocks keep the join flat (they pay
   instead in deep snapshots) and sp-order-fused pays O(1) amortized
   per event throughout.  regress.exe thresholds the committed
   BENCH_hb.json medians; the word counters are deterministic and
   must match the baseline exactly.  Each (detector, P) time row holds
   [time_samples] samples, each on a fresh instance, so the gated
   median is a real median and not one noisy run. *)

open Spr_sptree
module Sm = Spr_core.Sp_maintainer
module T = Spr_util.Table

let query_samples = 20_000

let time_samples = 5

let median xs = Spr_util.Stats.quantile (Array.of_list xs) 0.5

(* Fig3-style timing through the registry instance. *)
let measure_time tree make =
  let inst = make tree in
  let n = Sp_tree.leaf_count tree in
  let (), build_s = Bench_util.time (fun () -> Spr_core.Driver.run tree inst) in
  let ns_create = build_s *. 1e9 /. float_of_int n in
  let rng = Spr_util.Rng.create 99 in
  let ls = Sp_tree.leaves tree in
  let current = ls.(n - 1) in
  let pairs =
    Array.init query_samples (fun _ ->
        let a = ls.(Spr_util.Rng.int rng n) in
        if Sm.requires_current_operand inst then (a, current)
        else (a, ls.(Spr_util.Rng.int rng n)))
  in
  let sink = ref 0 in
  let ns_query =
    Bench_util.time_ns ~iters:1 (fun () ->
        Array.iter
          (fun (a, b) -> if not (a == b) && Sm.precedes inst a b then incr sink)
          pairs)
    /. float_of_int query_samples
  in
  ignore !sink;
  (ns_create, ns_query)

(* Word counters through the functor output (per fresh walk, so the
   engine counters cover exactly this tree). *)
type words = { copied : int; joined : int; label : float }

let vector_words tree =
  let module V = Spr_hb.Sp_clock.Vector in
  let c = V.create tree in
  Spr_core.Driver.run tree (Sm.Instance ((module V), c));
  let n = Sp_tree.leaf_count tree in
  {
    copied = V.copied_words c / n;
    joined = V.joined_words c / n;
    label = V.avg_label_words c;
  }

let tree_words tree =
  let module Tc = Spr_hb.Sp_clock.Tree in
  let c = Tc.create tree in
  Spr_core.Driver.run tree (Sm.Instance ((module Tc), c));
  let n = Sp_tree.leaf_count tree in
  {
    copied = Tc.copied_words c / n;
    joined = Tc.joined_words c / n;
    label = Tc.avg_label_words c;
  }

let detectors =
  [
    ("sp-order-fused", Spr_core.Algorithms.sp_order_fused, None);
    ("hb-vector", Spr_core.Algorithms.hb_vector, Some vector_words);
    ("hb-tree", Spr_core.Algorithms.hb_tree, Some tree_words);
  ]

let family name pattern trees =
  let tbl =
    T.create
      ~title:(Printf.sprintf "clock detectors on the %s family" name)
      [
        ("detector", T.Left);
        ("P", T.Right);
        ("ns/creation", T.Right);
        ("ns/query", T.Right);
        ("copied w/thread", T.Right);
        ("joined w/thread", T.Right);
        ("label words", T.Right);
      ]
  in
  let growth = Hashtbl.create 8 in
  List.iter
    (fun (det, make, words) ->
      List.iter
        (fun (param, tree) ->
          let cs, qs = List.split (List.init time_samples (fun _ -> measure_time tree make)) in
          let c = median cs and q = median qs in
          let w = Option.map (fun f -> f tree) words in
          let joined = match w with Some w -> float_of_int w.joined | None -> 0.0 in
          (match Hashtbl.find_opt growth det with
          | None -> Hashtbl.add growth det ((q, joined), (q, joined))
          | Some (first, _) -> Hashtbl.replace growth det (first, (q, joined)));
          T.add_row tbl
            [
              det;
              T.fmt_int param;
              Printf.sprintf "%.1f" c;
              Printf.sprintf "%.1f" q;
              (match w with Some w -> T.fmt_int w.copied | None -> "-");
              (match w with Some w -> T.fmt_int w.joined | None -> "-");
              (match w with Some w -> Printf.sprintf "%.1f" w.label | None -> "-");
            ];
          let add = Bench_json.add ~experiment:"hb" ~backend:det ~pattern ~n:param in
          add ~metric:"ns_per_thread" ~kind:Bench_json.Time cs;
          add ~metric:"ns_per_query" ~kind:Bench_json.Time qs;
          match w with
          | None -> ()
          | Some w ->
              add ~metric:"copied_words_per_thread" ~kind:Bench_json.Counter
                [ float_of_int w.copied ];
              add ~metric:"joined_words_per_thread" ~kind:Bench_json.Counter
                [ float_of_int w.joined ])
        trees;
      T.add_sep tbl)
    detectors;
  T.print tbl;
  Printf.printf "growth (largest/smallest P) — ns/query, joined words/thread:\n";
  List.iter
    (fun (det, _, _) ->
      let (q0, j0), (q1, j1) = Hashtbl.find growth det in
      Printf.printf "  %-16s %.1fx, %s\n" det
        (Bench_util.growth_factor q0 q1)
        (if j0 <= 0.0 then "-" else Printf.sprintf "%.1fx" (j1 /. j0)))
    detectors;
  print_newline ()

let run () =
  Bench_util.header "EXP-HB: vector/tree-clock baselines vs sp-order-fused";
  let max_p = Bench_json.scaled_n ~default:4096 in
  let ps = List.filter (fun p -> p <= max_p) [ 64; 256; 1024; 4096 ] in
  let ps = if ps = [] then [ max_p ] else ps in
  family "fork-chain (P forks, join per fork; stresses vector clocks)" "fork-chain"
    (List.map (fun p -> (p, Tree_gen.fork_chain ~forks:p)) ps);
  family "balanced divide-and-conquer (the friendly case)" "balanced"
    (List.map (fun p -> (p, Tree_gen.balanced ~leaves:p)) ps);
  Printf.printf
    "Paper shape: all three answer queries in O(1), and sp-order-fused\n\
     also maintains in O(1) amortized per event.  A vector-clock join\n\
     moves Theta(P) words, so hb-vector's joined words/thread grow\n\
     linearly with the fork count; tree clocks cut the join to the\n\
     updated subtree (flat in P), at the price of snapshots that still\n\
     deep-copy the 6-word-per-node tree.\n"
