(* EXP-THM5 — Theorem 5: on-the-fly construction of the SP-order data
   structure is O(n) total, i.e. flat ns/node as n doubles; and the
   order-maintenance substrate performs O(1) amortized relabels per
   insertion. *)

open Spr_sptree
module T = Spr_util.Table

let run () =
  Bench_util.header "EXP-THM5: SP-order construction is O(n) (Theorem 5)";
  let sizes = [ 4096; 16_384; 65_536; 262_144 ] in
  let tbl =
    T.create
      [
        ("tree", T.Left);
        ("n (leaves)", T.Right);
        ("total ms", T.Right);
        ("ns/node", T.Right);
        ("OM relabels/insert", T.Right);
      ]
  in
  let points = ref [] in
  let families =
    [
      ("balanced", fun n -> Tree_gen.balanced ~leaves:n);
      ( "random",
        fun n -> Tree_gen.random_tree ~rng:(Spr_util.Rng.create 5) ~leaves:n ~p_prob:0.5 );
    ]
  in
  List.iter
    (fun (fname, gen) ->
      List.iter
        (fun n ->
          let tree = gen n in
          (* Best of three runs: isolates the algorithmic cost from GC
             scheduling noise. *)
          let s =
            List.fold_left min infinity
              (List.init 3 (fun _ ->
                   let inst = Spr_core.Algorithms.sp_order tree in
                   snd (Bench_util.time (fun () -> Spr_core.Driver.run tree inst))))
          in
          let nodes = Sp_tree.node_count tree in
          if fname = "balanced" then points := (float_of_int nodes, s) :: !points;
          (* Reconstruct to read the OM counters via a fresh run. *)
          let om = Spr_om.Om.create () in
          let anchor = ref (Spr_om.Om.base om) in
          for _ = 1 to nodes do
            anchor := Spr_om.Om.insert_after om !anchor
          done;
          let st = Spr_om.Om.stats om in
          (* Under --metrics json the Theorem 5 amortization check reads
             the measured OM counters, not just the ns/node column. *)
          (match Spr_obs.Sink.metrics !Bench_util.sink with
          | None -> ()
          | Some m ->
              Spr_obs.Sharded.add (Spr_obs.Sharded.counter m "om/inserts") st.inserts;
              Spr_obs.Sharded.add
                (Spr_obs.Sharded.counter m "om/relabel_passes")
                st.relabel_passes;
              Spr_obs.Sharded.add (Spr_obs.Sharded.counter m "om/items_moved") st.items_moved);
          T.add_row tbl
            [
              fname;
              T.fmt_int n;
              Printf.sprintf "%.2f" (s *. 1e3);
              Printf.sprintf "%.1f" (s *. 1e9 /. float_of_int nodes);
              Printf.sprintf "%.3f" (float_of_int st.items_moved /. float_of_int st.inserts);
            ])
        sizes;
      T.add_sep tbl)
    families;
  T.print tbl;
  let k, _ = Spr_util.Stats.fit_power (Array.of_list !points) in
  Printf.printf
    "power-law fit of total time vs n (balanced family): exponent = %.3f\n\
     (Theorem 5 predicts 1.0 — linear in n)\n"
    k
