open Spr_prog
module Sm = Spr_core.Sp_maintainer

type serial_result = {
  races : Detector.race list;
  racy_locs : int list;
  sp_queries : int;
}

(* Shared scaffolding: walk the tree serially, driving the maintainer;
   at each real thread invoke [on_thread] with a tid-level precedes. *)
let serial_walk pt make on_thread =
  let tree = Prog_tree.tree pt in
  let inst = make tree in
  let leaf tid = Prog_tree.leaf_of_thread pt tid in
  let precedes ~executed ~current = Sm.precedes inst (leaf executed) (leaf current) in
  Spr_sptree.Sp_tree.iter_events tree (fun ev ->
      Sm.on_event inst ev;
      match ev with
      | Spr_sptree.Sp_tree.Thread n -> begin
          match Prog_tree.thread_of_leaf pt n with
          | Some u -> on_thread precedes u
          | None -> ()
        end
      | _ -> ())

let detect_serial pt make =
  let program = Prog_tree.program pt in
  let det = ref None in
  serial_walk pt make (fun precedes u ->
      let d =
        match !det with
        | Some d -> d
        | None ->
            let d = Detector.create ~locs:(Detector.max_loc program + 1) ~precedes () in
            det := Some d;
            d
      in
      Detector.run_thread d u);
  match !det with
  | Some d ->
      { races = Detector.races d; racy_locs = Detector.racy_locs d; sp_queries = Detector.query_count d }
  | None -> { races = []; racy_locs = []; sp_queries = 0 }

type releasing_result = {
  result : serial_result;
  peak_om_nodes : int;
  final_om_nodes : int;
  released : int;
}

let detect_serial_releasing pt =
  let program = Prog_tree.program pt in
  let tree = Prog_tree.tree pt in
  let sp = Spr_core.Sp_order.create tree in
  let leaf tid = Prog_tree.leaf_of_thread pt tid in
  let precedes ~executed ~current =
    Spr_core.Sp_order.precedes sp (leaf executed) (leaf current)
  in
  let released = ref 0 in
  let on_unreferenced tid =
    incr released;
    Spr_core.Sp_order.release sp (leaf tid)
  in
  let det =
    Detector.create ~on_unreferenced ~locs:(Detector.max_loc program + 1) ~precedes ()
  in
  let peak = ref 0 in
  Spr_sptree.Sp_tree.iter_events tree (fun ev ->
      Spr_core.Sp_order.on_event sp ev;
      match ev with
      | Spr_sptree.Sp_tree.Thread n -> begin
          match Prog_tree.thread_of_leaf pt n with
          | Some u ->
              Detector.run_thread det u;
              let size = Spr_core.Sp_order.om_size sp in
              if size > !peak then peak := size
          | None -> ()
        end
      | _ -> ());
  {
    result =
      {
        races = Detector.races det;
        racy_locs = Detector.racy_locs det;
        sp_queries = Detector.query_count det;
      };
    peak_om_nodes = !peak;
    final_om_nodes = Spr_core.Sp_order.om_size sp;
    released = !released;
  }

(* ------------------------------------------------------------------ *)
(* The fully packed pipeline: a direct serial walk of the program's
   canonical parse tree + fused English/Hebrew SP-order + packed shadow
   cells, all pre-sized at [create] and rewound in place by [run].

   The walk never materializes the tree.  It follows {!Prog_tree}'s
   shape — a [Spawn] is P(child procedure, rest of the block), a
   non-last [Run] is S(thread, rest of the block), a block ending in a
   spawn gets a synthetic continuation leaf, sync blocks S-compose left
   to right — and issues one [enter] per internal node in the same
   pre-order, left-first sequence as {!Spr_sptree.Sp_tree.iter_events}.
   Node ids are handed out as the walk discovers them (root 0), so a
   node's id exists when its parent's Enter names it.  A steady-state
   [run] performs zero minor-heap allocation on a race-free program
   (recording a race pushes a report record); [regress --alloc-gate
   --e2e] pins this. *)
module Fused = struct
  module Spf = Spr_core.Sp_order_fused

  type t = {
    program : Fj_program.t;
    sp : Spf.t;
    det : Detector.t;
    nodes : int;  (* canonical parse-tree node count *)
    leaf_of_tid : int array;  (* tid -> node id of its leaf *)
    mutable next : int;  (* next undiscovered node id *)
  }

  (* Leaves of the canonical tree: one per thread plus one synthetic
     leaf per block that ends in a spawn. *)
  let rec synthetic_leaves (p : Fj_program.proc) =
    let ends_in_spawn blk =
      match blk.(Array.length blk - 1) with Fj_program.Spawn _ -> 1 | Fj_program.Run _ -> 0
    in
    let in_item acc = function
      | Fj_program.Run _ -> acc
      | Fj_program.Spawn f -> acc + synthetic_leaves f
    in
    Array.fold_left
      (fun acc blk -> Array.fold_left in_item (acc + ends_in_spawn blk) blk)
      0 p.Fj_program.blocks

  let create program =
    let leaves =
      Fj_program.thread_count program + synthetic_leaves (Fj_program.main program)
    in
    let sp = Spf.create_raw () in
    let leaf_of_tid = Array.make (Fj_program.thread_count program) 0 in
    let precedes ~executed ~current =
      Spf.precedes_id sp leaf_of_tid.(executed) leaf_of_tid.(current)
    in
    let det = Detector.create ~locs:(Detector.max_loc program + 1) ~precedes () in
    let nodes = (2 * leaves) - 1 in
    Spf.reset sp ~nodes ~root:0;
    { program; sp; det; nodes; leaf_of_tid; next = 1 }

  (* Enter internal node [id]; its children get the next two ids. *)
  let enter t id ~parallel =
    let left = t.next in
    t.next <- left + 2;
    Spf.enter t.sp ~parent:id ~left ~right:(left + 1) ~parallel;
    left

  (* Inline thread run: Detector.run_thread's sink/metrics bookkeeping
     is dead weight here. *)
  let run_thread t (u : Fj_program.thread) leaf =
    let tid = u.Fj_program.tid in
    t.leaf_of_tid.(tid) <- leaf;
    let accs = u.Fj_program.accesses in
    for i = 0 to Array.length accs - 1 do
      Detector.access t.det ~current:tid accs.(i)
    done

  (* Top-level recursion with explicit arguments: nested closures would
     allocate on every run. *)
  let rec walk_proc t (p : Fj_program.proc) id = walk_blocks t p.Fj_program.blocks 0 id

  and walk_blocks t blocks bi id =
    if bi = Array.length blocks - 1 then walk_items t blocks.(bi) 0 id
    else begin
      let left = enter t id ~parallel:false in
      walk_items t blocks.(bi) 0 left;
      walk_blocks t blocks (bi + 1) (left + 1)
    end

  (* Past the end is the synthetic leaf of a block ending in a spawn:
     nothing runs there. *)
  and walk_items t blk i id =
    if i < Array.length blk then
      match blk.(i) with
      | Fj_program.Run u ->
          if i = Array.length blk - 1 then run_thread t u id
          else begin
            let left = enter t id ~parallel:false in
            run_thread t u left;
            walk_items t blk (i + 1) (left + 1)
          end
      | Fj_program.Spawn f ->
          let left = enter t id ~parallel:true in
          walk_proc t f left;
          walk_items t blk (i + 1) (left + 1)

  let run t =
    Spf.reset t.sp ~nodes:t.nodes ~root:0;
    Detector.reset t.det;
    t.next <- 1;
    walk_proc t (Fj_program.main t.program) 0

  let detector t = t.det

  let order t = t.sp

  let result t =
    {
      races = Detector.races t.det;
      racy_locs = Detector.racy_locs t.det;
      sp_queries = Detector.query_count t.det;
    }
end

let detect_serial_fused program =
  let t = Fused.create program in
  Fused.run t;
  Fused.result t

type locked_result = { lock_races : Lockset.race list; racy_locs : int list }

let detect_serial_locked pt make =
  let det = ref None in
  serial_walk pt make (fun precedes u ->
      let d =
        match !det with
        | Some d -> d
        | None ->
            let d = Lockset.create ~precedes in
            det := Some d;
            d
      in
      Lockset.run_thread d u);
  match !det with
  | Some d -> { lock_races = Lockset.races d; racy_locs = Lockset.racy_locs d }
  | None -> { lock_races = []; racy_locs = [] }

type hybrid_result = {
  races : Detector.race list;
  racy_locs : int list;
  sim : Spr_sched.Sim.result;
  hybrid_stats : Spr_hybrid.Sp_hybrid.stats;
}

type hybrid_locked_result = {
  lock_races : Lockset.race list;
  racy_locs : int list;
  sim : Spr_sched.Sim.result;
}

let detect_hybrid_locked ?(seed = 1) ?(procs = 4) program =
  let h = Spr_hybrid.Sp_hybrid.create program in
  let precedes ~executed ~current = Spr_hybrid.Sp_hybrid.precedes h ~executed ~current in
  let det = Lockset.create ~precedes in
  let dlock = Mutex.create () in
  let on_thread_user h ~wid:_ ~now:_ (u : Fj_program.thread) =
    (* The lockset history is the shared resource; updates serialize,
       the SP queries inside stay lock-free. *)
    Mutex.protect dlock (fun () -> Lockset.run_thread det u);
    Spr_hybrid.Sp_hybrid.charge_query h
  in
  let sim =
    Spr_sched.Sim.run
      ~hooks:(Spr_hybrid.Sp_hybrid.hooks ~on_thread_user h)
      ~seed ~procs program
  in
  { lock_races = Lockset.races det; racy_locs = Lockset.racy_locs det; sim }

let detect_hybrid ?(sink = Spr_obs.Sink.null) ?(seed = 1) ?(procs = 4) program =
  let h = Spr_hybrid.Sp_hybrid.create ~sink program in
  let precedes ~executed ~current = Spr_hybrid.Sp_hybrid.precedes h ~executed ~current in
  let det = Detector.create ~sink ~locs:(Detector.max_loc program + 1) ~precedes () in
  let on_thread_user h ~wid:_ ~now:_ (u : Fj_program.thread) =
    let before = Detector.query_count det in
    Detector.run_thread det u;
    let queries = Detector.query_count det - before in
    (* Charge virtual time for the SP queries the detector issued. *)
    let cost = ref 0 in
    for _ = 1 to queries do
      cost := !cost + Spr_hybrid.Sp_hybrid.charge_query h
    done;
    !cost
  in
  let sim =
    Spr_sched.Sim.run
      ~hooks:(Spr_hybrid.Sp_hybrid.hooks ~on_thread_user h)
      ~sink ~seed ~procs program
  in
  {
    races = Detector.races det;
    racy_locs = Detector.racy_locs det;
    sim;
    hybrid_stats = Spr_hybrid.Sp_hybrid.stats h;
  }
