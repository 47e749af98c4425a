(* Happens-before maintainers over the clock engines.

   [Make] turns a {!Clock_intf.ENGINE} into a serial SP-maintenance
   algorithm (structurally matching [Spr_core.Sp_maintainer.S] — this
   library sits below [spr_core], so the signature cannot be named
   here).  It follows the on-the-fly unfolding of the canonical parse
   tree and keeps exactly one active clock:

   - [fork] (Enter of a P-node) snapshots the active clock (the fork
     copies the forker's knowledge to the spawned branch);
   - [mid] (Mid of a P-node) swaps the finished left branch's clock
     with the stored snapshot, so the right branch starts from the
     fork point;
   - [join] (Exit of a P-node) joins the left branch's final clock
     back in (the join synchronizes both branches into the
     continuation);
   - S-nodes are free: serial composition just keeps executing on the
     same clock.

   [thread id] ticks a fresh slot (every leaf executes exactly once in
   this IR, so epochs are all 1 and queries degenerate to presence
   checks — the engines implement general epochs anyway, for the
   futures extension).  [precedes_id x y] with [y] the currently
   executing thread is then one [get]: x's slot is in the active clock
   iff x happened before the current thread.

   The operations are on int ids, so two walks drive the same code:
   [on_event] adapts the tree walk's events (ids are node ids), and
   the ingest server calls the {!handle} from its frame walk (ids are
   tids).  A negative id is the canonical tree's synthetic leaf, the
   empty continuation of a block that ends in a spawn: it ticks like
   any thread but is never queried.  That tick is what keeps the tree
   engine's single-writer discipline: it re-roots the restored
   snapshot onto a fresh slot before the Exit join advances it.

   The walk is LIFO over P-nodes, so a single clock stack suffices and
   every snapshot is consumed exactly once — clocks pool cleanly. *)

module Sp_tree = Spr_sptree.Sp_tree

(* Int-id operations over one engine, for a caller that walks its own
   representation of the parse tree (the ingest server). *)
type handle = {
  reset : int -> unit;  (** rewind for a program with ids [0, n) *)
  fork : unit -> unit;
  mid : unit -> unit;
  join : unit -> unit;
  thread : int -> unit;
  precedes : executed:int -> current:int -> bool;
}

module Make (E : Clock_intf.ENGINE) = struct
  type t = {
    eng : E.t;
    mutable cur : E.clock;
    stack : E.clock Spr_util.Vec.t;
    mutable slot_of : int array;  (* id -> clock slot, -1 until executed *)
    mutable epoch_of : int array;
    mutable next_slot : int;
    mutable threads : int;
    mutable sum_words : int;
    (* Planted faults for the differential oracle (see {!Faulty} in
       lib/check): skip the Exit join, or keep the left branch's clock
       across Mid instead of restoring the fork-point snapshot. *)
    no_join : bool;
    no_restore : bool;
  }

  let name = "hb-" ^ E.name

  let make ~no_join ~no_restore n =
    let eng = E.create () in
    {
      eng;
      cur = E.alloc eng;
      stack = Spr_util.Vec.create ();
      slot_of = Array.make (max 1 n) (-1);
      epoch_of = Array.make (max 1 n) 0;
      next_slot = 0;
      threads = 0;
      sum_words = 0;
      no_join;
      no_restore;
    }

  let create tree = make ~no_join:false ~no_restore:false (Sp_tree.node_count tree)

  (* Snapshots left on the stack by an abandoned walk go back to the
     pool with the active clock. *)
  let reset t n =
    Spr_util.Vec.iter (E.release t.eng) t.stack;
    Spr_util.Vec.clear t.stack;
    E.release t.eng t.cur;
    t.cur <- E.alloc t.eng;
    if n > Array.length t.slot_of then begin
      t.slot_of <- Array.make n (-1);
      t.epoch_of <- Array.make n 0
    end
    else Array.fill t.slot_of 0 n (-1);
    t.next_slot <- 0

  let unbalanced () = invalid_arg (name ^ ": unbalanced P-node events")

  let fork t = Spr_util.Vec.push t.stack (E.snapshot t.eng t.cur)

  let mid t =
    if not t.no_restore then
      match Spr_util.Vec.pop t.stack with
      | Some snap ->
          Spr_util.Vec.push t.stack t.cur;
          t.cur <- snap
      | None -> unbalanced ()

  let join t =
    match Spr_util.Vec.pop t.stack with
    | Some left ->
        if not t.no_join then E.join t.eng ~into:t.cur left;
        E.release t.eng left
    | None -> unbalanced ()

  let thread t id =
    let slot = t.next_slot in
    t.next_slot <- slot + 1;
    let e = E.tick t.eng t.cur slot in
    if id >= 0 then begin
      t.slot_of.(id) <- slot;
      t.epoch_of.(id) <- e
    end;
    t.threads <- t.threads + 1;
    t.sum_words <- t.sum_words + E.live_words t.cur

  let precedes_id t x y =
    x <> y
    &&
    let sx = t.slot_of.(x) in
    if sx < 0 then invalid_arg (name ^ ".precedes: operand has not executed");
    E.get t.cur sx >= t.epoch_of.(x)

  let on_event t (ev : Sp_tree.event) =
    match ev with
    | Enter x -> if Sp_tree.kind x = Parallel then fork t
    | Mid x -> if Sp_tree.kind x = Parallel then mid t
    | Exit x -> if Sp_tree.kind x = Parallel then join t
    | Thread u -> thread t u.Sp_tree.id

  let precedes t (x : Sp_tree.node) (y : Sp_tree.node) = precedes_id t x.id y.id

  let parallel t x y = (not (x == y)) && not (precedes t x y)

  let requires_current_operand = true

  let leaves_only = true

  (* Mean active-clock footprint observed at thread execution — the
     Figure-3 "space per node" analog for clock detectors. *)
  let avg_label_words t =
    if t.threads = 0 then 0.0 else float_of_int t.sum_words /. float_of_int t.threads

  (* Counter taps for the EXP-HB bench (not part of the maintainer
     signature; reached by calling the functor output directly). *)
  let copied_words t = E.copied_words t.eng

  let joined_words t = E.joined_words t.eng

  let handle () =
    let t = make ~no_join:false ~no_restore:false 0 in
    {
      reset = reset t;
      fork = (fun () -> fork t);
      mid = (fun () -> mid t);
      join = (fun () -> join t);
      thread = thread t;
      precedes = (fun ~executed ~current -> precedes_id t executed current);
    }
end

module Vector = Make (Vec_clock)
module Tree = Make (Tree_clock)

let vector = Vector.handle

let tree = Tree.handle

(* Deliberately broken variants, one per engine, for proving the
   three-way differential oracle actually discriminates.  [No_join] forgets the Exit join: threads after a
   join look parallel to the joined branch — false positives on
   race-free programs.  [No_restore] leaks the left branch's clock
   into the right branch: siblings look ordered — false negatives on
   planted races. *)
module Vector_no_join = struct
  include Vector

  let name = "hb-vector-nojoin"

  let create tree = make ~no_join:true ~no_restore:false (Sp_tree.node_count tree)
end

module Tree_no_restore = struct
  include Tree

  let name = "hb-tree-norestore"

  let create tree = make ~no_join:false ~no_restore:true (Sp_tree.node_count tree)
end
