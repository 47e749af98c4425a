(* Tree clocks (Mathur, Pavlogiannis, Tunç, Viswanathan: "A Tree Clock
   Data Structure for Causal Orderings in Concurrent Executions").

   A clock is a rooted tree over thread slots stored in parallel int
   arrays indexed by slot: [clk] is the slot's component (0 = the slot
   is not in this clock), [aclk] is the attachment time — the parent's
   component when this child was attached — and [parent]/[child]/
   [next]/[prev] are the tree links, children kept in decreasing-aclk
   order (most recent first).

   The operation that separates this engine from a flat vector is
   [join]: merging a finished branch descends other's tree and stops
   at every node the target already knows — the aclk ordering proves
   that once a child's attachment time is no newer than the target's
   old component of the parent, that child and all its later siblings
   are already incorporated.  Joins therefore cost O(updated subtree)
   where a vector clock pays Θ(width); snapshots stay O(live nodes)
   like a vector's O(width) blit.

   Single-writer discipline: a slot's component may only be advanced
   by the one clock lineage that currently owns it as root — [tick]
   re-roots onto a fresh slot, and the only other advance is the
   target root's increment when a join attaches a new subtree.  The
   driving walk ({!Sp_clock}) keeps it through the canonical parse
   tree's shape: a restored snapshot always executes a leaf — a thread,
   or the synthetic continuation leaf of a block that ends in a spawn,
   which the ingest server ticks as thread [-1] — and so re-roots onto
   a fresh slot before it receives a join. *)

type clock = {
  mutable clk : int array;
  mutable aclk : int array;
  mutable parent : int array;
  mutable child : int array;  (* head of the child list, -1 = none *)
  mutable next : int array;  (* sibling links, decreasing aclk *)
  mutable prev : int array;
  mutable root : int;  (* -1 = empty clock *)
  mutable nlive : int;
  mutable hi : int;  (* 1 + max slot that may be live; indices past it
                        are untouched garbage.  Copies and joins size
                        the target by the source's [hi], never by its
                        capacity — sizing by capacity ratchets pooled
                        buffers' capacities exponentially (each grow
                        doubles, and the doubled capacity becomes the
                        next copy's request). *)
}

type t = {
  mutable pool : clock list;
  mutable copied_words : int;
  mutable joined_words : int;
  (* Shared traversal scratch (clear/copy walks, join work stack and
     per-node child collection), grown on demand. *)
  mutable stk : int array;
  mutable scratch : int array;
}

let name = "tree"

let create () =
  { pool = []; copied_words = 0; joined_words = 0; stk = Array.make 64 0; scratch = Array.make 64 0 }

let fresh_clock () =
  {
    clk = [||];
    aclk = [||];
    parent = [||];
    child = [||];
    next = [||];
    prev = [||];
    root = -1;
    nlive = 0;
    hi = 0;
  }

let cap c = Array.length c.clk

let ensure c n =
  if n > cap c then begin
    let m = max 16 (max n (2 * cap c)) in
    let grow a = Array.append a (Array.make (m - Array.length a) 0) in
    (* Entries past the live tree are garbage by contract ([clk] is
       only trusted for reachable slots after [get]'s bound check), so
       plain zero-fill growth is fine. *)
    c.clk <- grow c.clk;
    c.aclk <- grow c.aclk;
    c.parent <- grow c.parent;
    c.child <- grow c.child;
    c.next <- grow c.next;
    c.prev <- grow c.prev
  end

let get c slot = if slot < cap c then c.clk.(slot) else 0

let ensure_stk t n =
  if n > Array.length t.stk then begin
    let b = Array.make (max n (2 * Array.length t.stk)) 0 in
    Array.blit t.stk 0 b 0 (Array.length t.stk);
    t.stk <- b
  end

let ensure_scratch t n =
  if n > Array.length t.scratch then begin
    let b = Array.make (max n (2 * Array.length t.scratch)) 0 in
    Array.blit t.scratch 0 b 0 (Array.length t.scratch);
    t.scratch <- b
  end

(* Pre-order walk of [c]'s live tree calling [f] on every slot.  Uses
   the shared stack; callers must not re-enter. *)
let iter_live t c f =
  if c.root >= 0 then begin
    ensure_stk t (2 * c.nlive);
    let sp = ref 0 in
    t.stk.(0) <- c.root;
    incr sp;
    while !sp > 0 do
      decr sp;
      let u = t.stk.(!sp) in
      f u;
      let v = ref c.child.(u) in
      while !v >= 0 do
        ensure_stk t (!sp + 1);
        t.stk.(!sp) <- !v;
        incr sp;
        v := c.next.(!v)
      done
    done
  end

let clear t c =
  iter_live t c (fun u -> c.clk.(u) <- 0);
  c.root <- -1;
  c.nlive <- 0;
  c.hi <- 0

let alloc t =
  match t.pool with
  | c :: rest ->
      t.pool <- rest;
      clear t c;
      c
  | [] -> fresh_clock ()

let release t c = t.pool <- c :: t.pool

(* Deep structural copy: six words per live node.  [words] selects the
   counter — a snapshot bills [copied_words], an empty-target join
   bills [joined_words]. *)
let copy_into t ~join dst src =
  clear t dst;
  ensure dst src.hi;
  dst.hi <- src.hi;
  let n = ref 0 in
  iter_live t src (fun u ->
      dst.clk.(u) <- src.clk.(u);
      dst.aclk.(u) <- src.aclk.(u);
      dst.parent.(u) <- src.parent.(u);
      dst.child.(u) <- src.child.(u);
      dst.next.(u) <- src.next.(u);
      dst.prev.(u) <- src.prev.(u);
      incr n);
  dst.root <- src.root;
  dst.nlive <- src.nlive;
  if join then t.joined_words <- t.joined_words + (6 * !n)
  else t.copied_words <- t.copied_words + (6 * !n)

let snapshot t src =
  let dst = alloc t in
  copy_into t ~join:false dst src;
  dst

let tick _t c slot =
  ensure c (slot + 1);
  if slot + 1 > c.hi then c.hi <- slot + 1;
  if c.clk.(slot) <> 0 && c.root >= 0 then
    invalid_arg "Tree_clock.tick: slot already live (slots are single-tick)";
  c.aclk.(slot) <- 0;
  c.parent.(slot) <- (-1);
  c.child.(slot) <- (-1);
  c.next.(slot) <- (-1);
  c.prev.(slot) <- (-1);
  c.clk.(slot) <- 1;
  (if c.root >= 0 then begin
     (* O(1) re-root: the previous root becomes the sole head child of
        the fresh slot, attached at the new root's component. *)
     let r = c.root in
     c.child.(slot) <- r;
     c.parent.(r) <- slot;
     c.aclk.(r) <- 1;
     c.prev.(r) <- (-1);
     c.next.(r) <- (-1)
   end);
  c.root <- slot;
  c.nlive <- c.nlive + 1;
  1

let detach c v =
  let p = c.parent.(v) in
  if p >= 0 then begin
    (if c.prev.(v) >= 0 then c.next.(c.prev.(v)) <- c.next.(v) else c.child.(p) <- c.next.(v));
    if c.next.(v) >= 0 then c.prev.(c.next.(v)) <- c.prev.(v)
  end

let attach c v ~under =
  let h = c.child.(under) in
  c.next.(v) <- h;
  if h >= 0 then c.prev.(h) <- v;
  c.prev.(v) <- (-1);
  c.parent.(v) <- under;
  c.child.(under) <- v

(* Move [v]'s record in [self] to match [other]'s view, re-attaching it
   under [under].  [old] is [self]'s previous component of [v]. *)
let adopt self other v ~old ~under =
  if old > 0 then detach self v
  else begin
    self.child.(v) <- (-1);
    self.nlive <- self.nlive + 1
  end;
  self.clk.(v) <- other.clk.(v);
  self.aclk.(v) <- other.aclk.(v);
  attach self v ~under

let join t ~into:self other =
  if other.root < 0 then ()
  else if self.root < 0 then copy_into t ~join:true self other
  else begin
    let r = other.root in
    (* Containment fast path: knowing other's root at its final
       component means everything other knows arrived earlier. *)
    if get self r >= other.clk.(r) then ()
    else begin
      ensure self other.hi;
      if other.hi > self.hi then self.hi <- other.hi;
      let sp = ref 0 in
      ensure_stk t 2;
      let old_r = get self r in
      if r = self.root then
        (* Unreachable under the single-writer discipline (a clock
           joined into [self] finished before [self]'s root slot was
           ticked); kept total rather than asserted. *)
        self.clk.(r) <- other.clk.(r)
      else begin
        (* The join is a new event on the receiving root: advance its
           component so the attachment time orders this subtree after
           everything the root already had. *)
        self.clk.(self.root) <- self.clk.(self.root) + 1;
        (if old_r > 0 then detach self r
         else begin
           self.child.(r) <- (-1);
           self.nlive <- self.nlive + 1
         end);
        self.clk.(r) <- other.clk.(r);
        self.aclk.(r) <- self.clk.(self.root);
        attach self r ~under:self.root
      end;
      t.stk.(0) <- r;
      t.stk.(1) <- old_r;
      sp := 2;
      while !sp > 0 do
        let old_u = t.stk.(!sp - 1) in
        let u = t.stk.(!sp - 2) in
        sp := !sp - 2;
        t.joined_words <- t.joined_words + 2;
        (* Collect the children of [u] in [other] that carry news,
           stopping at the first sibling attached no later than
           [self]'s old component of [u]: it and everything after it
           (children are in decreasing-aclk order) was already merged
           when [self] learned (u, old_u). *)
        let nc = ref 0 in
        let v = ref other.child.(u) in
        let continue = ref true in
        while !continue && !v >= 0 do
          if other.aclk.(!v) <= old_u then continue := false
          else begin
            t.joined_words <- t.joined_words + 2;
            let ov = get self !v in
            if other.clk.(!v) > ov then begin
              ensure_scratch t (2 * (!nc + 1));
              t.scratch.(2 * !nc) <- !v;
              t.scratch.((2 * !nc) + 1) <- ov;
              incr nc
            end;
            v := other.next.(!v)
          end
        done;
        (* Attach in reverse collection order so the head of [u]'s
           list keeps the highest attachment time. *)
        for i = !nc - 1 downto 0 do
          let v = t.scratch.(2 * i) in
          let ov = t.scratch.((2 * i) + 1) in
          adopt self other v ~old:ov ~under:u;
          ensure_stk t (!sp + 2);
          t.stk.(!sp) <- v;
          t.stk.(!sp + 1) <- ov;
          sp := !sp + 2
        done
      done
    end
  end

(* Six words per live node in this representation: component,
   attachment time and four tree links. *)
let live_words c = 6 * c.nlive

let copied_words t = t.copied_words

let joined_words t = t.joined_words

(* Self-check instrumentation: with SPR_TC_DEBUG set in the
   environment, every mutating operation re-validates the full tree
   invariant (single root, consistent parent/sibling links, positive
   components, nlive exact).  Off by default — the only steady-state
   cost is one branch per operation. *)
let debug = Sys.getenv_opt "SPR_TC_DEBUG" <> None

let validate name c =
  if c.root >= 0 then begin
    let seen = Hashtbl.create 64 in
    let bound = (4 * c.nlive) + 8 in
    let count = ref 0 in
    let stack = ref [ c.root ] in
    let fail fmt = Printf.ksprintf failwith fmt in
    let rec loop () =
      match !stack with
      | [] -> ()
      | u :: rest ->
          stack := rest;
          incr count;
          if !count > bound then fail "%s: walk exceeded %d (nlive %d)" name bound c.nlive;
          if Hashtbl.mem seen u then fail "%s: node %d reached twice" name u;
          Hashtbl.add seen u ();
          if c.clk.(u) = 0 then fail "%s: live node %d has clk 0" name u;
          let v = ref c.child.(u) in
          let sib = ref 0 in
          while !v >= 0 do
            incr sib;
            if !sib > bound then fail "%s: sibling cycle under %d" name u;
            if c.parent.(!v) <> u then fail "%s: node %d parent link wrong" name !v;
            stack := !v :: !stack;
            v := c.next.(!v)
          done;
          loop ()
    in
    loop ();
    if !count <> c.nlive then fail "%s: walk found %d nodes, nlive = %d" name !count c.nlive
  end

let tick t c slot =
  let e = tick t c slot in
  if debug then validate "tick" c;
  e

let snapshot t src =
  let dst = snapshot t src in
  if debug then validate "snapshot" dst;
  dst

let join t ~into other =
  join t ~into other;
  if debug then validate "join" into
