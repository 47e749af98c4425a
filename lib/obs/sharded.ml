(* The metrics registry, with domain-sharded cells.

   A single set of plain mutable cells cannot serve several OCaml 5
   domains: bumping them concurrently is a data race — increments are
   lost and, worse, every domain fights over the same cache line.
   This module keeps the bump-path a single unsynchronized store while
   making cross-domain totals exact: each domain owns a private block
   of cells (one cache line per cell, see [stride]) and a snapshot
   combines the per-domain blocks.

   Layout.  Cell ids are allocated from one process-wide atomic
   counter so an id means the same slot in every domain's block.  A
   counter is one id; a histogram is [hist_cells] consecutive ids:
   count, sum, max, then one per log2 bucket.  A block is a plain
   [int array] indexed by [id * stride]; [stride] is 8 words = 64
   bytes, so two cells never share a cache line and a bump never
   invalidates another domain's line (the array tag word puts cell 0
   off the block's first line, which only matters for the neighbouring
   allocation — false sharing between cells is what costs, and that is
   gone).  Gauges are not sharded: one float per registry entry, last
   write wins.

   Memory model.  A cell has exactly one writer (its owning domain);
   readers combine the cells with plain loads.  A concurrent read may
   miss the very latest bumps — that is inherent to any sharded
   counter — but no update is ever lost: after the writing domains
   have been joined (or any other happens-before edge), a snapshot is
   exact.  Blocks are registered once under a mutex and kept alive
   after their domain dies, so totals survive domain termination.

   One global [Domain.DLS] key serves every registry: DLS keys are
   never reclaimed in OCaml 5.1, so a key per registry (of which
   callers may make many short-lived ones) would leak.  Instrument
   names live in per-registry tables, ids in the one global space. *)

(* Cells per id: 8 words = 64 bytes = one cache line. *)
let stride = 8

type block = { mutable cells : int array }

let blocks_lock = Mutex.create ()

(* Every domain's block, living as long as the process so that counts
   from terminated domains keep contributing to totals. *)
let blocks : block list ref = ref []

let next_id = Atomic.make 0

let key : block Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b = { cells = Array.make (stride * 64) 0 } in
      Mutex.protect blocks_lock (fun () -> blocks := b :: !blocks);
      b)

(* Grow-on-demand, owner-only: copy the old cells, then publish.  A
   concurrent reader sees either array; the old one merely lacks the
   bump about to be stored, which plain-load readers may miss anyway. *)
let grow (b : block) slot =
  let old = b.cells in
  let bigger = Array.make (max (2 * Array.length old) (slot + stride)) 0 in
  Array.blit old 0 bigger 0 (Array.length old);
  b.cells <- bigger;
  bigger

(* This domain's cells, long enough to hold [slot]. *)
let cells_for slot =
  let b = Domain.DLS.get key in
  let cells = b.cells in
  if slot < Array.length cells then cells else grow b slot

type counter = int

let add (c : counter) n =
  let slot = c * stride in
  let cells = cells_for slot in
  cells.(slot) <- cells.(slot) + n

let incr (c : counter) = add c 1

type gauge = { mutable g : float }

let set g v = g.g <- v

(* Count, sum, max, then the log2 buckets of [Metrics.bucket_of]. *)
let hist_cells = 3 + Metrics.hist_buckets

type histogram = int

let observe (h : histogram) v =
  let v = max 0 v in
  let count = h * stride in
  let sum = count + stride and max_ = count + (2 * stride) in
  let bucket = count + ((3 + Metrics.bucket_of v) * stride) in
  let cells = cells_for (count + ((hist_cells - 1) * stride)) in
  cells.(count) <- cells.(count) + 1;
  cells.(sum) <- cells.(sum) + v;
  if v > cells.(max_) then cells.(max_) <- v;
  cells.(bucket) <- cells.(bucket) + 1

(* Combine cell [id] across the blocks [bs] with [f], starting from 0
   (a block too short for [id] has never bumped it). *)
let fold f bs id =
  let slot = id * stride in
  List.fold_left
    (fun acc b ->
      let cells = b.cells in
      if slot < Array.length cells then f acc cells.(slot) else acc)
    0 bs

let all_blocks () = Mutex.protect blocks_lock (fun () -> !blocks)

let read (c : counter) = fold ( + ) (all_blocks ()) c

(* Registries: a name -> instrument table.  Only naming is
   per-registry; the cells behind the ids are global (see the DLS note
   above). *)

type instrument = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { names : (string, instrument) Hashtbl.t; lock : Mutex.t }

let create () = { names = Hashtbl.create 32; lock = Mutex.create () }

let default = create ()

let find_or_add t name make =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.names name with
      | Some i -> i
      | None ->
          let i = make () in
          Hashtbl.add t.names name i;
          i)

let fresh_ids n = Atomic.fetch_and_add next_id n

let kind_clash kind name =
  invalid_arg (Printf.sprintf "Sharded.%s: %S is not a %s" kind name kind)

let counter t name =
  match find_or_add t name (fun () -> Counter (fresh_ids 1)) with
  | Counter c -> c
  | _ -> kind_clash "counter" name

let gauge t name =
  match find_or_add t name (fun () -> Gauge { g = 0.0 }) with
  | Gauge g -> g
  | _ -> kind_clash "gauge" name

let histogram t name =
  match find_or_add t name (fun () -> Histogram (fresh_ids hist_cells)) with
  | Histogram h -> h
  | _ -> kind_clash "histogram" name

let datum bs : instrument -> Metrics.datum = function
  | Counter c -> Metrics.C (fold ( + ) bs c)
  | Gauge g -> Metrics.G g.g
  | Histogram h ->
      Metrics.H
        {
          count = fold ( + ) bs h;
          sum = fold ( + ) bs (h + 1);
          max = fold max bs (h + 2);
          buckets = Array.init Metrics.hist_buckets (fun i -> fold ( + ) bs (h + 3 + i));
        }

let snapshot t =
  let entries =
    Mutex.protect t.lock (fun () -> Hashtbl.fold (fun k i acc -> (k, i) :: acc) t.names [])
  in
  let bs = all_blocks () in
  List.map (fun (k, i) -> (k, datum bs i)) entries
  |> List.sort (fun (a, _) (b, _) -> compare a b)
