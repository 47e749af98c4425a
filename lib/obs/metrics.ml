(* Metric snapshots and their renderers.

   The cells live in [Sharded]; this module holds the histogram bucket
   scheme, the frozen value a registry snapshot yields — a key-sorted
   association list — plus [diff] and the pretty and JSON renderers.  Every key is a
   "subsystem/name" path ("om/inserts", "sched/steals"): the pretty
   renderer groups on the part before the first '/', the JSON renderer
   keeps the flat key.  Snapshots are sorted by key, so output is
   deterministic regardless of registration or hashing order. *)

(* ------------------------------------------------------------------ *)
(* Snapshots.                                                          *)

(* Log-scale histogram of non-negative integer samples: bucket [i]
   counts samples with floor(lg v) = i (bucket 0 takes 0 and 1).  62
   buckets cover the whole OCaml int range. *)
let hist_buckets = 62

let bucket_of v =
  if v <= 1 then 0
  else begin
    let rec go i = if v lsr i <= 1 then i else go (i + 1) in
    min (hist_buckets - 1) (go 1)
  end

type hist_data = { count : int; sum : int; max : int; buckets : int array }

type datum = C of int | G of float | H of hist_data

type snapshot = (string * datum) list

(* [diff later earlier]: counters and histogram counts subtract (a
   window of activity); gauges and histogram maxima keep the later
   value.  Keys only present in [later] pass through. *)
let diff later earlier =
  List.map
    (fun (key, d) ->
      match (d, List.assoc_opt key earlier) with
      | C c, Some (C c0) -> (key, C (c - c0))
      | H h, Some (H h0) ->
          ( key,
            H
              {
                count = h.count - h0.count;
                sum = h.sum - h0.sum;
                max = h.max;
                buckets = Array.mapi (fun i b -> b - h0.buckets.(i)) h.buckets;
              } )
      | d, _ -> (key, d))
    later

(* ------------------------------------------------------------------ *)
(* Renderers.                                                          *)

(* Representative value of bucket [i] for quantile estimation: the
   midpoint of [2^i, 2^(i+1)) — log-scale histograms only ever give
   approximate quantiles. *)
let bucket_repr i = if i = 0 then 1.0 else 1.5 *. float_of_int (1 lsl i)

let hist_quantile_of_data (h : hist_data) q =
  if h.count = 0 then 0.0
  else begin
    let pairs = Array.mapi (fun i n -> (bucket_repr i, n)) h.buckets in
    Float.min (Spr_util.Stats.quantile_counts pairs q) (float_of_int h.max)
  end

let pp_snapshot ppf (s : snapshot) =
  let subsystem key = match String.index_opt key '/' with Some i -> String.sub key 0 i | None -> "" in
  let leaf key =
    match String.index_opt key '/' with
    | Some i -> String.sub key (i + 1) (String.length key - i - 1)
    | None -> key
  in
  let last = ref None in
  List.iter
    (fun (key, d) ->
      let sub = subsystem key in
      if !last <> Some sub then begin
        if !last <> None then Format.fprintf ppf "@.";
        Format.fprintf ppf "%s/@." (if sub = "" then "(top)" else sub);
        last := Some sub
      end;
      match d with
      | C c -> Format.fprintf ppf "  %-28s %d@." (leaf key) c
      | G g -> Format.fprintf ppf "  %-28s %g@." (leaf key) g
      | H h ->
          if h.count = 0 then Format.fprintf ppf "  %-28s (empty)@." (leaf key)
          else
            Format.fprintf ppf "  %-28s n=%d mean=%.1f p50=%.0f p90=%.0f p99=%.0f max=%d@."
              (leaf key) h.count
              (float_of_int h.sum /. float_of_int h.count)
              (hist_quantile_of_data h 0.5) (hist_quantile_of_data h 0.9)
              (hist_quantile_of_data h 0.99) h.max)
    s

let datum_to_json = function
  | C c -> Json.Int c
  | G g -> Json.Float g
  | H h ->
      Json.Obj
        [
          ("count", Json.Int h.count);
          ("sum", Json.Int h.sum);
          ("max", Json.Int h.max);
          ("p50", Json.Float (hist_quantile_of_data h 0.5));
          ("p90", Json.Float (hist_quantile_of_data h 0.9));
          ("p99", Json.Float (hist_quantile_of_data h 0.99));
        ]

let snapshot_to_json (s : snapshot) = Json.Obj (List.map (fun (k, d) -> (k, datum_to_json d)) s)
