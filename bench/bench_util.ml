(* Shared helpers for the benchmark harness. *)

module T = Spr_util.Table

let now () = Unix.gettimeofday ()

(* Wall-clock a thunk once; seconds. *)
let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* ns per iteration of [f], amortized over [iters] runs. *)
let time_ns ~iters f =
  let t0 = now () in
  for _ = 1 to iters do
    f ()
  done;
  (now () -. t0) *. 1e9 /. float_of_int iters

let header title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

let note fmt = Printf.printf fmt

(* Growth summary: factor between the measurement at the smallest and
   largest parameter — the "shape" the experiment tables compare
   against the paper's asymptotic rows. *)
let growth_factor first last = if first <= 0.0 then infinity else last /. first

(* Observability sink the experiments route their simulator runs and OM
   counters through.  Null (free) by default; [main.ml] arms it with
   [metrics] under [--metrics json] and snapshots it between
   experiments, so each experiment's JSON carries only its own window.
   [metrics] is a fresh registry, not [Sharded.default], so the JSON
   holds only what the experiments record. *)
let sink = ref Spr_obs.Sink.null

let metrics = Spr_obs.Sharded.create ()

let enable_metrics () = sink := Spr_obs.Sink.make ~metrics ()

(* Counter value out of the live registry, for experiments that check
   their table columns against the measured counters. *)
let counter_value key =
  match Spr_obs.Sink.metrics !sink with
  | None -> None
  | Some m -> (
      match List.assoc_opt key (Spr_obs.Sharded.snapshot m) with
      | Some (Spr_obs.Metrics.C n) -> Some n
      | _ -> Some 0)
