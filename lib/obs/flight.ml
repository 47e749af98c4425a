(* Post-mortem flight recorder.

   An always-on, fixed-size, per-lane ring of recent trace events kept
   in plain int arrays: recording is cheap enough to leave armed for a
   whole fuzzing campaign, and when a failing execution is found the
   rings (plus a final metrics snapshot) are dumped to a compact
   binary [.spr-flight] file so the shrunk repro ships with the
   telemetry that led up to it.

   A lane is a single-writer ring: the harness maps each worker id to
   its own lane, so an emit is seven plain int stores and a counter
   bump — no synchronization, no allocation, and (single writer) no
   torn events.  Each slot is [stride] = 8 words, one cache line, so
   writers on different lanes never share a line.  Readers are
   expected to run after the writers quiesce (post-mortem, as the name
   says).

   Event payloads are ints; structure names are interned into a small
   copy-on-append table so the hot path stores an id.  The on-disk
   format is deterministic: magic, varint-coded header + events
   (oldest first per lane), then the optional canonical-JSON metrics
   snapshot.  Identical runs produce byte-identical dumps, which the
   cram tests pin. *)

let stride = 8

type lane = { buf : int array; mutable count : int (* total ever emitted *) }

type t = {
  lanes : lane array;
  cap : int; (* events per lane *)
  mutable names : string array; (* intern table: immutable, copy-on-append *)
  names_lock : Mutex.t;
}

let create ?(lanes = 1) ?(capacity = 512) () =
  let lanes = max 1 lanes and cap = max 1 capacity in
  {
    lanes = Array.init lanes (fun _ -> { buf = Array.make (cap * stride) 0; count = 0 });
    cap;
    names = [||];
    names_lock = Mutex.create ();
  }

let lanes t = Array.length t.lanes

let capacity t = t.cap

(* --- Interning --------------------------------------------------- *)

(* Iterative scan: the emit path calls this per event, so it must not
   allocate (a local recursive function would box its closure). *)
let find_name arr s =
  let n = Array.length arr in
  let i = ref 0 in
  let found = ref (-1) in
  while !found < 0 && !i < n do
    if String.equal arr.(!i) s then found := !i;
    incr i
  done;
  !found

let intern t s =
  let i = find_name t.names s in
  if i >= 0 then i
  else begin
    Mutex.lock t.names_lock;
    let arr = t.names in
    let i = find_name arr s in
    let i =
      if i >= 0 then i
      else begin
        let n = Array.length arr in
        let bigger = Array.make (n + 1) s in
        Array.blit arr 0 bigger 0 n;
        t.names <- bigger;
        n
      end
    in
    Mutex.unlock t.names_lock;
    i
  end

let name t i = if i >= 0 && i < Array.length t.names then t.names.(i) else "?"

(* --- Emit -------------------------------------------------------- *)

(* Tag values are part of the on-disk format; never renumber. *)
let tag_spawn = 1
let tag_sync = 2
let tag_steal = 3
let tag_return = 4
let tag_thread_run = 5
let tag_trace_split = 6
let tag_lock_span = 7
let tag_om_insert = 8
let tag_om_relabel = 9
let tag_om_bucket_split = 10
let tag_race_query = 11

let emit_raw t ~lane ~ts ~wid ~tag ~a ~b ~c ~d ~e =
  let l = t.lanes.(lane mod Array.length t.lanes) in
  let i = l.count mod t.cap * stride in
  let buf = l.buf in
  buf.(i) <- tag;
  buf.(i + 1) <- ts;
  buf.(i + 2) <- wid;
  buf.(i + 3) <- a;
  buf.(i + 4) <- b;
  buf.(i + 5) <- c;
  buf.(i + 6) <- d;
  buf.(i + 7) <- e;
  l.count <- l.count + 1

let emit t ~lane ~ts ~wid (kind : Trace.kind) =
  let tag, a, b, c, d, e =
    match kind with
    | Trace.Spawn { parent; child } -> (tag_spawn, parent, child, 0, 0, 0)
    | Trace.Sync { frame } -> (tag_sync, frame, 0, 0, 0, 0)
    | Trace.Steal { thief; victim; frame } -> (tag_steal, thief, victim, frame, 0, 0)
    | Trace.Return { frame; inline } ->
        (tag_return, frame, (if inline then 1 else 0), 0, 0, 0)
    | Trace.Thread_run { tid; cost } -> (tag_thread_run, tid, cost, 0, 0, 0)
    | Trace.Trace_split { victim_trace; u1; u2; u4; u5 } ->
        (tag_trace_split, victim_trace, u1, u2, u4, u5)
    | Trace.Lock_span { wait; hold } -> (tag_lock_span, wait, hold, 0, 0, 0)
    | Trace.Om_insert { om } -> (tag_om_insert, intern t om, 0, 0, 0, 0)
    | Trace.Om_relabel { om; moved } -> (tag_om_relabel, intern t om, moved, 0, 0, 0)
    | Trace.Om_bucket_split { om } -> (tag_om_bucket_split, intern t om, 0, 0, 0, 0)
    | Trace.Race_query { tid; queries } -> (tag_race_query, tid, queries, 0, 0, 0)
  in
  emit_raw t ~lane ~ts ~wid ~tag ~a ~b ~c ~d ~e

(* --- Decode ------------------------------------------------------ *)

let decode_kind names tag a b c d e : Trace.kind =
  let nm i = if i >= 0 && i < Array.length names then names.(i) else "?" in
  if tag = tag_spawn then Trace.Spawn { parent = a; child = b }
  else if tag = tag_sync then Trace.Sync { frame = a }
  else if tag = tag_steal then Trace.Steal { thief = a; victim = b; frame = c }
  else if tag = tag_return then Trace.Return { frame = a; inline = b <> 0 }
  else if tag = tag_thread_run then Trace.Thread_run { tid = a; cost = b }
  else if tag = tag_trace_split then
    Trace.Trace_split { victim_trace = a; u1 = b; u2 = c; u4 = d; u5 = e }
  else if tag = tag_lock_span then Trace.Lock_span { wait = a; hold = b }
  else if tag = tag_om_insert then Trace.Om_insert { om = nm a }
  else if tag = tag_om_relabel then Trace.Om_relabel { om = nm a; moved = b }
  else if tag = tag_om_bucket_split then Trace.Om_bucket_split { om = nm a }
  else if tag = tag_race_query then Trace.Race_query { tid = a; queries = b }
  else failwith (Printf.sprintf "Flight: unknown event tag %d" tag)

let lane_length t lane = min t.lanes.(lane).count t.cap

let lane_dropped t lane = max 0 (t.lanes.(lane).count - t.cap)

(* Oldest first. *)
let lane_events t lane =
  let l = t.lanes.(lane) in
  let live = min l.count t.cap in
  let names = t.names in
  List.init live (fun k ->
      let seq = l.count - live + k in
      let i = seq mod t.cap * stride in
      let buf = l.buf in
      {
        Trace.ts = buf.(i + 1);
        wid = buf.(i + 2);
        kind =
          decode_kind names buf.(i) buf.(i + 3) buf.(i + 4) buf.(i + 5)
            buf.(i + 6) buf.(i + 7);
      })

let clear t =
  Array.iter
    (fun l ->
      l.count <- 0;
      Array.fill l.buf 0 (Array.length l.buf) 0)
    t.lanes

(* --- On-disk format ---------------------------------------------- *)

let magic = "SPRFLIGHT1\n"

(* The LEB128 primitive lives in Spr_util.Varint (shared with the
   trace-ingestion codec); the dump format is unchanged byte for
   byte.  Truncation is rewrapped to keep this module's historical
   diagnostic. *)
let put_varint = Spr_util.Varint.put

let get_varint s pos =
  try Spr_util.Varint.get s pos
  with Spr_util.Varint.Truncated -> failwith "Flight: truncated varint"

let to_bytes ?snapshot t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  put_varint buf 1 (* version *);
  put_varint buf (Array.length t.lanes);
  put_varint buf t.cap;
  put_varint buf (Array.length t.names);
  Array.iter
    (fun s ->
      put_varint buf (String.length s);
      Buffer.add_string buf s)
    t.names;
  Array.iteri
    (fun li l ->
      put_varint buf l.count;
      let live = min l.count t.cap in
      for k = 0 to live - 1 do
        let seq = l.count - live + k in
        let i = seq mod t.cap * stride in
        for j = 0 to stride - 1 do
          put_varint buf l.buf.(i + j)
        done
      done;
      ignore li)
    t.lanes;
  (match snapshot with
  | None -> Buffer.add_char buf '\000'
  | Some json ->
      Buffer.add_char buf '\001';
      let s = Json.to_string json in
      put_varint buf (String.length s);
      Buffer.add_string buf s);
  Buffer.contents buf

let write_file ?snapshot t path =
  let oc = open_out_bin path in
  output_string oc (to_bytes ?snapshot t);
  close_out oc

type dump = {
  d_capacity : int;
  d_names : string array;
  d_counts : int array; (* total emitted per lane *)
  d_events : Trace.event list array; (* per lane, oldest first *)
  d_snapshot : Json.t option;
}

let of_bytes s =
  let mlen = String.length magic in
  if String.length s < mlen || not (String.equal (String.sub s 0 mlen) magic)
  then failwith "Flight: bad magic (not a .spr-flight file)";
  let pos = ref mlen in
  (* A corrupted header must not size an allocation or a [String.sub]:
     every count is non-negative, and the items it announces that are
     actually stored — the first [stored] of them, [per] bytes or more
     each — fit in the bytes left.  A wrapped lane's total count and
     the capacity may legitimately exceed the file. *)
  let get_count ?(stored = max_int) what ~per =
    let at = !pos in
    let n = get_varint s pos in
    if n < 0 || min n stored > (String.length s - !pos) / per then
      failwith (Printf.sprintf "Flight: bad %s %d at byte %d" what n at);
    n
  in
  let version = get_varint s pos in
  if version <> 1 then failwith (Printf.sprintf "Flight: unknown version %d" version);
  let nlanes = get_count "lane count" ~per:1 in
  let cap = get_count ~stored:0 "capacity" ~per:1 in
  let nnames = get_count "name count" ~per:1 in
  let names =
    Array.init nnames (fun _ ->
        let len = get_count "name length" ~per:1 in
        let v = String.sub s !pos len in
        pos := !pos + len;
        v)
  in
  let counts = Array.make nlanes 0 in
  let events =
    Array.init nlanes (fun li ->
        let count = get_count ~stored:cap "event count" ~per:stride in
        counts.(li) <- count;
        let live = min count cap in
        List.init live (fun _ ->
            let w = Array.init stride (fun _ -> get_varint s pos) in
            {
              Trace.ts = w.(1);
              wid = w.(2);
              kind = decode_kind names w.(0) w.(3) w.(4) w.(5) w.(6) w.(7);
            }))
  in
  let snap =
    if !pos >= String.length s then failwith "Flight: truncated snapshot flag"
    else begin
      let flag = Char.code s.[!pos] in
      incr pos;
      if flag = 0 then None
      else begin
        let len = get_count "snapshot length" ~per:1 in
        let j = String.sub s !pos len in
        pos := !pos + len;
        match Json.of_string j with
        | Ok v -> Some v
        | Error e -> failwith ("Flight: bad snapshot JSON: " ^ e)
      end
    end
  in
  { d_capacity = cap; d_names = names; d_counts = counts; d_events = events; d_snapshot = snap }

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  of_bytes s

let kind_label (k : Trace.kind) =
  match k with
  | Trace.Spawn _ -> "spawn"
  | Trace.Sync _ -> "sync"
  | Trace.Steal _ -> "steal"
  | Trace.Return _ -> "return"
  | Trace.Thread_run _ -> "thread_run"
  | Trace.Trace_split _ -> "trace_split"
  | Trace.Lock_span _ -> "lock_span"
  | Trace.Om_insert _ -> "om_insert"
  | Trace.Om_relabel _ -> "om_relabel"
  | Trace.Om_bucket_split _ -> "om_bucket_split"
  | Trace.Race_query _ -> "race_query"

let pp_dump ppf d =
  Format.fprintf ppf "flight recorder: %d lane%s, capacity %d@."
    (Array.length d.d_events)
    (if Array.length d.d_events = 1 then "" else "s")
    d.d_capacity;
  Array.iteri
    (fun li evs ->
      let dropped = max 0 (d.d_counts.(li) - d.d_capacity) in
      let tally = Hashtbl.create 8 in
      List.iter
        (fun (e : Trace.event) ->
          let k = kind_label e.kind in
          Hashtbl.replace tally k (1 + Option.value ~default:0 (Hashtbl.find_opt tally k)))
        evs;
      let parts =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally [])
      in
      Format.fprintf ppf "  lane %d: %d event%s, %d dropped%s@." li
        (List.length evs)
        (if List.length evs = 1 then "" else "s")
        dropped
        (if parts = [] then ""
         else
           " — "
           ^ String.concat ", "
               (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) parts)))
    d.d_events
