open Spr_prog
open Spr_sched

type cost_model = { local_op : int; global_insert : int; query : int }

let default_costs = { local_op = 1; global_insert = 8; query = 1 }

(* Per-frame walk state: the trace the frame currently inserts into and
   the trace to adopt once the current sync block's join is passed (set
   by the first — outermost — steal of the block, Figure 8 line 27). *)
type fstate = { mutable cur : Global_tier.trace; mutable post_block : Global_tier.trace option }

type stats = {
  splits : int;
  traces : int;
  local_ops : int;
  global_insert_ticks : int;
  lock_wait_ticks : int;
  query_ticks : int;
  query_retries : int;
  uf_finds : int;
  uf_find_steps : int;
}

type t = {
  costs : cost_model;
  sink : Spr_obs.Sink.t;
  global : Global_tier.t;
  local : Local_tier.t;
  frames : (int, fstate) Hashtbl.t;
  (* Serializes the *event* hooks (spawn/steal/return/sync bookkeeping)
     when the structure is driven by the real multi-domain runtime; the
     simulator is single-threaded so the lock is uncontended there.
     Queries never take it — they are the lock-free path the paper
     optimizes (Section 4). *)
  hook_lock : Mutex.t;
  mutable lock_until : int;  (* virtual time the global lock frees up *)
  mutable splits : int;
  mutable global_insert_ticks : int;
  mutable lock_wait_ticks : int;
  mutable query_ticks : int;
}

let create ?(costs = default_costs) ?(sink = Spr_obs.Sink.null) ?(local_path_compression = false)
    program =
  let global = Global_tier.create () in
  Global_tier.set_sink global sink;
  {
    costs;
    sink;
    global;
    local =
      Local_tier.create ~path_compression:local_path_compression
        ~thread_capacity:(Fj_program.thread_count program)
        ();
    frames = Hashtbl.create 64;
    hook_lock = Mutex.create ();
    lock_until = 0;
    splits = 0;
    global_insert_ticks = 0;
    lock_wait_ticks = 0;
    query_ticks = 0;
  }

let fstate t (f : Sim.frame) =
  match Hashtbl.find_opt t.frames f.Sim.fid with
  | Some s -> s
  | None ->
      (* Only the root frame materializes lazily; children are
         registered at spawn time. *)
      let s = { cur = Global_tier.initial t.global; post_block = None } in
      Hashtbl.add t.frames f.Sim.fid s;
      s

let hooks ?on_thread_user t =
  let locked f = Spr_schedhook.Hook.locked ~layer:"hybrid" ~name:"hook-lock" t.hook_lock f in
  let on_spawn ~wid:_ ~now:_ ~parent ~child =
    locked (fun () ->
        let ps = fstate t parent in
        Hashtbl.add t.frames child.Sim.fid { cur = ps.cur; post_block = None };
        t.costs.local_op)
  in
  let on_thread ~wid ~now (f : Sim.frame) (u : Fj_program.thread) =
    locked (fun () ->
        let s = fstate t f in
        Local_tier.thread_started t.local ~tid:u.Fj_program.tid ~frame_id:f.Sim.fid s.cur);
    (* The client callback runs outside the hook lock: its SP queries
       are exactly the lock-free concurrent reads of Section 4. *)
    let user =
      match on_thread_user with Some cb -> cb t ~wid ~now u | None -> 0
    in
    (2 * t.costs.local_op) + user
  in
  let on_steal ~thief:_ ~victim:_ ~now (f : Sim.frame) =
    locked @@ fun () ->
    (* The thief owns the stolen continuation; split the victim's trace
       around the stolen P-node (Figure 8 lines 19-24). *)
    let s = fstate t f in
    let wait = max 0 (t.lock_until - now) in
    let hold = t.costs.global_insert in
    t.lock_until <- now + wait + hold;
    t.lock_wait_ticks <- t.lock_wait_ticks + wait;
    t.global_insert_ticks <- t.global_insert_ticks + hold;
    let victim_trace = Global_tier.trace_id s.cur in
    let { Global_tier.u1; u2; u4; u5 } = Global_tier.split t.global s.cur in
    Local_tier.split t.local ~frame_id:f.Sim.fid ~u1 ~u2;
    t.splits <- t.splits + 1;
    Spr_obs.Sink.emit t.sink (Spr_obs.Trace.Lock_span { wait; hold });
    Spr_obs.Sink.emit t.sink
      (Spr_obs.Trace.Trace_split
         {
           victim_trace;
           u1 = Global_tier.trace_id u1;
           u2 = Global_tier.trace_id u2;
           u4 = Global_tier.trace_id u4;
           u5 = Global_tier.trace_id u5;
         });
    (match Spr_obs.Sink.metrics t.sink with
    | None -> ()
    | Some m ->
        Spr_obs.Sharded.incr (Spr_obs.Sharded.counter m "hybrid/splits");
        Spr_obs.Sharded.add (Spr_obs.Sharded.counter m "hybrid/lock_wait_ticks") wait;
        Spr_obs.Sharded.add (Spr_obs.Sharded.counter m "hybrid/global_insert_ticks") hold;
        Spr_obs.Sharded.observe (Spr_obs.Sharded.histogram m "hybrid/lock_wait") wait);
    s.cur <- u4;
    (* The first steal in a block is the outermost: its U5 is the trace
       of whatever follows the join (inner splits' U5 stay unused,
       matching the pseudocode's discarded return values). *)
    if s.post_block = None then s.post_block <- Some u5;
    wait + hold + (2 * t.costs.local_op)
  in
  let on_block_end ~wid:_ ~now:_ (f : Sim.frame) =
    locked @@ fun () ->
    let s = fstate t f in
    Local_tier.block_ended t.local ~frame_id:f.Sim.fid;
    (match s.post_block with
    | Some u5 ->
        (* Joining switches the frame into U5; what was bagged under U4
           stays behind in U4 (global tier orders U4 before U5 in both
           orders, so those threads read as serial history, exactly
           Lemma 8's cases). *)
        Local_tier.seal_bags t.local ~frame_id:f.Sim.fid;
        s.cur <- u5;
        s.post_block <- None
    | None -> ());
    t.costs.local_op
  in
  let on_return ~wid:_ ~now:_ ~(child : Sim.frame) ~parent ~inline =
    locked @@ fun () ->
    match parent with
    | None -> 0
    | Some (p : Sim.frame) ->
        let cs = fstate t child in
        let ps = fstate t p in
        let same_trace = cs.cur == ps.cur in
        (* Figure 8's U'-threading (lines 8-18) says an inline return
           hands the child's trace to the continuation; under Cilk's
           top-down steal order an inline return implies the child saw
           no steal at all, so the adoption is always the identity —
           asserted rather than performed.  The *merge* decision keys
           on [inline] rather than on trace equality: under real
           concurrency a non-inline return can race ahead of the
           thief's split hook and still observe equal traces, but its
           threads belong to U3 and must stay unmerged. *)
        if inline then assert same_trace;
        Local_tier.child_returned t.local ~child_frame:child.Sim.fid ~parent_frame:p.Sim.fid
          ~merge:inline;
        Hashtbl.remove t.frames child.Sim.fid;
        t.costs.local_op
  in
  let lock_busy ~now = now < t.lock_until in
  { Sim.on_spawn; on_thread; on_steal; on_block_end; on_return; lock_busy }

(* Figure 9. *)
let precedes t ~executed ~current =
  if executed = current then false
  else begin
    let ue = Local_tier.find_trace t.local ~tid:executed in
    let uc = Local_tier.find_trace t.local ~tid:current in
    if ue == uc then Local_tier.local_precedes t.local ~tid:executed
    else Global_tier.precedes t.global ue uc
  end

let parallel t ~executed ~current =
  if executed = current then false
  else begin
    let ue = Local_tier.find_trace t.local ~tid:executed in
    let uc = Local_tier.find_trace t.local ~tid:current in
    if ue == uc then Local_tier.local_parallel t.local ~tid:executed
    else Global_tier.parallel t.global ue uc
  end

let find_trace_id t ~tid = Global_tier.trace_id (Local_tier.find_trace t.local ~tid)

let stats t =
  {
    splits = t.splits;
    traces = Global_tier.trace_count t.global;
    local_ops = Local_tier.ops t.local;
    global_insert_ticks = t.global_insert_ticks;
    lock_wait_ticks = t.lock_wait_ticks;
    query_ticks = t.query_ticks;
    query_retries = Global_tier.query_retries t.global;
    uf_finds = Local_tier.find_count t.local;
    uf_find_steps = Local_tier.find_steps t.local;
  }

let charge_query t =
  t.query_ticks <- t.query_ticks + t.costs.query;
  t.costs.query
