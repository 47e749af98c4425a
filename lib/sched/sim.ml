open Spr_prog

type frame = {
  fid : int;
  proc : Fj_program.proc;
  parent : frame option;
  mutable block : int;
  mutable item : int;
  mutable outstanding : int;
  mutable stalled : bool;
}

type hooks = {
  on_spawn : wid:int -> now:int -> parent:frame -> child:frame -> int;
  on_thread : wid:int -> now:int -> frame -> Fj_program.thread -> int;
  on_steal : thief:int -> victim:int -> now:int -> frame -> int;
  on_block_end : wid:int -> now:int -> frame -> int;
  on_return : wid:int -> now:int -> child:frame -> parent:frame option -> inline:bool -> int;
  lock_busy : now:int -> bool;
}

let no_hooks =
  {
    on_spawn = (fun ~wid:_ ~now:_ ~parent:_ ~child:_ -> 0);
    on_thread = (fun ~wid:_ ~now:_ _ _ -> 0);
    on_steal = (fun ~thief:_ ~victim:_ ~now:_ _ -> 0);
    on_block_end = (fun ~wid:_ ~now:_ _ -> 0);
    on_return = (fun ~wid:_ ~now:_ ~child:_ ~parent:_ ~inline:_ -> 0);
    lock_busy = (fun ~now:_ -> false);
  }

type result = {
  time : int;
  steals : int;
  steal_attempts : int;
  steal_attempts_lock_held : int;
  work_ticks : int;
  overhead_ticks : int;
  steal_ticks : int;
  hook_ticks : int;
  frames : int;
}

type worker = {
  wid : int;
  deque : frame Spr_util.Deque.t;
  mutable busy_left : int;  (* remaining ticks of the current activity *)
  mutable continue_with : frame option;  (* what to run when free *)
}

type state = {
  hooks : hooks;
  sink : Spr_obs.Sink.t;
  rng : Spr_util.Rng.t;
  workers : worker array;
  mutable now : int;
  mutable done_ : bool;
  mutable next_fid : int;
  (* accounting *)
  mutable steals : int;
  mutable steal_attempts : int;
  mutable steal_attempts_lock_held : int;
  mutable work_ticks : int;
  mutable overhead_ticks : int;
  mutable steal_ticks : int;
  mutable hook_ticks : int;
}

let new_frame st proc parent =
  let f = { fid = st.next_fid; proc; parent; block = 0; item = 0; outstanding = 0; stalled = false } in
  st.next_fid <- st.next_fid + 1;
  f

(* A procedure finished: notify the parent.  Cilk return protocol: pop
   our own deque — if the parent's continuation is still there, continue
   it inline; otherwise the continuation was stolen, so decrement the
   parent's join counter and resume it only if we are the last child
   arriving at its failed sync. *)
let do_return st w f =
  let parent = f.parent in
  (match parent with Some p -> p.outstanding <- p.outstanding - 1 | None -> ());
  let fid = f.fid in
  let inline =
    match Spr_util.Deque.pop_bottom w.deque with
    | Some cont ->
        (* Steals remove older continuations first, so a non-empty
           bottom is necessarily our direct parent. *)
        assert (match parent with Some p -> p == cont | None -> false);
        w.continue_with <- Some cont;
        true
    | None -> begin
        match parent with
        | None ->
            st.done_ <- true;
            w.continue_with <- None;
            false
        | Some p ->
            if p.stalled && p.outstanding = 0 then begin
              p.stalled <- false;
              w.continue_with <- Some p
            end
            else w.continue_with <- None;
            false
      end
  in
  let h = st.hooks.on_return ~wid:w.wid ~now:st.now ~child:f ~parent ~inline in
  st.hook_ticks <- st.hook_ticks + h;
  w.busy_left <- w.busy_left + h;
  Spr_obs.Sink.emit st.sink (Spr_obs.Trace.Return { frame = fid; inline })

(* Process exactly one step of frame [f]; consumes the current tick and
   possibly schedules more busy ticks. *)
let process_step st w f =
  let blocks = f.proc.Fj_program.blocks in
  if f.item >= Array.length blocks.(f.block) then begin
    (* At the sync closing the current block. *)
    if f.outstanding > 0 then begin
      (* Failed sync: park the frame; the last returning child resumes
         it.  Our deque is empty here (see Sim invariants). *)
      assert (Spr_util.Deque.is_empty w.deque);
      f.stalled <- true;
      w.continue_with <- None;
      st.overhead_ticks <- st.overhead_ticks + 1
    end
    else begin
      let h = st.hooks.on_block_end ~wid:w.wid ~now:st.now f in
      Spr_obs.Sink.emit st.sink (Spr_obs.Trace.Sync { frame = f.fid });
      st.hook_ticks <- st.hook_ticks + h;
      st.overhead_ticks <- st.overhead_ticks + 1;
      f.block <- f.block + 1;
      f.item <- 0;
      if f.block >= Array.length blocks then do_return st w f
      else w.continue_with <- Some f;
      w.busy_left <- w.busy_left + h
    end
  end
  else begin
    match blocks.(f.block).(f.item) with
    | Fj_program.Run u ->
        f.item <- f.item + 1;
        let h = st.hooks.on_thread ~wid:w.wid ~now:st.now f u in
        Spr_obs.Sink.emit st.sink
          (Spr_obs.Trace.Thread_run { tid = u.Fj_program.tid; cost = u.Fj_program.cost });
        st.hook_ticks <- st.hook_ticks + h;
        st.work_ticks <- st.work_ticks + u.Fj_program.cost;
        (* This tick is the first of the thread's cost. *)
        w.busy_left <- u.Fj_program.cost + h - 1;
        w.continue_with <- Some f
    | Fj_program.Spawn g ->
        f.item <- f.item + 1;
        f.outstanding <- f.outstanding + 1;
        Spr_util.Deque.push_bottom w.deque f;
        let child = new_frame st g (Some f) in
        let h = st.hooks.on_spawn ~wid:w.wid ~now:st.now ~parent:f ~child in
        Spr_obs.Sink.emit st.sink (Spr_obs.Trace.Spawn { parent = f.fid; child = child.fid });
        st.hook_ticks <- st.hook_ticks + h;
        st.overhead_ticks <- st.overhead_ticks + 1;
        w.busy_left <- h;
        w.continue_with <- Some child
  end

let attempt_steal st w =
  let p = Array.length st.workers in
  st.steal_attempts <- st.steal_attempts + 1;
  st.steal_ticks <- st.steal_ticks + 1;
  if st.hooks.lock_busy ~now:st.now then
    st.steal_attempts_lock_held <- st.steal_attempts_lock_held + 1;
  if p > 1 then begin
    let victim_id =
      let v = Spr_util.Rng.int st.rng (p - 1) in
      if v >= w.wid then v + 1 else v
    in
    let victim = st.workers.(victim_id) in
    match Spr_util.Deque.pop_top victim.deque with
    | Some f ->
        st.steals <- st.steals + 1;
        Spr_obs.Sink.emit st.sink
          (Spr_obs.Trace.Steal { thief = w.wid; victim = victim_id; frame = f.fid });
        let h = st.hooks.on_steal ~thief:w.wid ~victim:victim_id ~now:st.now f in
        st.hook_ticks <- st.hook_ticks + h;
        w.busy_left <- h;
        w.continue_with <- Some f
    | None -> ()
  end

(* Fold the run's bucket accounting into the sink's metrics registry
   (counters accumulate across runs; diff snapshots to isolate one). *)
let record_metrics sink (r : result) =
  match Spr_obs.Sink.metrics sink with
  | None -> ()
  | Some m ->
      let c key v = Spr_obs.Sharded.add (Spr_obs.Sharded.counter m key) v in
      c "sched/steals" r.steals;
      c "sched/steal_attempts" r.steal_attempts;
      c "sched/steal_attempts_lock_held" r.steal_attempts_lock_held;
      c "sched/work_ticks" r.work_ticks;
      c "sched/overhead_ticks" r.overhead_ticks;
      c "sched/steal_ticks" r.steal_ticks;
      c "sched/hook_ticks" r.hook_ticks;
      c "sched/frames" r.frames;
      Spr_obs.Sharded.set (Spr_obs.Sharded.gauge m "sched/time") (float_of_int r.time)

let run ?(hooks = no_hooks) ?(sink = Spr_obs.Sink.null) ?(seed = 1) ?(max_ticks = max_int) ~procs
    program =
  if procs < 1 then invalid_arg "Sim.run: need at least one worker";
  let st =
    {
      hooks;
      sink;
      rng = Spr_util.Rng.create seed;
      workers =
        Array.init procs (fun wid ->
            { wid; deque = Spr_util.Deque.create (); busy_left = 0; continue_with = None });
      now = 0;
      done_ = false;
      next_fid = 0;
      steals = 0;
      steal_attempts = 0;
      steal_attempts_lock_held = 0;
      work_ticks = 0;
      overhead_ticks = 0;
      steal_ticks = 0;
      hook_ticks = 0;
    }
  in
  let root = new_frame st (Fj_program.main program) None in
  st.workers.(0).continue_with <- Some root;
  while not st.done_ do
    Array.iter
      (fun w ->
        if st.done_ then ()
        else if w.busy_left > 0 then w.busy_left <- w.busy_left - 1
        else begin
          Spr_obs.Sink.set_context sink ~now:st.now ~wid:w.wid;
          match w.continue_with with
          | Some f -> process_step st w f
          | None -> attempt_steal st w
        end)
      st.workers;
    st.now <- st.now + 1;
    if st.now > max_ticks then failwith "Sim.run: max_ticks exceeded (scheduler livelock?)"
  done;
  let r =
    {
      time = st.now;
      steals = st.steals;
      steal_attempts = st.steal_attempts;
      steal_attempts_lock_held = st.steal_attempts_lock_held;
      work_ticks = st.work_ticks;
      overhead_ticks = st.overhead_ticks;
      steal_ticks = st.steal_ticks;
      hook_ticks = st.hook_ticks;
      frames = st.next_fid;
    }
  in
  record_metrics sink r;
  r
