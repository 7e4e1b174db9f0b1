type t = {
  mutable clock : Time.t;
  queue : (t -> unit) Event_queue.t;
  m_dispatched : Wsp_obs.Metrics.Counter.t;
  m_depth : Wsp_obs.Metrics.Gauge.t;
}

let create () =
  let reg = Wsp_obs.Metrics.ambient () in
  {
    clock = Time.zero;
    queue = Event_queue.create ();
    m_dispatched = Wsp_obs.Metrics.counter reg "sim.engine.events_dispatched";
    m_depth = Wsp_obs.Metrics.gauge reg "sim.engine.queue_depth";
  }

let now t = t.clock

let schedule t ~after f =
  if Time.is_negative after then invalid_arg "Engine.schedule: negative delay";
  Event_queue.push t.queue ~at:(Time.add t.clock after) f;
  Wsp_obs.Metrics.Gauge.set t.m_depth
    (float_of_int (Event_queue.length t.queue))

let pending t = Event_queue.length t.queue

let step t =
  match Event_queue.pop t.queue with
  | None -> false
  | Some (at, f) ->
      t.clock <- at;
      Wsp_obs.Metrics.Counter.incr t.m_dispatched;
      f t;
      true

let run t =
  while step t do
    ()
  done

let run_until t deadline =
  let rec loop () =
    match Event_queue.peek_time t.queue with
    | Some at when Time.(at <= deadline) ->
        ignore (step t);
        loop ()
    | _ -> ()
  in
  loop ();
  if Time.(deadline > t.clock) then t.clock <- deadline
