type event = {
  name : string;
  cat : string;
  ts_ps : int;
  dur_ps : int;  (* -1 for instants *)
  tid : int;
}

type t = { tid : int; mutable events : event array; mutable size : int }

let global_enabled = Atomic.make false
let set_enabled v = Atomic.set global_enabled v
let enabled () = Atomic.get global_enabled

let next_tid = Atomic.make 0

let create () = { tid = Atomic.fetch_and_add next_tid 1; events = [||]; size = 0 }

let push t ev =
  let capacity = Array.length t.events in
  if t.size = capacity then begin
    let cap' = Stdlib.max 64 (2 * capacity) in
    let events' = Array.make cap' ev in
    Array.blit t.events 0 events' 0 t.size;
    t.events <- events'
  end;
  t.events.(t.size) <- ev;
  t.size <- t.size + 1

let instant ?(cat = "sim") t ~name ~ts =
  if enabled () then push t { name; cat; ts_ps = ts; dur_ps = -1; tid = t.tid }

let span ?(cat = "sim") t ~name ~start_ps ~stop_ps =
  if enabled () then
    push t
      {
        name;
        cat;
        ts_ps = start_ps;
        dur_ps = Stdlib.max 0 (stop_ps - start_ps);
        tid = t.tid;
      }

let events t = Array.to_list (Array.sub t.events 0 t.size)

(* --- ambient per-domain tracers ------------------------------------- *)

let all_ambient : t list ref = ref []
let all_ambient_mu = Mutex.create ()

let ambient_key : t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let tr = create () in
      Mutex.lock all_ambient_mu;
      all_ambient := tr :: !all_ambient;
      Mutex.unlock all_ambient_mu;
      tr)

let ambient () = Domain.DLS.get ambient_key

let snapshot_ambient () =
  Mutex.lock all_ambient_mu;
  let trs = !all_ambient in
  Mutex.unlock all_ambient_mu;
  trs

let reset_all () =
  List.iter
    (fun t ->
      t.size <- 0;
      t.events <- [||])
    (snapshot_ambient ())

(* --- export ---------------------------------------------------------- *)

(* Trace Event Format wants microseconds; 1 ps = 1e-6 us, so six
   decimals render picosecond timestamps exactly. *)
let us_of_ps ps = Printf.sprintf "%.6f" (float_of_int ps /. 1e6)

let to_json evs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n";
      if ev.dur_ps < 0 then
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"g\",\"ts\":%s,\"pid\":0,\"tid\":%d}"
             (Json.escape ev.name) (Json.escape ev.cat) (us_of_ps ev.ts_ps)
             ev.tid)
      else
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":0,\"tid\":%d}"
             (Json.escape ev.name) (Json.escape ev.cat) (us_of_ps ev.ts_ps)
             (us_of_ps ev.dur_ps) ev.tid))
    evs;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents buf

let export_json () =
  let evs = List.concat_map events (List.rev (snapshot_ambient ())) in
  let evs =
    List.stable_sort
      (fun a b ->
        match compare a.ts_ps b.ts_ps with
        | 0 -> (
            match compare a.tid b.tid with
            | 0 -> String.compare a.name b.name
            | c -> c)
        | c -> c)
      evs
  in
  to_json evs
