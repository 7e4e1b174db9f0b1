module Bus = Wsp_events.Bus

exception Power_failure

type mode = Freeze | Defer

(* [Off]: counting only, or power already failed. *)
type phase = Armed of int | Tripped | Off

type t = {
  mode : mode;
  on_trip : unit -> unit;
  mutable phase : phase;
  mutable events : int;
  mutable subs : Bus.subscription list;
}

let create ?at ?(on_trip = ignore) mode =
  let phase = match at with Some k -> Armed k | None -> Off in
  { mode; on_trip; phase; events = 0; subs = [] }

let observe t = function
  | Event.Mem _ -> (
      let i = t.events in
      t.events <- i + 1;
      match t.phase with
      | Armed k when i >= k ->
          t.phase <- Tripped;
          t.on_trip ();
          if t.mode = Freeze then raise Power_failure
      | Tripped when t.mode = Freeze -> raise Power_failure
      | Armed _ | Tripped | Off -> ())
  | Event.Wb _ | Event.Log _ | Event.Tx _ | Event.Heap _ -> ()

let watch t nvram =
  t.subs <- Bus.subscribe (Nvram.bus nvram) (observe t) :: t.subs

let run t nvrams f =
  Fun.protect
    ~finally:(fun () ->
      List.iter Bus.unsubscribe t.subs;
      t.subs <- [])
    (fun () ->
      List.iter (watch t) nvrams;
      match f () with
      | v -> Some v
      | exception Power_failure ->
          t.phase <- Off;
          None)

let checkpoint t =
  if t.phase = Tripped then begin
    t.phase <- Off;
    raise Power_failure
  end

let events t = t.events

let select ~rng ~total ~budget =
  if budget <= 0 then invalid_arg "Crash.select: budget must be positive";
  if total <= budget then (List.init total Fun.id, true)
  else
    let arr = Array.init total Fun.id in
    Wsp_sim.Rng.shuffle rng arr;
    (List.sort compare (Array.to_list (Array.sub arr 0 budget)), false)
