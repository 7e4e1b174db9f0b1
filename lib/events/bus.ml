type 'a t = {
  mutable subs : ('a -> unit) array;  (* dispatch order = subscription order *)
  mutable ids : int array;  (* parallel to [subs]; keys for unsubscribe *)
  mutable next_id : int;
}

(* The handle hides the bus's element type behind a cancel closure, so
   one [subscription] type serves buses of any event type. *)
type subscription = { mutable cancel : (unit -> unit) option }

let create () = { subs = [||]; ids = [||]; next_id = 0 }

(* The hot path: a zero-subscriber bus costs one length load and the
   loop-entry branch. The array is read once, so a subscriber that
   (un)subscribes during dispatch does not affect this delivery. *)
let publish t ev =
  let subs = t.subs in
  for i = 0 to Array.length subs - 1 do
    (Array.unsafe_get subs i) ev
  done

let active t = Array.length t.subs > 0

let remove_at arr k =
  Array.init (Array.length arr - 1) (fun i ->
      if i < k then arr.(i) else arr.(i + 1))

let remove t id =
  let n = Array.length t.ids in
  let rec find i = if i >= n then -1 else if t.ids.(i) = id then i else find (i + 1) in
  let k = find 0 in
  if k >= 0 then begin
    t.subs <- remove_at t.subs k;
    t.ids <- remove_at t.ids k
  end

let subscribe t f =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.subs <- Array.append t.subs [| f |];
  t.ids <- Array.append t.ids [| id |];
  { cancel = Some (fun () -> remove t id) }

let unsubscribe s =
  match s.cancel with
  | None -> ()
  | Some cancel ->
      s.cancel <- None;
      cancel ()

let subscriber_count t = Array.length t.subs

let with_subscriber t f body =
  let s = subscribe t f in
  Fun.protect ~finally:(fun () -> unsubscribe s) body
