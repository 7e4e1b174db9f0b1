open Wsp_nvheap

type t = {
  mutable rev : Event.t list;
  mutable mem : int;
  mutable sub : Wsp_events.Bus.subscription option;
}

let create () = { rev = []; mem = 0; sub = None }

(* Baseline: blocks allocated before recording began (structure setup)
   are replayed as synthetic Alloc events so lifetime tracking starts
   from the true heap state. iter_allocated walks addresses ascending,
   so the baseline is deterministic. *)
let iter_baseline heap f =
  Alloc.iter_allocated (Pheap.allocator heap) (fun ~addr ~size ->
      f (Event.Heap (Alloc { addr; size })))

let instrument t heap =
  if Option.is_some t.sub then
    invalid_arg "Trace.instrument: trace already attached";
  iter_baseline heap (fun ev -> t.rev <- ev :: t.rev);
  t.sub <-
    Some
      (Wsp_events.Bus.subscribe (Pheap.bus heap) (fun ev ->
           (match ev with
           | Mem _ -> t.mem <- t.mem + 1
           | Log _ | Tx _ | Wb _ | Heap _ -> ());
           t.rev <- ev :: t.rev))

let detach t =
  match t.sub with
  | None -> ()
  | Some sub ->
      t.sub <- None;
      Wsp_events.Bus.unsubscribe sub

let mem_length t = t.mem
let events t = Array.of_list (List.rev t.rev)

type recording = {
  events : Event.t array;
  line_size : int;
  alloc_base : int;
  alloc_limit : int;
}

let snapshot t heap =
  let nv = Pheap.nvram heap in
  let al = Pheap.allocator heap in
  {
    events = events t;
    line_size = Nvram.line_size nv;
    alloc_base = Alloc.base al;
    alloc_limit = Alloc.limit al;
  }

let describe_mem (stream : Event.t array) k =
  (* Index in the full stream of the [k]-th memory event, or None. *)
  let rec mem_pos i seen =
    if i >= Array.length stream then None
    else
      match stream.(i) with
      | Mem _ when seen = k -> Some i
      | Mem _ -> mem_pos (i + 1) (seen + 1)
      | Log _ | Tx _ | Wb _ | Heap _ -> mem_pos (i + 1) seen
  in
  (* The nearest preceding annotation locates the event in the
     protocol: which transaction, which log record. *)
  let rec context j =
    if j < 0 then None
    else
      match stream.(j) with
      | (Log _ | Tx _) as c -> Some c
      | Mem _ | Wb _ | Heap _ -> context (j - 1)
  in
  match mem_pos 0 0 with
  | None -> Fmt.str "mem event %d (beyond trace)" k
  | Some i -> (
      match context (i - 1) with
      | None -> Fmt.str "before %a" Event.pp stream.(i)
      | Some c -> Fmt.str "before %a (in %a)" Event.pp stream.(i) Event.pp c)
