open Wsp_nvheap

type event = Event.t =
  | Mem of Nvram.event
  | Log of Rawlog.event
  | Tx of Txn.event
  | Wb of { line : int; explicit : bool }
  | Heap of Alloc.event

type t = {
  mutable rev : event list;
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
      f (Heap (Event.Alloc { addr; size })))

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
  events : event array;
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

let pp_event = Event.pp

(* Index in the full stream of the [k]-th memory event, or None. *)
let mem_pos stream k =
  let pos = ref None and seen = ref 0 in
  (try
     Array.iteri
       (fun i ev ->
         match ev with
         | Mem _ ->
             if !seen = k then begin
               pos := Some i;
               raise Exit
             end;
             incr seen
         | Log _ | Tx _ | Wb _ | Heap _ -> ())
       stream
   with Exit -> ());
  !pos

let describe_mem stream k =
  match mem_pos stream k with
  | None -> Fmt.str "mem event %d (beyond trace)" k
  | Some i ->
      (* The nearest preceding annotation locates the event in the
         protocol: which transaction, which log record. *)
      let context = ref None in
      (try
         for j = i - 1 downto 0 do
           match stream.(j) with
           | (Log _ | Tx _) when !context = None ->
               context := Some stream.(j);
               raise Exit
           | Mem _ | Log _ | Tx _ | Wb _ | Heap _ -> ()
         done
       with Exit -> ());
      match !context with
      | None -> Fmt.str "before %a" pp_event stream.(i)
      | Some c -> Fmt.str "before %a (in %a)" pp_event stream.(i) pp_event c
