open Wsp_sim
open Wsp_nvheap
module Checker = Wsp_check.Checker

type ctx = {
  add_heap : domains:int list -> Pheap.t -> unit;
  set_domain : int -> unit;
}

type cworkload = {
  cname : string;
  cconfig : Config.t;
  cdomains : int;
  crun : ctx -> domains:int -> txns:int -> seed:int -> unit;
  caudit : Pheap.t list -> acked:int64 list -> bool * bool;
}

let heap_size = Units.Size.mib 1
let log_size = Units.Size.kib 64

let make_heap ~config () = Pheap.create ~config ~size:heap_size ~log_size ()

(* Producers round-robin over domains 0..n-2; the single consumer is
   domain n-1, acquiring the published tail every third op. *)
let crun_dqueue ~racy ~config ctx ~domains ~txns ~seed:_ =
  let heap = make_heap ~config () in
  let q = Dstruct.Dqueue.create ~racy heap ~cap:(txns + 1) in
  (* Setup is mkfs, not under analysis: force it durable and clean. *)
  Nvram.wbinvd (Pheap.nvram heap);
  ctx.add_heap ~domains:(List.init domains Fun.id) heap;
  let consumer = domains - 1 in
  let producers = domains - 1 in
  for i = 0 to txns - 1 do
    ctx.set_domain (i mod producers);
    ignore (Dstruct.Dqueue.enqueue_expected q);
    if i mod 3 = 2 then begin
      ctx.set_domain consumer;
      ignore (Dstruct.Dqueue.drain q)
    end
  done;
  ctx.set_domain consumer;
  ignore (Dstruct.Dqueue.drain q)

(* Peer incrementers, one shared cell, rotating through the channel. *)
let crun_dcounter ~racy ~config ctx ~domains ~txns ~seed:_ =
  let heap = make_heap ~config () in
  let c = Dstruct.Dcounter.create ~racy heap in
  Nvram.wbinvd (Pheap.nvram heap);
  ctx.add_heap ~domains:(List.init domains Fun.id) heap;
  for i = 0 to txns - 1 do
    ctx.set_domain (i mod domains);
    Dstruct.Dcounter.incr c
  done

(* Source domain 0 populates its heap, a barrier models the round join
   that starts the migration, then each key moves to destination
   domain 1 — the shard handoff protocol in miniature. Each heap is its
   own domain, so every step is attributed to the heap it acts on. *)
let crun_handoff ~racy ~config ctx ~domains:_ ~txns ~seed:_ =
  let src = make_heap ~config () in
  let dst = make_heap ~config () in
  let slots = max 1 (min txns 64) in
  let h = Dstruct.Handoff.create ~racy ~src ~dst ~slots () in
  Nvram.wbinvd (Pheap.nvram src);
  Nvram.wbinvd (Pheap.nvram dst);
  ctx.add_heap ~domains:[ 0 ] src;
  ctx.add_heap ~domains:[ 1 ] dst;
  for key = 0 to slots - 1 do
    Dstruct.Handoff.put h ~key
  done;
  (* The coordination point between the populate phase and the
     migration — without it every cross-heap read would be racy. *)
  Wsp_events.Bus.publish (Nvram.sync_bus (Pheap.nvram src)) Event.Barrier;
  for key = 0 to slots - 1 do
    Dstruct.Handoff.move h ~key
  done

(* Post-crash audits, (loss, torn): see [caudit] in the interface. The
   racy queue's torn slot is one a published index covers but whose
   payload store was never issued, so no WSP save can rescue it. *)
let caudit_dqueue heaps ~acked =
  let q = Dstruct.Dqueue.attach (List.hd heaps) in
  let hd = Dstruct.Dqueue.head q and tl = Dstruct.Dqueue.tail q in
  let is_acked seq = List.mem (Int64.of_int seq) acked in
  let wrong =
    List.filter
      (fun seq ->
        Dstruct.Dqueue.slot_value q ~seq <> Dstruct.Dqueue.expected ~seq)
      (List.init (max 0 (tl - hd)) (fun i -> hd + i))
  in
  ( List.exists is_acked wrong
    || List.exists (fun seq -> Int64.to_int seq >= tl) acked,
    List.exists (fun seq -> not (is_acked seq)) wrong )

let caudit_dcounter heaps ~acked =
  let c = Dstruct.Dcounter.attach (List.hd heaps) in
  (Int64.to_int (Dstruct.Dcounter.value c) < List.length acked, false)

let caudit_handoff heaps ~acked =
  match heaps with
  | [ src; dst ] ->
      let h = Dstruct.Handoff.attach ~src ~dst () in
      (* Per acked key whose value survives in neither heap: whether
         both copies are gone (loss) rather than wrong (torn). *)
      let gone =
        List.filter_map
          (fun key ->
            let key = Int64.to_int key in
            let e = Dstruct.Handoff.expected ~key in
            let s = Dstruct.Handoff.src_value h ~key in
            let d = Dstruct.Handoff.dst_value h ~key in
            if s <> e && d <> e then Some (s = 0L && d = 0L) else None)
          acked
      in
      (List.mem true gone, List.mem false gone)
  | _ -> invalid_arg "Canalyzer: handoff audits a heap pair"

(* Each structure's clean and racy drivers under FoC-UL and FoF. *)
let cregistry =
  let entry name ~domains crun caudit =
    List.concat_map
      (fun racy ->
        List.map
          (fun config ->
            {
              cname =
                name ^ (if racy then "-racy/" else "/")
                ^ Analyzer.config_slug config;
              cconfig = config;
              cdomains = domains;
              crun = crun ~racy ~config;
              caudit;
            })
          [ Config.foc_ul; Config.fof ])
      [ false; true ]
  in
  entry "dqueue" ~domains:3 crun_dqueue caudit_dqueue
  @ entry "dcounter" ~domains:2 crun_dcounter caudit_dcounter
  @ entry "handoff" ~domains:2 crun_handoff caudit_handoff

let cfind ?workload ?config () =
  List.filter
    (fun w -> Analyzer.matches ~workload ~config ~name:w.cname w.cconfig)
    cregistry

let run_one ?buses w ~txns ~seed =
  let domains =
    (* [handoff]'s protocol is a pair by construction; the others
       absorb extra buses as more producers / peers. *)
    if String.length w.cname >= 7 && String.sub w.cname 0 7 = "handoff" then
      w.cdomains
    else max w.cdomains (Option.value buses ~default:0)
  in
  let machine = Rules.default_machine ~config:w.cconfig () in
  let cs = Crules.create machine ~domains in
  let cur = ref 0 in
  let subs = ref [] in
  let ctx =
    {
      add_heap =
        (fun ~domains:ds heap ->
          List.iter (fun d -> Crules.register cs ~domain:d heap) ds;
          (* A heap added for one domain is that domain's; a shared
             heap's traffic belongs to whichever domain is current. *)
          let domain =
            match ds with [ d ] -> Fun.const d | _ -> fun () -> !cur
          in
          let feed item = Crules.step cs ~domain:(domain ()) item in
          subs :=
            Wsp_events.Bus.subscribe (Pheap.bus heap) (fun ev ->
                feed (Crules.Bus ev))
            :: Wsp_events.Bus.subscribe
                 (Nvram.sync_bus (Pheap.nvram heap))
                 (fun sy -> feed (Crules.Sync sy))
            :: !subs);
      set_domain = (fun d -> cur := d);
    }
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Wsp_events.Bus.unsubscribe !subs;
      subs := [])
    (fun () -> w.crun ctx ~domains ~txns ~seed);
  let result = Crules.finish cs in
  let witness_text = Crules.witness_text cs result in
  {
    Analyzer.workload = w.cname;
    config_name = Analyzer.config_slug w.cconfig;
    fault = Checker.No_fault;
    result;
    witness_text;
  }

let clint ?jobs ?buses ?(txns = 24) ?(seed = 1) ~workloads () =
  if txns < 0 then invalid_arg "Canalyzer.clint: negative txns";
  if Option.value buses ~default:0 < 0 then
    invalid_arg "Canalyzer.clint: negative buses";
  Parallel.map ?jobs (fun w -> run_one ?buses w ~txns ~seed) workloads

(* --- the dynamic twin: crash sweeps over the same drivers ------------- *)

type verdict = {
  points : int;
  losses : int;
  torn : int;
  first_bad : int option;
}

let clean v = v.losses = 0 && v.torn = 0

(* One run of [w]'s own driver, failing power immediately before memory
   event [stop_at] (counted across every heap it adds; [None] only
   counts). A crashed run is power-cycled — a WSP save unless the
   backend is durable without one, then the cut — and audited after
   re-attach. Returns the events seen and the (loss, torn) audit, which
   is clean for a run that finishes before [stop_at]. *)
let crash_run w ~txns ~stop_at =
  let crash = Crash.create ?at:stop_at Crash.Freeze in
  let heaps = ref [] and acked = ref [] and subs = ref [] in
  let ack = function
    | Event.Ack { obj } -> acked := obj :: !acked
    | Event.Write _ | Event.Read _ | Event.Publish _ | Event.Acquire _
    | Event.Handoff_persist _ | Event.Tombstone _ | Event.Barrier ->
        ()
  in
  let ctx =
    {
      add_heap =
        (fun ~domains:_ heap ->
          heaps := heap :: !heaps;
          Crash.watch crash (Pheap.nvram heap);
          subs :=
            Wsp_events.Bus.subscribe (Nvram.sync_bus (Pheap.nvram heap)) ack
            :: !subs);
      set_domain = ignore;
    }
  in
  let completed =
    Fun.protect
      ~finally:(fun () -> List.iter Wsp_events.Bus.unsubscribe !subs)
      (fun () ->
        Crash.run crash [] (fun () ->
            w.crun ctx ~domains:w.cdomains ~txns ~seed:1))
  in
  ( Crash.events crash,
    match completed with
    | Some () -> (false, false)
    | None ->
        let config = w.cconfig and heaps = List.rev !heaps in
        List.iter
          (fun heap ->
            if not (Config.is_durable_without_wsp config) then
              Pheap.wsp_flush heap;
            Pheap.crash heap)
          heaps;
        (* Each heap is re-attached at its own geometry, whatever the
           entry's driver created it with. *)
        let reattach heap =
          Pheap.attach_in ~config
            ~log_size:(Units.Size.bytes (Pheap.log_bytes heap))
            ~nvram:(Pheap.nvram heap) ~base:(Pheap.base heap)
            ~len:(Pheap.region_len heap) ()
        in
        w.caudit (List.map reattach heaps) ~acked:!acked )

let sweep w ~txns =
  (* The uncrashed run counts the points; then one run per point. *)
  let points, _ = crash_run w ~txns ~stop_at:None in
  let audits =
    List.init points (fun i -> snd (crash_run w ~txns ~stop_at:(Some i)))
  in
  let count p = List.length (List.filter p audits) in
  {
    points;
    losses = count fst;
    torn = count snd;
    first_bad =
      Option.map succ
        (List.find_index (fun (loss, tear) -> loss || tear) audits);
  }
