open Wsp_nvheap
module Trace = Wsp_check.Trace

type item = Bus of Event.t | Sync of Event.sync

let ring_size = 1024

(* Growable local->global witness-index map: one slot per event fed to a
   domain's embedded Rules stream, in feed order. *)
type gmap = { mutable a : int array; mutable n : int }

let gmap_make () = { a = Array.make 64 0; n = 0 }

let gmap_push m v =
  if m.n = Array.length m.a then begin
    let b = Array.make (2 * Array.length m.a) 0 in
    Array.blit m.a 0 b 0 m.n;
    m.a <- b
  end;
  m.a.(m.n) <- v;
  m.n <- m.n + 1

(* Commit-seal progress for transactional (addr < 0) objects: their
   persist is ordered once the commit record appended after [Tx Commit]
   is drained by a working fence. *)
type seal = Seal_idle | Seal_await_append | Seal_await_fence

type dstate = {
  clock : Vclock.t;
  mutable rs : Rules.stream option;
  gmap : gmap;
  mutable pend_addr : int64 list;  (** awaiting line persist-order *)
  mutable pend_tx : int64 list;  (** awaiting commit seal *)
  mutable seal : seal;
}

type obj_state = {
  mutable writer : int;
  mutable wclock : Vclock.t;
  mutable widx : int;
  mutable addr : int;
  mutable durable : bool;
  mutable dclock : Vclock.t;
  mutable didx : int;
  mutable handoff : (Vclock.t * int) option;
      (** destination clock + index at [Handoff_persist]. *)
}

type stream = {
  m : Rules.machine;
  ndomains : int;
  doms : dstate array;
  objs : (int64, obj_state) Hashtbl.t;
  chans : (int, Vclock.t) Hashtbl.t;
  convicted : (Rules.rule * int64, unit) Hashtbl.t;
  ring : (int * int * item) option array;  (** global idx, domain, item *)
  mutable gidx : int;
  mutable races : Rules.diagnostic list;  (** R6–R9, reverse order *)
}

let create m ~domains =
  if domains <= 0 then invalid_arg "Crules.create: domains must be positive";
  {
    m;
    ndomains = domains;
    doms =
      Array.init domains (fun _ ->
          {
            clock = Vclock.make ~domains;
            rs = None;
            gmap = gmap_make ();
            pend_addr = [];
            pend_tx = [];
            seal = Seal_idle;
          });
    objs = Hashtbl.create 64;
    chans = Hashtbl.create 8;
    convicted = Hashtbl.create 8;
    ring = Array.make ring_size None;
    gidx = 0;
    races = [];
  }

let index s = s.gidx

let convict s rule ~obj witness fmt =
  if Hashtbl.mem s.convicted (rule, obj) then Fmt.kstr ignore fmt
  else begin
    Hashtbl.add s.convicted (rule, obj) ();
    Fmt.kstr
      (fun message ->
        s.races <-
          {
            Rules.rule;
            severity = Rules.Error;
            message;
            line = None;
            txid = None;
            witness;
            wasted_ns = None;
          }
          :: s.races)
      fmt
  end

let mark_durable d o ~g =
  o.durable <- true;
  o.dclock <- Vclock.copy d.clock;
  o.didx <- g

(* A fence (or wbinvd, [force]) landed on [domain]: realise durability
   for its address-annotated objects whose line is now persist-ordered
   in the domain's own frontier. *)
let settle_addr ?(force = false) s domain d ~g =
  match d.rs with
  | None -> ()
  | Some rs ->
      let pdag = Rules.stream_pdag rs in
      d.pend_addr <-
        List.filter
          (fun key ->
            match Hashtbl.find_opt s.objs key with
            | None -> false
            | Some o when o.writer <> domain || o.durable -> false
            | Some o ->
                let sealed =
                  force
                  ||
                  match Pdag.status pdag ~line:(Pdag.line_of pdag o.addr) with
                  | Pdag.Persist_ordered _ -> true
                  | Pdag.Never_stored | Pdag.Dirty _ | Pdag.Flushed _ -> false
                in
                if sealed then mark_durable d o ~g;
                not sealed)
          d.pend_addr

let settle_tx s domain d ~g =
  List.iter
    (fun key ->
      match Hashtbl.find_opt s.objs key with
      | Some o when o.writer = domain && not o.durable -> mark_durable d o ~g
      | _ -> ())
    d.pend_tx;
  d.pend_tx <- []

let persist_pending o clock =
  not (o.durable && Vclock.leq o.dclock clock)

let handle_sync s domain d ~g = function
  | Event.Write { obj; addr } ->
      (match Hashtbl.find_opt s.objs obj with
      | Some o when o.writer <> domain && persist_pending o d.clock ->
          convict s Rules.R6 ~obj [ o.widx; g ]
            "durability race: obj 0x%Lx written by d%d is not persist-ordered \
             before d%d overwrites it"
            obj o.writer domain
      | _ -> ());
      let o =
        match Hashtbl.find_opt s.objs obj with
        | Some o -> o
        | None ->
            let o =
              {
                writer = domain;
                wclock = d.clock;
                widx = g;
                addr;
                durable = false;
                dclock = d.clock;
                didx = g;
                handoff = None;
              }
            in
            Hashtbl.add s.objs obj o;
            o
      in
      o.writer <- domain;
      o.wclock <- Vclock.copy d.clock;
      o.widx <- g;
      o.addr <- addr;
      o.handoff <- None;
      if
        (not (Config.is_durable_without_wsp s.m.Rules.config))
        && not s.m.Rules.wsp_save_broken
      then
        (* Flush-on-fail with a working save path: every store is
           durable the moment it issues. *)
        mark_durable d o ~g
      else begin
        o.durable <- false;
        if addr >= 0 then d.pend_addr <- obj :: d.pend_addr
        else d.pend_tx <- obj :: d.pend_tx
      end
  | Event.Read { obj } -> (
      match Hashtbl.find_opt s.objs obj with
      | Some o when o.writer <> domain && persist_pending o d.clock ->
          convict s Rules.R9 ~obj [ o.widx; g ]
            "unpublished-fence reliance: d%d reads obj 0x%Lx whose persist \
             (written by d%d) is still pending at the reader's frontier"
            domain obj o.writer
      | _ -> ())
  | Event.Ack { obj } -> (
      match Hashtbl.find_opt s.objs obj with
      | None ->
          convict s Rules.R7 ~obj [ g ]
            "ack-before-persist: obj 0x%Lx acked by d%d but never written" obj
            domain
      | Some o when persist_pending o d.clock ->
          convict s Rules.R7 ~obj [ o.widx; g ]
            "ack-before-persist: obj 0x%Lx made client-visible by d%d before \
             its persist is ordered"
            obj domain
      | Some _ -> ())
  | Event.Publish { chan } -> (
      match Hashtbl.find_opt s.chans chan with
      | None -> Hashtbl.replace s.chans chan (Vclock.copy d.clock)
      | Some c -> Vclock.merge ~into:c d.clock)
  | Event.Acquire { chan } -> (
      match Hashtbl.find_opt s.chans chan with
      | None -> ()
      | Some c -> Vclock.merge ~into:d.clock c)
  | Event.Handoff_persist { obj } -> (
      match Hashtbl.find_opt s.objs obj with
      | None ->
          convict s Rules.R8 ~obj [ g ]
            "handoff-order violation: obj 0x%Lx declared persisted at d%d but \
             never written there"
            obj domain
      | Some o ->
          if persist_pending o d.clock then
            convict s Rules.R8 ~obj [ o.widx; g ]
              "handoff-order violation: obj 0x%Lx declared persisted at d%d \
               before its destination persist is ordered"
              obj domain;
          o.handoff <- Some (Vclock.copy d.clock, g))
  | Event.Tombstone { obj } -> (
      match Hashtbl.find_opt s.objs obj with
      | None ->
          convict s Rules.R8 ~obj [ g ]
            "handoff-order violation: obj 0x%Lx tombstoned at d%d but never \
             handed off"
            obj domain
      | Some o -> (
          match o.handoff with
          | None ->
              convict s Rules.R8 ~obj [ o.widx; g ]
                "handoff-order violation: obj 0x%Lx tombstoned at d%d before \
                 any destination persist was published"
                obj domain
          | Some (hclock, hidx) ->
              (* The handoff edge exists as a code-ordering fact even
                 when it is too early — acquire it, then judge. *)
              Vclock.merge ~into:d.clock hclock;
              if persist_pending o d.clock then
                convict s Rules.R8 ~obj [ hidx; g ]
                  "handoff-order violation: obj 0x%Lx tombstoned at d%d \
                   before its destination persist is ordered"
                  obj domain;
              o.handoff <- None))
  | Event.Barrier ->
      let acc = Vclock.make ~domains:s.ndomains in
      Array.iter (fun ds -> Vclock.merge ~into:acc ds.clock) s.doms;
      Array.iter (fun ds -> Vclock.merge ~into:ds.clock acc) s.doms

let step s ~domain item =
  if domain < 0 || domain >= s.ndomains then
    invalid_arg "Crules.step: domain out of range";
  let d = s.doms.(domain) in
  let g = s.gidx in
  s.gidx <- g + 1;
  s.ring.(g mod ring_size) <- Some (g, domain, item);
  Vclock.tick d.clock ~domain;
  match item with
  | Sync sy -> handle_sync s domain d ~g sy
  | Bus ev -> (
      match d.rs with
      | None ->
          invalid_arg "Crules.step: domain not registered for bus events"
      | Some rs -> (
          gmap_push d.gmap g;
          Rules.stream_step rs ev;
          match ev with
          | Event.Tx (Event.Commit _) ->
              if d.seal = Seal_idle then d.seal <- Seal_await_append
          | Event.Log (Event.Append _) ->
              if d.seal = Seal_await_append then d.seal <- Seal_await_fence
          | Event.Mem Event.Fence ->
              settle_addr s domain d ~g;
              if d.seal = Seal_await_fence && not s.m.Rules.fences_broken
              then begin
                settle_tx s domain d ~g;
                d.seal <- Seal_idle
              end
          | Event.Mem Event.Wbinvd ->
              (* wbinvd persists everything regardless of fence
                 sabotage — mirror Pdag's sealing semantics. *)
              settle_addr ~force:true s domain d ~g;
              settle_tx s domain d ~g;
              d.seal <- Seal_idle
          | Event.Tx (Event.Begin _ | Event.Abort _)
          | Event.Log Event.Truncate
          | Event.Mem
              ( Event.Store _ | Event.Store_nt _ | Event.Clflush _
              | Event.Flush_range _ )
          | Event.Wb _ | Event.Heap _ ->
              ()))

let register s ~domain heap =
  if domain < 0 || domain >= s.ndomains then
    invalid_arg "Crules.register: domain out of range";
  let d = s.doms.(domain) in
  if d.rs <> None then invalid_arg "Crules.register: domain already registered";
  let al = Pheap.allocator heap in
  d.rs <-
    Some
      (Rules.stream_create s.m
         ~line_size:(Nvram.line_size (Pheap.nvram heap))
         ~alloc_base:(Alloc.base al) ~alloc_limit:(Alloc.limit al));
  Trace.iter_baseline heap (fun ev -> step s ~domain (Bus ev))

let finish s =
  let acc = ref (List.rev s.races) in
  let mem_events = ref 0
  and txns = ref 0
  and epochs = ref 0
  and dirty = ref 0 in
  Array.iter
    (fun d ->
      match d.rs with
      | None -> ()
      | Some rs ->
          let r = Rules.stream_finish rs in
          let rebase i = if i >= 0 && i < d.gmap.n then d.gmap.a.(i) else i in
          List.iter
            (fun (dg : Rules.diagnostic) ->
              acc :=
                { dg with Rules.witness = List.map rebase dg.witness } :: !acc)
            r.Rules.diagnostics;
          mem_events := !mem_events + r.Rules.stats.mem_events;
          txns := !txns + r.Rules.stats.txns;
          epochs := !epochs + r.Rules.stats.epochs;
          dirty := !dirty + r.Rules.stats.max_dirty_bytes)
    s.doms;
  {
    Rules.diagnostics = List.sort Rules.compare_diagnostics !acc;
    stats =
      {
        events = s.gidx;
        mem_events = !mem_events;
        txns = !txns;
        epochs = !epochs;
        max_dirty_bytes = !dirty;
      };
  }

let witness_text s (r : Rules.result) =
  let wanted = Hashtbl.create 16 in
  List.iter
    (fun (dg : Rules.diagnostic) ->
      List.iter (fun i -> Hashtbl.replace wanted i ()) dg.Rules.witness)
    r.Rules.diagnostics;
  Hashtbl.fold
    (fun i () lines ->
      match s.ring.(i mod ring_size) with
      | Some (g, dom, item) when g = i ->
          let text =
            match item with
            | Bus ev -> Fmt.str "d%d %a" dom Event.pp ev
            | Sync sy -> Fmt.str "d%d %a" dom Event.pp_sync sy
          in
          (i, text) :: lines
      | _ -> lines)
    wanted []
  |> List.sort compare
