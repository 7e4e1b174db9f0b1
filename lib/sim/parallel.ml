(* A small domain pool for embarrassingly parallel simulation sweeps.

   Jobs are pulled from a shared atomic counter by [jobs] domains
   (including the calling one), results land in a preallocated slot per
   input, so [map] returns results in input order no matter which domain
   finished first — determinism is the contract that lets the experiment
   registry interleave parallel execution with byte-identical output.

   Nested calls (an experiment that itself maps over a sweep while
   [Registry.run_all] is mapping over experiments) degrade to sequential
   execution in the worker rather than multiplying domain counts. *)

let in_worker_key : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

(* 0 = no override; set by the CLI's --jobs. *)
let override = Atomic.make 0

let set_jobs n = Atomic.set override (max n 0)

let env_jobs () =
  match Sys.getenv_opt "WSP_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | Some _ | None -> None)

let default_jobs () =
  if !(Domain.DLS.get in_worker_key) then 1
  else
    match Atomic.get override with
    | n when n >= 1 -> n
    | _ -> (
        match env_jobs () with
        | Some n -> n
        | None -> Domain.recommended_domain_count ())

let hardware_jobs () = max 1 (Domain.recommended_domain_count ())

exception Worker of exn

(* --- the pool ---------------------------------------------------------- *)

(* Helper domains are spawned on demand and kept until the pool closes.
   [pool_run] publishes a job by bumping [round]; each helper runs it
   once and counts itself out of [running]. Both sides spin a while
   before sleeping: a helper woken from a sleep tends to land on the
   waker's core and wait there, so a pool of short jobs that always
   slept would run them one after another. The atomics order every
   helper's writes before [pool_run] returns, as [Domain.join] would. *)
type pool = {
  jobs : int;  (* the concurrency cap *)
  mutable helpers : unit Domain.t list;
  mutable size : int;  (* [List.length helpers] *)
  round : int Atomic.t;
  running : int Atomic.t;  (* helpers still on the current job *)
  mutable job : unit -> unit;
  closed : bool Atomic.t;
  lock : Mutex.t;
  wake : Condition.t;  (* helpers: a new round, or closing *)
  finished : Condition.t;  (* caller: [running] reached 0 *)
}

(* About a millisecond of [cpu_relax] on current x86: longer than the
   shard service's coordinator work between two rounds. *)
let spin_limit = 20_000

(* Spins until [ready ()] or the budget runs out; then sleeps on [cond]
   under the pool's lock until [ready ()]. *)
let await pool cond ready =
  let spins = ref 0 in
  while (not (ready ())) && !spins < spin_limit do
    Domain.cpu_relax ();
    incr spins
  done;
  if not (ready ()) then begin
    Mutex.lock pool.lock;
    while not (ready ()) do
      Condition.wait cond pool.lock
    done;
    Mutex.unlock pool.lock
  end

let helper pool seen () =
  let rec next seen =
    await pool pool.wake (fun () ->
        Atomic.get pool.round <> seen || Atomic.get pool.closed);
    if not (Atomic.get pool.closed) then begin
      pool.job ();
      if Atomic.fetch_and_add pool.running (-1) = 1 then begin
        Mutex.lock pool.lock;
        Condition.signal pool.finished;
        Mutex.unlock pool.lock
      end;
      next (seen + 1)
    end
  in
  next seen

(* Oversubscribing domains is never a win: every domain beyond the core
   count only adds minor-GC synchronisation barriers. On a single-core
   host this turned a 19-workload lint fan-out 3-4x *slower* at --jobs 4
   than sequential, so [jobs] caps concurrency while the domain count
   is clamped to the hardware (none extra on one core: the caller
   drains the queue alone, with pool semantics — every job still runs;
   earliest failure still wins). *)
let helpers_for k = min k (hardware_jobs ()) - 1

(* Runs [work] on the caller and on [helpers_for k] helpers. *)
let pool_run pool k work =
  let want = helpers_for k in
  while pool.size < want do
    pool.helpers <-
      Domain.spawn (helper pool (Atomic.get pool.round)) :: pool.helpers;
    pool.size <- pool.size + 1
  done;
  pool.job <- work;
  Atomic.set pool.running pool.size;
  Mutex.lock pool.lock;
  Atomic.incr pool.round;
  Condition.broadcast pool.wake;
  Mutex.unlock pool.lock;
  work ();
  await pool pool.finished (fun () -> Atomic.get pool.running = 0);
  pool.job <- ignore

let with_pool ?jobs f =
  let jobs = match jobs with Some j -> max j 1 | None -> default_jobs () in
  let pool =
    {
      jobs;
      helpers = [];
      size = 0;
      round = Atomic.make 0;
      running = Atomic.make 0;
      job = ignore;
      closed = Atomic.make false;
      lock = Mutex.create ();
      wake = Condition.create ();
      finished = Condition.create ();
    }
  in
  let close () =
    Mutex.lock pool.lock;
    Atomic.set pool.closed true;
    Condition.broadcast pool.wake;
    Mutex.unlock pool.lock;
    List.iter Domain.join pool.helpers
  in
  Fun.protect ~finally:close (fun () -> f pool)

(* --- map --------------------------------------------------------------- *)

(* The engine behind [map] and [pool_map]: [run k work] executes [work]
   on the caller and on [helpers_for k] other domains, returning once
   every copy has finished. *)
let map_on ~jobs ~run ?chunk f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  if jobs <= 1 || n <= 1 then List.map f xs
  else begin
    let results = Array.make n None in
    let failures = Array.make n None in
    let next = Atomic.make 0 in
    (* Workers claim [chunk] consecutive items per fetch so the shared
       counter amortises over cheap items; the default still leaves ~8
       claims per worker for load balance across uneven item costs. *)
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None -> max 1 (n / (jobs * 8))
    in
    let work () =
      let in_worker = Domain.DLS.get in_worker_key in
      let saved = !in_worker in
      in_worker := true;
      let rec loop () =
        let base = Atomic.fetch_and_add next chunk in
        if base < n then begin
          for i = base to min (base + chunk) n - 1 do
            match f items.(i) with
            | v -> results.(i) <- Some v
            | exception e ->
                failures.(i) <- Some (e, Printexc.get_raw_backtrace ())
          done;
          loop ()
        end
      in
      loop ();
      in_worker := saved
    in
    run (min jobs n) work;
    (* Every job ran; surface the earliest failure by input order so the
       outcome is independent of scheduling. *)
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      failures;
    Array.to_list
      (Array.map
         (function Some v -> v | None -> raise (Worker Not_found))
         results)
  end

(* A one-off call spawns its domains and joins them. A one-call pool
   was tried: on the certify workload (2-vCPU VM) its peak RSS was
   about 10% higher and it was no faster. *)
let map ?jobs ?chunk f xs =
  let jobs = match jobs with Some j -> max j 1 | None -> default_jobs () in
  let run k work =
    let domains = List.init (helpers_for k) (fun _ -> Domain.spawn work) in
    work ();
    List.iter Domain.join domains
  in
  map_on ~jobs ~run ?chunk f xs

let pool_map pool ?chunk f xs =
  (* A job's own pool is busy running it: nest sequentially. *)
  if !(Domain.DLS.get in_worker_key) then List.map f xs
  else map_on ~jobs:pool.jobs ~run:(pool_run pool) ?chunk f xs

(* --- per-domain output capture ------------------------------------- *)

(* Experiments report through [print_*]-style calls; when several run
   concurrently their bytes would interleave on stdout. Output routed
   through this module goes to a domain-local buffer while a capture is
   active, letting the caller print each job's output in input order. *)

let sink_key : Buffer.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let print_string s =
  match !(Domain.DLS.get sink_key) with
  | None -> Stdlib.print_string s
  | Some b -> Buffer.add_string b s

let print_char c =
  match !(Domain.DLS.get sink_key) with
  | None -> Stdlib.print_char c
  | Some b -> Buffer.add_char b c

let print_endline s =
  print_string s;
  print_char '\n'

let print_newline () = print_char '\n'
let printf fmt = Printf.ksprintf print_string fmt

let capture f =
  let cell = Domain.DLS.get sink_key in
  let saved = !cell in
  let buf = Buffer.create 4096 in
  cell := Some buf;
  let restore () = cell := saved in
  match f () with
  | v ->
      restore ();
      (Buffer.contents buf, v)
  | exception e ->
      restore ();
      raise e
