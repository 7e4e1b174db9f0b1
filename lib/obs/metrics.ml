module Counter = struct
  type t = { mutable n : int }

  let make () = { n = 0 }
  let incr c = c.n <- c.n + 1
  let add c k = c.n <- c.n + k
  let value c = c.n
  let reset c = c.n <- 0
end

module Gauge = struct
  type t = { mutable last : float; mutable hi : float; mutable samples : int }

  let make () = { last = 0.0; hi = 0.0; samples = 0 }

  let set g v =
    if g.samples = 0 || v > g.hi then g.hi <- v;
    g.last <- v;
    g.samples <- g.samples + 1

  let value g = g.last
  let peak g = g.hi
  let touched g = g.samples > 0

  let reset g =
    g.last <- 0.0;
    g.hi <- 0.0;
    g.samples <- 0

  let merge ~into src =
    if src.samples > 0 then begin
      if into.samples = 0 || src.hi > into.hi then into.hi <- src.hi;
      into.last <- into.hi;
      into.samples <- into.samples + src.samples
    end
end

module Histogram = struct
  let n_buckets = 64

  type t = {
    counts : int array;
    mutable n : int;
    mutable total : int;
    mutable hi : int;
  }

  let make () = { counts = Array.make n_buckets 0; n = 0; total = 0; hi = 0 }

  (* Bucket 0: v <= 0; bucket i >= 1: 2^(i-1) <= v < 2^i. *)
  let bucket_of v =
    if v <= 0 then 0
    else begin
      let b = ref 0 and v = ref v in
      while !v > 0 do
        incr b;
        v := !v lsr 1
      done;
      if !b > n_buckets - 1 then n_buckets - 1 else !b
    end

  let observe h v =
    let b = bucket_of v in
    h.counts.(b) <- h.counts.(b) + 1;
    h.n <- h.n + 1;
    h.total <- h.total + v;
    if v > h.hi then h.hi <- v

  let count h = h.n
  let sum h = h.total
  let max_sample h = h.hi
  let bucket_counts h = Array.copy h.counts
  let bucket_lower_bound i = if i <= 0 then 0 else 1 lsl (i - 1)

  let reset h =
    Array.fill h.counts 0 n_buckets 0;
    h.n <- 0;
    h.total <- 0;
    h.hi <- 0

  let merge ~into src =
    if src.n > 0 then begin
      Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
      into.n <- into.n + src.n;
      into.total <- into.total + src.total;
      if src.hi > into.hi then into.hi <- src.hi
    end
end

type metric =
  | C of Counter.t
  | G of Gauge.t
  | H of Histogram.t

type t = { metrics : (string, metric) Hashtbl.t }

let create () = { metrics = Hashtbl.create 64 }

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let clash name existing wanted =
  invalid_arg
    (Printf.sprintf "Metrics: %S is a %s, requested as a %s" name
       (kind_name existing) wanted)

let counter t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (C c) -> c
  | Some ((G _ | H _) as m) -> clash name m "counter"
  | None ->
      let c = Counter.make () in
      Hashtbl.add t.metrics name (C c);
      c

let gauge t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (G g) -> g
  | Some ((C _ | H _) as m) -> clash name m "gauge"
  | None ->
      let g = Gauge.make () in
      Hashtbl.add t.metrics name (G g);
      g

let histogram t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (H h) -> h
  | Some ((C _ | G _) as m) -> clash name m "histogram"
  | None ->
      let h = Histogram.make () in
      Hashtbl.add t.metrics name (H h);
      h

let merge_into ~into src =
  Hashtbl.iter
    (fun name m ->
      match m with
      | C c -> Counter.add (counter into name) (Counter.value c)
      | G g -> Gauge.merge ~into:(gauge into name) g
      | H h -> Histogram.merge ~into:(histogram into name) h)
    src.metrics

(* --- JSON export ---------------------------------------------------- *)

(* Gauges hold small non-negative magnitudes (queue depths, ratios);
   %.12g prints them exactly and deterministically. *)
let float_repr v = Printf.sprintf "%.12g" v

let sorted_bindings t =
  Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.metrics []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_json t =
  let bindings = sorted_bindings t in
  let buf = Buffer.create 1024 in
  let section header pick render =
    Buffer.add_string buf header;
    let first = ref true in
    List.iter
      (fun (name, m) ->
        match pick m with
        | None -> ()
        | Some payload ->
            if not !first then Buffer.add_char buf ',';
            first := false;
            Buffer.add_string buf (Printf.sprintf "\"%s\":" (Json.escape name));
            render payload)
      bindings;
    Buffer.add_char buf '}'
  in
  Buffer.add_char buf '{';
  section "\"counters\":{"
    (function C c when Counter.value c <> 0 -> Some c | C _ | G _ | H _ -> None)
    (fun c -> Buffer.add_string buf (string_of_int (Counter.value c)));
  section ",\"gauges\":{"
    (function G g when Gauge.touched g -> Some g | C _ | G _ | H _ -> None)
    (fun g -> Buffer.add_string buf (float_repr (Gauge.peak g)));
  section ",\"histograms\":{"
    (function H h when Histogram.count h > 0 -> Some h | C _ | G _ | H _ -> None)
    (fun h ->
      Buffer.add_string buf
        (Printf.sprintf "{\"count\":%d,\"sum\":%d,\"max\":%d,\"buckets\":["
           (Histogram.count h) (Histogram.sum h) (Histogram.max_sample h));
      let first = ref true in
      Array.iteri
        (fun i c ->
          if c > 0 then begin
            if not !first then Buffer.add_char buf ',';
            first := false;
            Buffer.add_string buf
              (Printf.sprintf "[%d,%d]" (Histogram.bucket_lower_bound i) c)
          end)
        h.Histogram.counts;
      Buffer.add_string buf "]}");
  Buffer.add_char buf '}';
  Buffer.contents buf

(* --- ambient per-domain registries ---------------------------------- *)

(* Every domain that records metrics gets its own registry on first use,
   so the hot path never contends on a lock. A registry outlives its
   domain: every one ever made stays in [all_ambient] (behind a mutex
   touched only at domain birth and death) so [merged] can fold them
   after the domains are gone, and a dying domain hands its registry to
   [idle] for the next new domain to keep counting into. Merging sums
   counters and histograms and takes the maximum of gauges, so which
   domain a registry served is not observable in [merged]; reuse only
   keeps a program that spawns domain after domain from growing a
   registry per domain. *)

let all_ambient : t list ref = ref []
let idle : t list ref = ref []
let all_ambient_mu = Mutex.create ()

let ambient_key : t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock all_ambient_mu;
      let reg =
        match !idle with
        | reg :: rest ->
            idle := rest;
            reg
        | [] ->
            let reg = create () in
            all_ambient := reg :: !all_ambient;
            reg
      in
      Mutex.unlock all_ambient_mu;
      Domain.at_exit (fun () ->
          Mutex.lock all_ambient_mu;
          idle := reg :: !idle;
          Mutex.unlock all_ambient_mu);
      reg)

let ambient () = Domain.DLS.get ambient_key

let snapshot_ambient () =
  Mutex.lock all_ambient_mu;
  let regs = !all_ambient in
  Mutex.unlock all_ambient_mu;
  regs

let merged () =
  let dst = create () in
  List.iter (fun reg -> merge_into ~into:dst reg) (snapshot_ambient ());
  dst

let reset_all () =
  List.iter
    (fun reg ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | C c -> Counter.reset c
          | G g -> Gauge.reset g
          | H h -> Histogram.reset h)
        reg.metrics)
    (snapshot_ambient ())
