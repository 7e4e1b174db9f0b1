exception Log_full

type mode = Durable | Cached

module Counter = Wsp_obs.Metrics.Counter

type t = {
  nvram : Nvram.t;
  base : int;
  words : int;  (* region capacity in 64-bit words, header included *)
  mutable gen : int;
  mutable head : int;  (* next free word index; word 0 is the gen word *)
  m_appends : Counter.t;
  m_append_words : Counter.t;
  m_truncates : Counter.t;
}

module Bus = Wsp_events.Bus

(* An unformatted view of the region: generation 1, empty. *)
let make nvram ~base ~len =
  let c = Wsp_obs.Metrics.counter (Nvram.metrics nvram) in
  {
    nvram;
    base;
    words = len / 8;
    gen = 1;
    head = 1;
    m_appends = c "nvheap.log.appends";
    m_append_words = c "nvheap.log.append_words";
    m_truncates = c "nvheap.log.truncates";
  }

(* Callers test [observed] first, so an unobserved log builds no
   event. *)
let observed t = Bus.active (Nvram.bus t.nvram)
let emit t (ev : Event.log) = Bus.publish (Nvram.bus t.nvram) (Event.Log ev)

(* Word encoding: (chunk : 32 bits, sign-extended) << 16 | generation :
   16 bits. Each 64-bit logical value occupies two words (low chunk,
   high chunk). A word spans 48 bits, so the write path carries it as
   an [int] and never boxes it. *)

let sext32 x = (x lsl 31) asr 31
let encode_word ~gen chunk = (chunk lsl 16) lor (gen land 0xffff)

let decode_word w =
  let gen = Int64.to_int (Int64.logand w 0xffffL) in
  let chunk = Int64.to_int32 (Int64.shift_right_logical w 16) in
  (gen, chunk)

let word_addr t i = t.base + (8 * i)

let write_word t ~mode i w =
  match mode with
  | Durable -> Nvram.write_int_nt t.nvram ~addr:(word_addr t i) w
  | Cached -> Nvram.write_u64 t.nvram ~addr:(word_addr t i) (Int64.of_int w)

let read_word t i = Nvram.read_u64 t.nvram ~addr:(word_addr t i)

let gen_of_header w = Int64.to_int (Int64.logand w 0xffffL)

let write_gen t ~mode gen =
  write_word t ~mode 0 (gen land 0xffff);
  if mode = Durable then Nvram.fence t.nvram

let create nvram ~base ~len =
  if base mod 8 <> 0 || len < 64 then invalid_arg "Rawlog.create: bad region";
  let t = make nvram ~base ~len in
  write_gen t ~mode:Durable 1;
  t

let base t = t.base
let used_words t = t.head - 1
let generation t = t.gen

(* Record layout: header word whose chunk packs (kind:8 | n_values:24),
   then 2 words per logical value. *)

let header_chunk ~kind ~n =
  assert (kind >= 0 && kind < 256 && n >= 0 && n < 1 lsl 24);
  sext32 ((kind lsl 24) lor n)

let decode_header chunk =
  let v = Int32.to_int (Int32.logand chunk 0xffffffl) in
  let kind = Int32.to_int (Int32.shift_right_logical chunk 24) land 0xff in
  (kind, v)

let record_words n_values = 1 + (2 * n_values)

(* A record is opened (capacity check, counts, announcement, header
   word), filled with [write_value], and closed (fence, head). *)
let open_record t ~mode ~kind ~n =
  if t.head + record_words n > t.words then raise Log_full;
  Counter.incr t.m_appends;
  Counter.add t.m_append_words (record_words n);
  if observed t then emit t (Append { kind; n_values = n });
  write_word t ~mode t.head (encode_word ~gen:t.gen (header_chunk ~kind ~n))

(* Writes value [i] of the open record: low chunk, then high chunk. *)
let[@inline] write_value t ~mode i v =
  let lo = sext32 (Int64.to_int v) in
  let hi = Int64.to_int (Int64.shift_right v 32) in
  write_word t ~mode (t.head + 1 + (2 * i)) (encode_word ~gen:t.gen lo);
  write_word t ~mode (t.head + 2 + (2 * i)) (encode_word ~gen:t.gen hi)

let close_record t ~mode ~n =
  if mode = Durable then Nvram.fence t.nvram;
  t.head <- t.head + record_words n

let append t ~mode ~kind values =
  let n = Array.length values in
  open_record t ~mode ~kind ~n;
  for i = 0 to n - 1 do
    write_value t ~mode i (Array.unsafe_get values i)
  done;
  close_record t ~mode ~n

let append_addr t ~mode ~kind addr v =
  open_record t ~mode ~kind ~n:2;
  write_value t ~mode 0 (Int64.of_int addr);
  write_value t ~mode 1 v;
  close_record t ~mode ~n:2

let truncate t ~mode =
  Counter.incr t.m_truncates;
  if observed t then emit t Truncate;
  t.gen <- (t.gen + 1) land 0xffff;
  if t.gen = 0 then t.gen <- 1;
  t.head <- 1;
  write_gen t ~mode t.gen

let value_of_chunks lo hi =
  Int64.logor
    (Int64.logand (Int64.of_int32 lo) 0xffffffffL)
    (Int64.shift_left (Int64.logand (Int64.of_int32 hi) 0xffffffffL) 32)

let scan_with t read_word_at =
  let gen = gen_of_header (read_word_at 0) in
  let rec records i acc =
    if i >= t.words then List.rev acc
    else
      let g, chunk = decode_word (read_word_at i) in
      if g <> gen then List.rev acc
      else
        let kind, n = decode_header chunk in
        if i + record_words n > t.words then List.rev acc
        else
          let values = Array.make n 0L in
          let torn = ref false in
          for v = 0 to n - 1 do
            let g_lo, lo = decode_word (read_word_at (i + 1 + (2 * v))) in
            let g_hi, hi = decode_word (read_word_at (i + 2 + (2 * v))) in
            if g_lo <> gen || g_hi <> gen then torn := true
            else values.(v) <- value_of_chunks lo hi
          done;
          if !torn then List.rev acc
          else records (i + record_words n) ((kind, values) :: acc)
  in
  records 1 []

let scan t = scan_with t (read_word t)

let scan_persistent t =
  scan_with t (fun i -> Nvram.peek_u64 t.nvram ~addr:(word_addr t i))

let attach nvram ~base ~len =
  let t = make nvram ~base ~len in
  t.gen <- gen_of_header (read_word t 0);
  if t.gen = 0 then begin
    (* Never formatted: format now. *)
    t.gen <- 1;
    write_gen t ~mode:Durable 1
  end;
  let records = scan t in
  let used =
    List.fold_left (fun acc (_, values) -> acc + record_words (Array.length values)) 0 records
  in
  t.head <- 1 + used;
  t
