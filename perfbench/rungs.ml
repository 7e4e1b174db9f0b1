(* Single-layer rungs timed apart from any workload: the cache
   hierarchy's load path, hot and cold, and the NVRAM store path with no
   bus subscriber and with one metrics subscriber. *)

open Wsp_sim
open Wsp_nvheap
module Hierarchy = Wsp_machine.Hierarchy

let reps = 15

(* Nanoseconds per call of [f i] over [n] calls. *)
let per_call n f =
  let t0 = Span.now () in
  for i = 0 to n - 1 do
    f i
  done;
  float_of_int (Span.now () - t0) /. float_of_int n

let hierarchy_loads out =
  let nv = Nvram.create ~size:(Units.Size.kib 4) () in
  let h = Hierarchy.create (Hierarchy.config (Nvram.hierarchy nv)) in
  let line = Hierarchy.line_size h in
  let sink = ref Time.zero in
  let load addr = sink := Time.add !sink (Hierarchy.load h ~addr) in
  let n = 20_000 in
  (* Hot: 64 lines that stay resident in L1. Cold: every load is a line
     never touched before, so every level misses. *)
  for i = 0 to 63 do
    load (i * line)
  done;
  let hot =
    List.init reps (fun _ -> per_call n (fun i -> load ((i land 63) * line)))
  in
  let next = ref (64 * line) in
  let cold =
    List.init reps (fun _ ->
        per_call n (fun _ ->
            load !next;
            next := !next + line))
  in
  ignore (Sys.opaque_identity !sink);
  Out.value out "machine.load_hot_ns" (Out.median hot);
  Out.value out "machine.load_cold_ns" (Out.median cold)

(* Each repetition alternates which NVRAM goes first, so drift on a
   shared host favours neither; the medians must order hooked >= bare,
   or the rung reports a measurement fault. *)
let nvram_writes out =
  let bare = Nvram.create ~size:(Units.Size.kib 64) () in
  let hooked = Nvram.create ~size:(Units.Size.kib 64) () in
  ignore (Event_obs.attach (Nvram.bus hooked));
  let write nv i =
    Nvram.write_u64 nv ~addr:(i land 511 * 8) (Int64.of_int i)
  in
  let n = 50_000 in
  let time nv = per_call n (write nv) in
  ignore (time bare);
  ignore (time hooked);
  let b = ref [] and h = ref [] in
  for r = 1 to reps do
    if r land 1 = 0 then begin
      b := time bare :: !b;
      h := time hooked :: !h
    end
    else begin
      h := time hooked :: !h;
      b := time bare :: !b
    end
  done;
  let bare_ns = Out.median !b and hooked_ns = Out.median !h in
  Out.value out "nvram.write_ns" bare_ns;
  Out.value out "nvram.write_hooked_ns" hooked_ns;
  let fault = hooked_ns < bare_ns in
  if fault then
    Printf.eprintf
      "measurement fault: nvram.write_hooked_ns %.2f < nvram.write_ns %.2f\n%!"
      hooked_ns bare_ns;
  Out.value out "trace.measurement_faults" (if fault then 1.0 else 0.0)

let run out =
  hierarchy_loads out;
  nvram_writes out
