(* Findings of one harness run, printed by [print] as the last line of
   standard output for run.py: timing samples, single values,
   correctness checks, and the operations attempted and failed. *)

type t = {
  samples : (string, float list) Hashtbl.t;  (* newest first *)
  values : (string, float) Hashtbl.t;
  checks : (string, int * int) Hashtbl.t;  (* passed, failed *)
  mutable attempted : int;
  mutable failed : int;
}

let create () =
  {
    samples = Hashtbl.create 8;
    values = Hashtbl.create 64;
    checks = Hashtbl.create 16;
    attempted = 0;
    failed = 0;
  }

let sample t name v =
  let old = Option.value (Hashtbl.find_opt t.samples name) ~default:[] in
  Hashtbl.replace t.samples name (v :: old)

let value t name v = Hashtbl.replace t.values name v

(* A layer the workload bypasses reports zero, so the bypass shows as a
   count instead of a missing metric. *)
let idle t names = List.iter (fun n -> value t n 0.0) names

let ops t ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed

(* A failed check counts as a failed operation, so a run that skips
   work it should have done cannot come out clean. *)
let check t name ok =
  let p, f = Option.value (Hashtbl.find_opt t.checks name) ~default:(0, 0) in
  Hashtbl.replace t.checks name (if ok then (p + 1, f) else (p, f + 1));
  ops t ~attempted:1 ~failed:(if ok then 0 else 1);
  if not ok then Printf.eprintf "check failed: %s\n%!" name

let ratio a b = if b = 0.0 then 0.0 else a /. b

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let print t =
  let obj render h =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (render v))
    |> String.concat ","
    |> Printf.sprintf "{%s}"
  in
  Printf.printf
    "{\"samples\":%s,\"values\":%s,\"checks\":%s,\"attempted\":%d,\"failed\":%d}\n%!"
    (obj (fun l -> "[" ^ String.concat "," (List.rev_map num l) ^ "]") t.samples)
    (obj num t.values)
    (obj (fun (p, f) -> Printf.sprintf "[%d,%d]" p f) t.checks)
    t.attempted t.failed
