type t = {
  lines : int;
  slots : int;  (* lines + 1: one circulating gap slot *)
  gap_interval : int;
  map : int array;  (* logical line -> physical slot *)
  rmap : int array;  (* physical slot -> logical line; -1 = the gap *)
  wear : int array;  (* per-physical-slot write count *)
  mutable gap : int;  (* physical index of the empty slot *)
  mutable since_move : int;
  mutable gap_moves : int;
}

let create ?(gap_interval = 100) ~lines () =
  if lines <= 0 then invalid_arg "Wear_level.create: lines <= 0";
  if gap_interval <= 0 then invalid_arg "Wear_level.create: gap_interval <= 0";
  let slots = lines + 1 in
  {
    lines;
    slots;
    gap_interval;
    map = Array.init lines (fun i -> i);
    rmap = Array.init slots (fun i -> if i < lines then i else -1);
    wear = Array.make slots 0;
    gap = lines;
    since_move = 0;
    gap_moves = 0;
  }

let lines t = t.lines
let slots t = t.slots

let translate t line =
  if line < 0 || line >= t.lines then invalid_arg "Wear_level.translate";
  t.map.(line)

let move_gap t =
  (* The (cyclically) preceding slot's contents move into the gap. *)
  let src = (t.gap - 1 + t.slots) mod t.slots in
  let line = t.rmap.(src) in
  if line >= 0 then begin
    (* The copy is itself a write to the destination slot. *)
    t.wear.(t.gap) <- t.wear.(t.gap) + 1;
    t.map.(line) <- t.gap;
    t.rmap.(t.gap) <- line
  end
  else t.rmap.(t.gap) <- -1;
  t.rmap.(src) <- -1;
  t.gap <- src;
  t.gap_moves <- t.gap_moves + 1

let record_write t line =
  let slot = translate t line in
  t.wear.(slot) <- t.wear.(slot) + 1;
  t.since_move <- t.since_move + 1;
  if t.since_move >= t.gap_interval then begin
    t.since_move <- 0;
    move_gap t
  end

let gap_moves t = t.gap_moves
let wear t = Array.copy t.wear
let max_wear t = Array.fold_left max 0 t.wear

let mean_wear t =
  float_of_int (Array.fold_left ( + ) 0 t.wear) /. float_of_int t.slots

let wear_ratio t =
  let mean = mean_wear t in
  if mean = 0.0 then 1.0 else float_of_int (max_wear t) /. mean

let lifetime_fraction t =
  let m = max_wear t in
  if m = 0 then 1.0 else mean_wear t /. float_of_int m

let check t =
  let seen = Array.make t.slots false in
  let ok = ref (Ok ()) in
  Array.iteri
    (fun line slot ->
      if slot < 0 || slot >= t.slots then
        ok := Error (Fmt.str "line %d maps out of range" line)
      else if slot = t.gap then ok := Error (Fmt.str "line %d maps to the gap" line)
      else if seen.(slot) then ok := Error (Fmt.str "slot %d mapped twice" slot)
      else begin
        seen.(slot) <- true;
        if t.rmap.(slot) <> line then
          ok := Error (Fmt.str "rmap disagrees at slot %d" slot)
      end)
    t.map;
  !ok
