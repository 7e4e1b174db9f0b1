(* All experiment output flows through Wsp_sim.Parallel's capturable
   printers so the registry can run experiments on a domain pool and
   still emit byte-identical, in-order output. *)
let print_endline = Wsp_sim.Parallel.print_endline
let print_newline = Wsp_sim.Parallel.print_newline
let printf fmt = Wsp_sim.Parallel.printf fmt

let heading title =
  print_newline ();
  print_endline title;
  print_endline (String.make (String.length title) '=')

let note s = print_endline ("  " ^ s)

let table ~header rows =
  let arity = List.length header in
  List.iter
    (fun row ->
      if List.length row <> arity then invalid_arg "Report.table: ragged row")
    rows;
  let widths = Array.of_list (List.map String.length header) in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
    rows;
  let pad i cell = Printf.sprintf "%-*s" widths.(i) cell in
  let render row = "  " ^ String.concat "  " (List.mapi pad row) in
  print_endline (render header);
  print_endline
    ("  " ^ String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths)));
  List.iter (fun row -> print_endline (render row)) rows

let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '~' |]

let chart_width = 64

let chart ?(height = 16) ?(logx = false) ~xlabel ~ylabel series =
  let points =
    List.concat_map (fun (_, pts) -> pts) series
    |> List.filter (fun (x, _) -> (not logx) || x > 0.0)
  in
  if points <> [] then begin
    let tx x = if logx then log10 x else x in
    let xs = List.map (fun (x, _) -> tx x) points in
    let ys = List.map snd points in
    let xmin = List.fold_left Float.min (List.hd xs) xs in
    let xmax = List.fold_left Float.max (List.hd xs) xs in
    let ymin = Float.min 0.0 (List.fold_left Float.min (List.hd ys) ys) in
    let ymax = List.fold_left Float.max (List.hd ys) ys in
    let xspan = if xmax > xmin then xmax -. xmin else 1.0 in
    let yspan = if ymax > ymin then ymax -. ymin else 1.0 in
    let grid = Array.make_matrix height chart_width ' ' in
    List.iteri
      (fun si (_, pts) ->
        let glyph = glyphs.(si mod Array.length glyphs) in
        List.iter
          (fun (x, y) ->
            if (not logx) || x > 0.0 then begin
              let col =
                int_of_float
                  ((tx x -. xmin) /. xspan *. float_of_int (chart_width - 1))
              in
              let row =
                height - 1
                - int_of_float ((y -. ymin) /. yspan *. float_of_int (height - 1))
              in
              let col = max 0 (min (chart_width - 1) col) in
              let row = max 0 (min (height - 1) row) in
              grid.(row).(col) <- glyph
            end)
          pts)
      series;
    printf "  %s\n" ylabel;
    Array.iteri
      (fun row line ->
        let label =
          if row = 0 then Printf.sprintf "%8.2f" ymax
          else if row = height - 1 then Printf.sprintf "%8.2f" ymin
          else String.make 8 ' '
        in
        printf "  %s |%s\n" label (String.init chart_width (Array.get line)))
      grid;
    printf "  %s +%s\n" (String.make 8 ' ') (String.make chart_width '-');
    printf "  %s  %-*s%s%s\n" (String.make 8 ' ') (chart_width - 8)
      (Printf.sprintf "%.3g" (if logx then 10.0 ** xmin else xmin))
      (Printf.sprintf "%.4g" (if logx then 10.0 ** xmax else xmax))
      (Printf.sprintf "  (%s%s)" xlabel (if logx then ", log scale" else ""));
    List.iteri
      (fun si (name, _) ->
        printf "  %c %s\n" glyphs.(si mod Array.length glyphs) name)
      series
  end

let float_cell ?(decimals = 2) v = Printf.sprintf "%.*f" decimals v
let time_ms_cell t = Printf.sprintf "%.2f" (Wsp_sim.Time.to_ms t)
let time_us_cell t = Printf.sprintf "%.3f" (Wsp_sim.Time.to_us t)

let series ~xlabel ~ylabel named =
  match named with
  | [] -> ()
  | (_, first) :: _ ->
      let xs = List.map fst first in
      List.iter
        (fun (name, points) ->
          if List.map fst points <> xs then
            invalid_arg ("Report.series: mismatched x points in " ^ name))
        named;
      let header = xlabel :: List.map fst named in
      let rows =
        List.mapi
          (fun i x ->
            float_cell ~decimals:3 x
            :: List.map (fun (_, points) -> float_cell ~decimals:3 (snd (List.nth points i))) named)
          xs
      in
      print_endline ("  (" ^ ylabel ^ ")");
      table ~header rows
