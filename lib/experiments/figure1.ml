open Wsp_power

type point = {
  cycles : int;
  best : float;
  datasheet : float;
  worst : float;
  battery : float;
}

let data () =
  List.init 11 (fun i ->
      let cycles = 10_000 * i in
      {
        cycles;
        best = Ultracap.capacitance_fraction ~cycles ~band:Ultracap.Best;
        datasheet = Ultracap.capacitance_fraction ~cycles ~band:Ultracap.Datasheet;
        worst = Ultracap.capacitance_fraction ~cycles ~band:Ultracap.Worst;
        battery = Ultracap.battery_capacity_fraction ~cycles;
      })

let run ~full:_ =
  Report.heading
    "Figure 1: Effect of charge-discharge cycles on ultracapacitors (% capacitance)";
  Report.table
    ~header:[ "Cycles"; "Best case"; "Datasheet"; "Worst case"; "Battery" ]
    (List.map
       (fun p ->
         [
           string_of_int p.cycles;
           Report.float_cell (100.0 *. p.best);
           Report.float_cell (100.0 *. p.datasheet);
           Report.float_cell (100.0 *. p.worst);
           Report.float_cell (100.0 *. p.battery);
         ])
       (data ()));
  Report.note
    "ultracaps retain >=90% capacitance at 100,000 cycles; batteries collapse within a few hundred"
