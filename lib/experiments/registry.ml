type t = { name : string; title : string; run : full:bool -> unit }

let all =
  [
    {
      name = "table1";
      title = "Update throughput for OpenLDAP: Mnemosyne vs WSP";
      run = Table1.run;
    };
    {
      name = "table2";
      title = "Cache flush times using different instructions";
      run = Table2.run;
    };
    {
      name = "figure1";
      title = "Effect of charge-discharge cycles on ultracapacitors";
      run = Figure1.run;
    };
    {
      name = "figure2";
      title = "Ultracapacitor voltage and power during NVDIMM save";
      run = Figure2.run;
    };
    {
      name = "figure5";
      title = "Hash table microbenchmark performance";
      run = Figure5.run;
    };
    {
      name = "figure6";
      title = "Residual energy window (Intel testbed)";
      run = Figure6.run;
    };
    {
      name = "figure7";
      title = "Residual energy windows across configurations";
      run = Figure7.run;
    };
    {
      name = "figure8";
      title = "Context save and cache flush times";
      run = Figure8.run;
    };
    { name = "figure9"; title = "Device state save time"; run = Figure9.run };
    {
      name = "summary";
      title = "Save time vs residual window; supercap provisioning";
      run = Summary.run;
    };
    {
      name = "motivation";
      title = "Recovery storms and replication tradeoffs";
      run = Motivation.run;
    };
    {
      name = "protocol";
      title = "End-to-end WSP power-failure cycles";
      run = Protocol.run;
    };
    {
      name = "models";
      title = "Block-based vs persistent heap vs whole-system (3.2)";
      run = Models.run;
    };
    {
      name = "scm";
      title = "Flush-on-commit vs flush-on-fail on SCMs (6)";
      run = Scm.run;
    };
    {
      name = "hibernate";
      title = "Hibernate-to-SSD vs parallel NVDIMM save (2)";
      run = Wsp_core.Hibernate.run_table;
    };
    {
      name = "process";
      title = "Whole-system vs process persistence (6)";
      run = Process_persistence.run;
    };
    {
      name = "structures";
      title = "Flush-on-fail advantage across data structures (7)";
      run = Structures.run;
    };
    {
      name = "ablation";
      title = "Design ablations: valid marker, device strategies";
      run = Ablation.run;
    };
    {
      name = "distributed";
      title = "Replicated KV: log catch-up vs re-replication (6)";
      run = Distributed.run;
    };
    {
      name = "wear";
      title = "PCM wear leveling under skewed writes (2)";
      run = Wear.run;
    };
    {
      name = "skew";
      title = "FoC/FoF gap under Zipfian key popularity";
      run = Skew.run;
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) all

(* Runs one experiment with its output captured instead of printed;
   returns the bytes it produced and the exception it raised, if any. *)
let captured_run ~full e =
  Wsp_sim.Parallel.capture (fun () ->
      match e.run ~full with () -> None | exception ex -> Some ex)

let run_all ~full () =
  let jobs = Wsp_sim.Parallel.default_jobs () in
  if jobs <= 1 then
    (* Sequential: stream each experiment's output as it runs. *)
    List.iter (fun e -> e.run ~full) all
  else begin
    (* Parallel: experiments are independent simulations; each one's
       output is captured in its own buffer and printed in registry
       order, so the bytes on stdout are identical to a sequential run.
       A failing experiment's partial output still precedes its
       exception, exactly as it would sequentially. *)
    let outputs = Wsp_sim.Parallel.map ~jobs (captured_run ~full) all in
    List.iter
      (fun (out, err) ->
        print_string out;
        match err with Some ex -> raise ex | None -> ())
      outputs
  end
