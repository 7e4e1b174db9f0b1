open Wsp_sim

type kind = Gpu | Disk | Nic | Usb | Audio | Chipset

type spec = {
  name : string;
  kind : kind;
  d3_latency : Time.t;
  io_drain : Time.t;
  reinit_latency : Time.t;
  busy_outstanding : int;
}

type state = Powered | Suspended | Dead

type t = {
  spec : spec;
  mutable state : state;
  mutable outstanding : int;
  mutable ios_lost : int;
  mutable ios_replayed : int;
  mutable ios_failed : int;
}

let create spec =
  { spec; state = Powered; outstanding = 0; ios_lost = 0; ios_replayed = 0; ios_failed = 0 }

let spec t = t.spec
let state t = t.state
let outstanding t = t.outstanding
let set_busy t busy = t.outstanding <- (if busy then t.spec.busy_outstanding else 0)
let submit_io t = t.outstanding <- t.outstanding + 1

let complete_io t =
  if t.outstanding = 0 then invalid_arg "Device.complete_io: queue empty";
  t.outstanding <- t.outstanding - 1

let suspend_duration t =
  Time.add t.spec.d3_latency (Time.mul t.spec.io_drain t.outstanding)

let suspend t =
  t.outstanding <- 0;
  t.state <- Suspended

let power_cycle t =
  t.ios_lost <- t.ios_lost + t.outstanding;
  t.outstanding <- 0;
  t.state <- Dead

let ios_lost t = t.ios_lost

let reinit t ~replay =
  if replay then t.ios_replayed <- t.ios_replayed + t.ios_lost
  else t.ios_failed <- t.ios_failed + t.ios_lost;
  t.ios_lost <- 0;
  t.state <- Powered

let ios_replayed t = t.ios_replayed
let ios_failed t = t.ios_failed

(* Figure 9 calibration: total D3 time ≈6.4 s idle / ≈6.6 s busy on the
   Intel testbed and ≈5.21 s / ≈5.31 s on the AMD testbed, dominated by
   the GPU, the disk and the NIC. *)

let intel_suite () =
  List.map create
    [
      {
        name = "GPU";
        kind = Gpu;
        d3_latency = Time.ms 2800.0;
        io_drain = Time.ms 0.0;
        reinit_latency = Time.ms 900.0;
        busy_outstanding = 0;
      };
      {
        name = "disk";
        kind = Disk;
        d3_latency = Time.ms 1900.0;
        io_drain = Time.ms 5.0;
        reinit_latency = Time.ms 450.0;
        busy_outstanding = 32;
      };
      {
        name = "NIC";
        kind = Nic;
        d3_latency = Time.ms 1300.0;
        io_drain = Time.ms 2.0;
        reinit_latency = Time.ms 300.0;
        busy_outstanding = 16;
      };
      {
        name = "USB";
        kind = Usb;
        d3_latency = Time.ms 250.0;
        io_drain = Time.ms 1.0;
        reinit_latency = Time.ms 120.0;
        busy_outstanding = 2;
      };
      {
        name = "audio";
        kind = Audio;
        d3_latency = Time.ms 150.0;
        io_drain = Time.ms 0.0;
        reinit_latency = Time.ms 60.0;
        busy_outstanding = 0;
      };
    ]

let amd_suite () =
  List.map create
    [
      {
        name = "GPU";
        kind = Gpu;
        d3_latency = Time.ms 2200.0;
        io_drain = Time.ms 0.0;
        reinit_latency = Time.ms 700.0;
        busy_outstanding = 0;
      };
      {
        name = "disk";
        kind = Disk;
        d3_latency = Time.ms 1700.0;
        io_drain = Time.ms 5.0;
        reinit_latency = Time.ms 400.0;
        busy_outstanding = 16;
      };
      {
        name = "NIC";
        kind = Nic;
        d3_latency = Time.ms 1000.0;
        io_drain = Time.ms 2.5;
        reinit_latency = Time.ms 250.0;
        busy_outstanding = 8;
      };
      {
        name = "USB";
        kind = Usb;
        d3_latency = Time.ms 200.0;
        io_drain = Time.ms 1.0;
        reinit_latency = Time.ms 100.0;
        busy_outstanding = 2;
      };
      {
        name = "audio";
        kind = Audio;
        d3_latency = Time.ms 110.0;
        io_drain = Time.ms 0.0;
        reinit_latency = Time.ms 50.0;
        busy_outstanding = 0;
      };
    ]

let suite_for (p : Wsp_machine.Platform.t) =
  (* The two Figure 9 testbeds get their measured suites; other
     platforms borrow the closest one by vendor. *)
  if String.length p.name >= 3 && String.sub p.name 0 3 = "AMD" then amd_suite ()
  else intel_suite ()
