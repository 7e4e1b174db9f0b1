open Wsp_sim

type t = {
  name : string;
  short_name : string;
  sockets : int;
  cores_per_socket : int;
  threads_per_core : int;
  frequency_ghz : float;
  l1d_per_core : Units.Size.t;
  l2_per_core : Units.Size.t;
  l3_per_socket : Units.Size.t option;
  line_size : int;
  memory : Units.Size.t;
  memory_latency : Time.t;
  memory_bandwidth : Units.Bandwidth.t;
  nt_store_latency : Time.t;
  fence_latency : Time.t;
  clflush_issue : Time.t;
  wbinvd_line_walk : Time.t;
  ipi_latency : Time.t;
  context_save_latency : Time.t;
  serial_irq_latency : Time.t;
  power_busy : Units.Power.t;
  power_idle : Units.Power.t;
}

let llc_total t =
  match t.l3_per_socket with
  | Some l3 -> t.sockets * l3
  | None -> t.sockets * t.cores_per_socket * t.l2_per_core

let cache_total t =
  let per_core = t.l1d_per_core + t.l2_per_core in
  let l3 = match t.l3_per_socket with Some l3 -> t.sockets * l3 | None -> 0 in
  (t.sockets * t.cores_per_socket * per_core) + l3

let cycles t n = Time.ns (n /. t.frequency_ghz)

let level name size ~line_size ~assoc ~latency : Cache.config =
  { Cache.name; size; line_size; associativity = assoc; hit_latency = latency }

let hierarchy_of t ~l1 ~l2 ~l3 : Hierarchy.config =
  let ls = t.line_size in
  let lat n = cycles t n in
  let levels =
    [
      level "L1d" l1 ~line_size:ls ~assoc:8 ~latency:(lat 4.0);
      level "L2" l2 ~line_size:ls ~assoc:8 ~latency:(lat 10.0);
    ]
    @
    match l3 with
    | Some size -> [ level "L3" size ~line_size:ls ~assoc:16 ~latency:(lat 40.0) ]
    | None -> []
  in
  {
    Hierarchy.levels;
    memory_latency = t.memory_latency;
    memory_bandwidth = t.memory_bandwidth;
    memory_write_bandwidth = t.memory_bandwidth;
    nt_store_latency = t.nt_store_latency;
    fence_latency = t.fence_latency;
    clflush_issue = t.clflush_issue;
    wbinvd_line_walk = t.wbinvd_line_walk;
  }

let core_hierarchy t =
  hierarchy_of t ~l1:t.l1d_per_core ~l2:t.l2_per_core ~l3:t.l3_per_socket

let aggregate_hierarchy t =
  let n_cores = t.sockets * t.cores_per_socket in
  hierarchy_of t ~l1:(n_cores * t.l1d_per_core) ~l2:(n_cores * t.l2_per_core)
    ~l3:(Option.map (fun l3 -> t.sockets * l3) t.l3_per_socket)

(* Calibration targets (DESIGN.md §4): wbinvd/clflush/theoretical-best
   worst-case times of Table 2 for the two testbeds; Figure 8 curves for
   the other two. *)

let intel_c5528 =
  {
    name = "2x Intel C5528";
    short_name = "c5528";
    sockets = 2;
    cores_per_socket = 4;
    threads_per_core = 2;
    frequency_ghz = 2.13;
    l1d_per_core = Units.Size.kib 32;
    l2_per_core = Units.Size.kib 256;
    l3_per_socket = Some (Units.Size.mib 8);
    line_size = 64;
    memory = Units.Size.gib 48;
    memory_latency = Time.ns 65.0;
    memory_bandwidth = Units.Bandwidth.gib_per_s 20.7;
    nt_store_latency = Time.ns 18.0;
    fence_latency = Time.ns 60.0;
    clflush_issue = Time.ns 5.8;
    wbinvd_line_walk = Time.ns 6.7;
    ipi_latency = Time.us 2.0;
    context_save_latency = Time.us 1.2;
    serial_irq_latency = Time.us 90.0;
    power_busy = Units.Power.watts 350.0;
    power_idle = Units.Power.watts 150.0;
  }

let intel_x5650 =
  {
    name = "Intel X5650";
    short_name = "x5650";
    sockets = 1;
    cores_per_socket = 6;
    threads_per_core = 2;
    frequency_ghz = 2.66;
    l1d_per_core = Units.Size.kib 32;
    l2_per_core = Units.Size.kib 256;
    l3_per_socket = Some (Units.Size.mib 12);
    line_size = 64;
    memory = Units.Size.gib 24;
    memory_latency = Time.ns 60.0;
    memory_bandwidth = Units.Bandwidth.gib_per_s 21.0;
    nt_store_latency = Time.ns 18.0;
    fence_latency = Time.ns 55.0;
    clflush_issue = Time.ns 6.5;
    wbinvd_line_walk = Time.ns 12.5;
    ipi_latency = Time.us 2.0;
    context_save_latency = Time.us 1.1;
    serial_irq_latency = Time.us 90.0;
    power_busy = Units.Power.watts 280.0;
    power_idle = Units.Power.watts 120.0;
  }

let amd_4180 =
  {
    name = "AMD 4180";
    short_name = "amd4180";
    sockets = 1;
    cores_per_socket = 6;
    threads_per_core = 1;
    frequency_ghz = 2.6;
    l1d_per_core = Units.Size.kib 64;
    l2_per_core = Units.Size.kib 512;
    l3_per_socket = Some (Units.Size.mib 6);
    line_size = 64;
    memory = Units.Size.gib 8;
    memory_latency = Time.ns 70.0;
    memory_bandwidth = Units.Bandwidth.gib_per_s 9.4;
    nt_store_latency = Time.ns 22.0;
    fence_latency = Time.ns 70.0;
    clflush_issue = Time.ns 9.6;
    wbinvd_line_walk = Time.ns 4.2;
    ipi_latency = Time.us 2.5;
    context_save_latency = Time.us 1.4;
    serial_irq_latency = Time.us 90.0;
    power_busy = Units.Power.watts 150.0;
    power_idle = Units.Power.watts 60.0;
  }

let intel_d510 =
  {
    name = "Intel D510";
    short_name = "d510";
    sockets = 1;
    cores_per_socket = 2;
    threads_per_core = 2;
    frequency_ghz = 1.66;
    l1d_per_core = Units.Size.kib 24;
    l2_per_core = Units.Size.kib 512;
    l3_per_socket = None;
    line_size = 64;
    memory = Units.Size.gib 2;
    memory_latency = Time.ns 90.0;
    memory_bandwidth = Units.Bandwidth.gib_per_s 3.8;
    nt_store_latency = Time.ns 35.0;
    fence_latency = Time.ns 95.0;
    clflush_issue = Time.ns 14.0;
    wbinvd_line_walk = Time.ns 16.0;
    ipi_latency = Time.us 3.0;
    context_save_latency = Time.us 2.0;
    serial_irq_latency = Time.us 90.0;
    power_busy = Units.Power.watts 45.0;
    power_idle = Units.Power.watts 25.0;
  }

let all = [ intel_c5528; intel_x5650; amd_4180; intel_d510 ]
let testbeds = [ intel_c5528; amd_4180 ]

let by_name s =
  let s = String.lowercase_ascii s in
  List.find_opt
    (fun p ->
      String.lowercase_ascii p.short_name = s || String.lowercase_ascii p.name = s)
    all
