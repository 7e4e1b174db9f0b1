module Power = struct
  type t = float

  let watts w = w
  let to_watts w = w
  let pp ppf w = Fmt.pf ppf "%.1fW" w
end

module Energy = struct
  type t = float

  let joules j = j
  let to_joules j = j
  let of_power_time p t = p *. Time.to_s t

  let duration_at e p =
    assert (p > 0.0);
    Time.s (e /. p)

  let pp ppf j = Fmt.pf ppf "%.2fJ" j
end

module Voltage = struct
  type t = float

  let volts v = v
  let pp ppf v = Fmt.pf ppf "%.2fV" v
end

module Capacitance = struct
  type t = float

  let farads f = f
  let stored_energy c v = 0.5 *. c *. v *. v

  let voltage_after_discharge c ~v0 ~drawn =
    let e0 = stored_energy c v0 in
    let e = e0 -. drawn in
    if e <= 0.0 then 0.0 else sqrt (2.0 *. e /. c)

  let pp ppf f = Fmt.pf ppf "%.2fF" f
end

module Size = struct
  type t = int

  let bytes n = n
  let kib n = n * 1024
  let mib n = n * 1024 * 1024
  let gib n = n * 1024 * 1024 * 1024
  let to_bytes n = n
  let to_mib n = float_of_int n /. (1024.0 *. 1024.0)
  let to_gib n = float_of_int n /. (1024.0 *. 1024.0 *. 1024.0)

  let pp ppf n =
    if n < 1024 then Fmt.pf ppf "%dB" n
    else if n < 1024 * 1024 then Fmt.pf ppf "%.1fKiB" (float_of_int n /. 1024.0)
    else if n < 1024 * 1024 * 1024 then Fmt.pf ppf "%.1fMiB" (to_mib n)
    else Fmt.pf ppf "%.2fGiB" (to_gib n)
end

module Bandwidth = struct
  type t = float

  let mib_per_s m = m *. 1024.0 *. 1024.0
  let gib_per_s g = g *. 1024.0 *. 1024.0 *. 1024.0
  let to_bytes_per_s b = b

  let transfer_time bw size =
    assert (bw > 0.0);
    Time.s (float_of_int (Size.to_bytes size) /. bw)

  let pp ppf b = Fmt.pf ppf "%.1fMiB/s" (b /. (1024.0 *. 1024.0))
end
