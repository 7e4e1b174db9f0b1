(** Crash-point sweep over the Figure-4 whole-system save protocol.

    For every {!Wsp_core.System.save_step} × restart strategy, a machine
    with a recognisable in-memory pattern suffers a power failure whose
    residual window expires exactly at that step, then reboots. The
    oracle is the marker protocol's promise: a boot either restores the
    {e complete} pre-failure memory (outcome [Recovered], pattern intact)
    or refuses the image ([Invalid_marker] / [No_image]) — it must never
    resume from a torn flush, which is silent corruption.

    Running with [validate_marker:false] is the ablation that proves the
    marker earns its keep: cuts before the cache flush then restore
    stale memory under a [Recovered] verdict, and the sweep reports
    them. *)

module System = Wsp_core.System

type result = {
  step : System.save_step;
  strategy : System.restart_strategy;
  outcome : System.outcome;
  data_intact : bool;  (** Pattern read back exactly (only meaningful
                           when the boot accepted the image). *)
  violation : string option;  (** Silent corruption or a wrong verdict. *)
}

val run : ?validate_marker:bool -> ?seed:int -> unit -> result list
(** Sweeps all three restart strategies. Defaults: marker validation
    on, seed 42. *)

val violations : result list -> result list

val pp_result : Format.formatter -> result -> unit
