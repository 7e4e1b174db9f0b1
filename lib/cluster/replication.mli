(** The §6 "long outages" tradeoff: how long should a replicated system
    wait for a failed server to come back with NVRAM-intact state before
    rebuilding a replacement replica from the back end?

    Waiting saves a full state transfer when the machine returns (it only
    needs the updates it missed) but extends the window of reduced
    redundancy. Outage durations are exponential with a given mean; with
    some probability the machine never returns (hardware death). *)

open Wsp_sim

type params = {
  state : Units.Size.t;
  backend_bandwidth : Units.Bandwidth.t;
  update_rate : Units.Bandwidth.t;  (** Fresh-update rate of the dataset. *)
  outage_mean : Time.t;
  permanent_failure_prob : float;
}

val default : params

type assessment = {
  delay : Time.t;
  expected_backend_bytes : float;
  expected_exposure : Time.t;
      (** Expected time spent with reduced redundancy. *)
  rebuild_probability : float;
      (** Chance the replacement replica ends up being built anyway. *)
}

val assess : params -> delay:Time.t -> assessment

val optimal_delay :
  params -> exposure_cost_per_s:float -> byte_cost:float -> Time.t * float
(** Grid-searches the re-instantiation delay minimising
    [byte_cost * E(bytes) + exposure_cost_per_s * E(exposure)]; returns
    the delay and its cost. *)
