(** Figure 1 — effect of charge/discharge cycles on ultracapacitors.

    Paper (AgigA Tech data): over 100,000 cycles at elevated temperature
    and voltage, ultracapacitors keep ≥90 % of their capacitance even in
    the worst case, while rechargeable batteries collapse within a few
    hundred cycles. *)

type point = {
  cycles : int;
  best : float;  (** Fraction of nominal capacitance remaining. *)
  datasheet : float;
  worst : float;
  battery : float;
}

val data : unit -> point list
(** Eleven points, every 10,000 cycles from 0 to 100,000. *)

val run : full:bool -> unit
