(** §2 — why PCM needs fine-grained wear leveling, quantified.

    A Zipfian write stream hammers a few hot lines; without leveling the
    hottest physical cell absorbs orders of magnitude more writes than
    the mean and dies early. Start-Gap rotation trades a small write
    overhead (one extra copy per ψ writes) for a near-ideal lifetime. *)

type row = {
  label : string;
  gap_interval : int option;  (** [None] = no leveling. *)
  wear_ratio : float;  (** max/mean physical wear. *)
  lifetime_fraction : float;  (** of the perfectly levelled lifetime. *)
  write_overhead : float;  (** extra writes from gap moves. *)
}

val data : ?lines:int -> ?writes:int -> unit -> row list
(** The write stream is Zipfian with theta 0.99. *)

val run : full:bool -> unit
