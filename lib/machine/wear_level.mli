(** Start-Gap wear leveling for SCM main memory (§2).

    Phase-change memory cells endure ~10⁷–10⁸ writes, so PCM "requires
    additional hardware support such as fine-grained wear leveling" to
    be usable as main memory (the paper cites Qureshi et al.'s Start-Gap
    scheme). One spare slot (the gap) circulates through the physical
    lines: every [gap_interval] writes the line next to the gap moves
    into it, slowly rotating the whole address space so no physical line
    absorbs a hot spot forever.

    Hardware implements the remapping with two registers; this model
    keeps explicit maps for clarity and tracks per-slot wear so the
    levelling effect can be measured (the [wear] experiment). *)

type t

val create : ?gap_interval:int -> lines:int -> unit -> t
(** [gap_interval] defaults to 100 writes per gap movement (the paper's
    ψ); [lines] is the number of logical lines (one extra physical slot
    is provisioned). *)

val lines : t -> int
val slots : t -> int

val translate : t -> int -> int
(** Current physical slot of a logical line. *)

val record_write : t -> int -> unit
(** Accounts one write to a logical line, advancing the gap on
    schedule. Gap-movement copy writes are charged to the slots they
    touch. *)

val gap_moves : t -> int

val wear : t -> int array
(** Per-physical-slot write counts. *)

val wear_ratio : t -> float
(** [max_wear / mean_wear] — 1.0 is perfect levelling. Uniform traffic
    without levelling also gives ≈1; a hot spot without levelling gives
    a ratio near the slot count. *)

val lifetime_fraction : t -> float
(** Achieved fraction of the ideal (perfectly levelled) lifetime:
    [mean_wear / max_wear]. *)

val check : t -> (unit, string) result
(** Verifies the logical→physical map is a bijection avoiding the gap. *)
