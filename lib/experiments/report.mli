(** Plain-text rendering for experiment output: headed ASCII tables and
    series, printed to stdout in the shape the paper reports them. *)

val heading : string -> unit
(** An underlined section heading. *)

val note : string -> unit
(** An indented remark line. *)

val table : header:string list -> string list list -> unit
(** A column-aligned table. All rows must match the header's arity. *)

val series :
  xlabel:string -> ylabel:string -> (string * (float * float) list) list -> unit
(** Several named (x, y) series rendered as one table with the x values
    as rows — every series must cover the same x points. *)

val chart :
  ?height:int ->
  ?logx:bool ->
  xlabel:string ->
  ylabel:string ->
  (string * (float * float) list) list ->
  unit
(** An ASCII scatter/line chart of the named series, each drawn with its
    own glyph, with a legend — the closest a terminal gets to the
    paper's figures. Series need not share x points. The plot is 64
    columns wide. *)

val float_cell : ?decimals:int -> float -> string
val time_ms_cell : Wsp_sim.Time.t -> string
val time_us_cell : Wsp_sim.Time.t -> string
