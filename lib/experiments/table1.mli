(** Table 1 — OpenLDAP update throughput: Mnemosyne vs. WSP.

    Paper: 100,000 inserts into an empty directory; Mnemosyne (redo-log
    STM, flush-on-commit) 2160 ± 77 updates/s, WSP (plain in-memory
    tree) 5274 ± 139 updates/s — WSP 2.4× faster. *)

type row = {
  label : string;
  config : Wsp_nvheap.Config.t;
  updates_per_s : float;
  paper_updates_per_s : float;
}

val data : ?entries:int -> unit -> row list
(** Runs both configurations; [entries] defaults to 20,000 (a documented
    scale-down of the paper's 100,000 — pass it explicitly for the full
    run). *)

val speedup : row list -> float
(** WSP throughput over Mnemosyne throughput. *)

val run : full:bool -> unit
(** Prints the table ([full] uses the paper's 100,000 entries). *)
