(** The experiment registry: every table and figure, addressable by name
    from the CLI and the benchmark harness. *)

type t = {
  name : string;  (** CLI identifier, e.g. ["table1"]. *)
  title : string;
  run : full:bool -> unit;
}

val all : t list
(** In paper order. *)

val find : string -> t option

val captured_run : full:bool -> t -> string * exn option
(** Runs one experiment with its output captured instead of printed;
    the bytes it produced and the exception it raised, if any. *)

val run_all : full:bool -> unit -> unit
(** Runs every experiment in paper order. With more than one job
    ({!Wsp_sim.Parallel.default_jobs}, i.e. [WSP_JOBS] or the core
    count) independent experiments run concurrently on a domain pool,
    with per-experiment output buffered and printed in registry order —
    stdout is byte-identical to a sequential run. [WSP_JOBS=1] forces
    the streaming sequential path. *)
