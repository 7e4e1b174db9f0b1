(** §6 — whole-system vs process persistence.

    Compares three recovery models after the same power failure: WSP
    restoring everything; a Drawbridge-style process (library OS inside
    the image) revived on a fresh kernel with its system calls aborted
    and retried; and an ordinary process with direct kernel dependencies,
    which cannot be safely revived and falls back to the storage back
    end. *)

open Wsp_sim

type row = {
  label : string;
  outcome : string;
  restart_latency : Time.t;
  state_preserved : string;
  device_story : string;
}

val data : unit -> row list
val run : full:bool -> unit
