(** The one string escaper behind every hand-rolled JSON emitter in the
    repo (metrics, traces, checker and lint reports). *)

val escape : string -> string
(** Backslash-escapes double quotes, backslashes and newlines — the
    only special characters the emitters' names and messages carry —
    so the result can sit between quotes in a JSON string literal.
    Other bytes pass through unchanged. *)
