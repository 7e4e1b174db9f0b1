(** A simulated-time event tracer exporting Chrome [trace_event] JSON.

    Spans and instants are recorded against {e simulated} timestamps
    (integer picoseconds — see [Wsp_sim.Time.to_ps]) and exported in
    the Trace Event Format that [chrome://tracing] and Perfetto load
    directly ([ts]/[dur] in microseconds).

    Tracing is globally off by default: every record call checks
    [enabled] first, so an untraced run pays one atomic read per
    potential event on the instrumented (cold) paths and nothing on hot
    paths, which are not traced at all. Like the metrics registry, each
    domain records into its own ambient tracer; [export_json] merges
    every tracer and sorts events by timestamp. *)

type t

val set_enabled : bool -> unit
val enabled : unit -> bool

val create : unit -> t
(** A fresh, private tracer (not included in [export_json]). *)

val ambient : unit -> t
(** The calling domain's tracer, registered for [export_json] on first
    use. *)

val instant : ?cat:string -> t -> name:string -> ts:int -> unit
(** A point event at simulated time [ts] picoseconds. Recorded only
    when tracing is enabled. *)

val span : ?cat:string -> t -> name:string -> start_ps:int -> stop_ps:int -> unit
(** A complete span (Chrome phase [X]). Recorded only when enabled. *)

type event = {
  name : string;
  cat : string;
  ts_ps : int;
  dur_ps : int;  (** -1 for instants. *)
  tid : int;
}

val events : t -> event list
(** This tracer's events, in recording order. *)

val export_json : unit -> string
(** Chrome trace JSON ([{"traceEvents":[...]}]) over every ambient
    tracer's events, sorted by timestamp. *)

val to_json : event list -> string
(** The same format over an explicit event list. *)

val reset_all : unit -> unit
(** Drops every recorded event in every ambient tracer. *)
