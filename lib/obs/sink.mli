(** Exporters for the collected metrics and traces: an aligned text
    table of the metrics, and the trace timeline as Chrome trace JSON. *)

(** {2 Metrics} *)

(** Aligned table; empty string when nothing was recorded. *)
val metrics_text : unit -> string

(** {2 Traces} *)

(** Write the current {!Trace} timeline as Chrome trace JSON,
    atomically (tmp file + rename, so a crash mid-write never leaves a
    truncated artifact behind). *)
val write_trace : path:string -> unit
