(** Exporters for the collected metrics and traces.

    Three formats: human-readable text, CSV (one row per metric) and
    JSON; plus atomic file output (tmp + rename, so a crash mid-write
    never leaves a truncated artifact behind). *)

(** Write [contents] to [path] atomically (tmp file + rename). *)
val write_file : path:string -> string -> unit

(** {2 Metrics} *)

(** Aligned table; empty string when nothing was recorded. *)
val metrics_text : unit -> string

(** {2 Traces} *)

(** Write the current {!Trace} timeline as Chrome trace JSON. *)
val write_trace : path:string -> unit
