(** The paper's main performance experiment (Figs. 6 and 7): slowdown of
    SCED, DCED and CASTED relative to NOED, per benchmark, for every
    (issue width, inter-core delay) point.

    NOED and SCED run on one cluster and are delay-independent; DCED and
    CASTED run on two clusters and are measured at every delay. All
    slowdowns are normalised to NOED at the {e same} issue width, as in
    the paper. *)

module Scheme = Casted_detect.Scheme

type point = {
  benchmark : string;
  scheme : Scheme.t;
  issue : int;
  delay : int;  (** 0 for the delay-independent NOED/SCED *)
  cycles : int;
  dyn_insns : int;
}

type t = {
  points : point list;
  issues : int list;
  delays : int list;
  benchmarks : string list;
}

(** Run the sweep. Defaults mirror the paper: issue widths 1–4, delays
    1–4, all seven benchmarks, perf-sized inputs.

    All points are submitted as jobs to an experiment engine
    ({!Casted_engine.Engine}) and fan out over its domain pool. Pass
    [engine] to share a pool and compiled-schedule cache with other
    experiments; otherwise a private engine (sized by [$CASTED_JOBS] or
    the core count) is created for the call and shut down afterwards.
    Point order is deterministic regardless of parallelism. *)
val run :
  ?engine:Casted_engine.Engine.t ->
  ?size:Casted_workloads.Workload.size ->
  ?benchmarks:string list ->
  ?issues:int list ->
  ?delays:int list ->
  unit ->
  t

val cycles : t -> benchmark:string -> scheme:Scheme.t -> issue:int ->
  delay:int -> int

(** Slowdown vs NOED at the same issue width. *)
val slowdown : t -> benchmark:string -> scheme:Scheme.t -> issue:int ->
  delay:int -> float

(** All panels of Figs. 6 and 7: for each benchmark and delay, a table
    of slowdowns with a row per scheme and a column per issue width. *)
val render_all : t -> string

type summary = {
  sced_min : float;
  sced_max : float;
  sced_avg : float;
  dced_min : float;
  dced_max : float;
  dced_avg : float;
  casted_min : float;
  casted_max : float;
  casted_avg : float;
  best_gain : float;  (** max improvement of CASTED over the best fixed
                          scheme, in percent *)
  best_gain_at : string;  (** "<benchmark> issue <i> delay <d>" *)
  casted_vs_sced : float;  (** average slowdown reduction vs SCED, % *)
  casted_vs_dced : float;  (** average slowdown reduction vs DCED, % *)
}

(** The headline numbers of §IV-B / §VI. *)
val summarize : t -> summary

val render_summary : summary -> string
