(** Fault-coverage experiments (paper Figs. 9 and 10).

    Fig. 9: the five-way outcome breakdown for every benchmark under
    NOED, SCED, DCED and CASTED at issue 2, delay 2.

    Fig. 10: the same breakdown for one benchmark (h263dec in the paper)
    across every (issue, delay) configuration, demonstrating that
    adaptivity does not change the fault coverage.

    Every experiment here takes its campaigns from one {!runner}, so
    the engine, result store, seed and trial count are chosen once, by
    the caller ({!Repro.run}). *)

module Scheme = Casted_detect.Scheme
module Montecarlo = Casted_sim.Montecarlo

type row = {
  benchmark : string;
  scheme : Scheme.t;
  issue : int;
  delay : int;
  result : Montecarlo.result;
}

(** A campaign runner: the Monte-Carlo tally of one fault-sized cell
    under [model] (default reg-bit). It closes over the engine, the
    result store, the seed and the trial count; {!Repro.run} builds the
    one every experiment of [casted repro] uses. *)
type runner =
  ?model:Casted_sim.Fault.model -> Casted_engine.Cache.key -> Montecarlo.result

(** Fig. 9: all benchmarks (or [benchmarks]) x all schemes at (issue,
    delay) = (2, 2), reg-bit faults. *)
val fig9 : ?benchmarks:string list -> runner -> row list

(** Fig. 10: h263dec under every scheme across issue widths 1–4 x
    delays 1–4, reg-bit faults. A single-cluster scheme (NOED, SCED)
    has no delay axis ({!Casted_detect.Scheme.single_cluster}): its
    campaign runs once per issue width, at delay 1, and its tally is
    printed on all four delay rows. *)
val fig10 : runner -> row list

(** Render the rows; every class rate carries its 95% Wilson half-width
    ("54.3±5.6"). A row whose fault model has no injection sites in its
    cell (zero population, zero trials) renders as "n/a" cells. *)
val render : row list -> string

(** DME escape coverage on one benchmark at issue 2, delay 2: for each
    shared-resource fault model ([mem] and [xcluster]), the
    silent-corruption counts under CASTED and under DME, and the
    fraction of CASTED-escaping SDCs that DME converts into
    detections ([max 0 ((casted - dme) / casted)] on SDC rates). *)
type dme_escape = {
  escape_benchmark : string;
  escape_model : Casted_sim.Fault.model;
  escape_trials : int;
  casted_sdc : int;
  dme_sdc : int;
  caught_fraction : float;
}

val dme_coverage : runner -> benchmark:string -> dme_escape list

val render_dme : dme_escape list -> string

(** {2 Recovery} *)

(** Fault-free cycles of the NOED build of [benchmark] at [issue]
    (fault-sized input): the baseline of runtime overheads and MWTF. *)
val noed_cycles :
  Casted_engine.Engine.t -> benchmark:string -> issue:int -> int

(** An MWTF ratio as printed: integers plainly, anything else with two
    decimals ("inf" for a campaign without silent corruption). *)
val mwtf_string : float -> string

(** CASTED (detection), TMR and ROLLBACK reg-bit campaigns on one
    benchmark at issue 2, delay 2 side by side (ROLLBACK with the
    engine's default retry budget): a title line, then one row per
    scheme with runtime overhead over NOED, benign/recovered/detected/
    SDC percentages and MWTF. The engine simulates the NOED baseline
    ({!noed_cycles}); the campaigns come from the runner. *)
val recovery_table :
  Casted_engine.Engine.t -> runner -> benchmark:string -> string
