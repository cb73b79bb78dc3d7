(** Fault-coverage experiments (paper Figs. 9 and 10).

    Fig. 9: the five-way outcome breakdown for every benchmark under
    NOED, SCED, DCED and CASTED at issue 2, delay 2.

    Fig. 10: the same breakdown for one benchmark (h263dec in the paper)
    across every (issue, delay) configuration, demonstrating that
    adaptivity does not change the fault coverage. *)

module Scheme = Casted_detect.Scheme
module Montecarlo = Casted_sim.Montecarlo

type row = {
  benchmark : string;
  scheme : Scheme.t;
  issue : int;
  delay : int;
  result : Montecarlo.result;
}

(** Run one campaign on [engine].

    Campaigns are {!Casted_engine.Engine} jobs: the schedule comes from
    the engine's compile cache, and the Monte-Carlo trials fan out over
    its domain pool (bit-identical to a sequential run for the same
    [seed]). [seed] and [model] default as in
    {!Casted_engine.Engine.campaign}. With [store], campaigns here and
    in the experiments below are served from, and banked into, that
    result store ({!Casted_engine.Engine.campaign_stored}), with
    tallies bit-identical to a storeless run. *)
val campaign :
  engine:Casted_engine.Engine.t ->
  ?seed:int ->
  ?model:Casted_sim.Fault.model ->
  ?store:Casted_store.Store.t ->
  trials:int ->
  benchmark:string ->
  scheme:Scheme.t ->
  issue:int ->
  delay:int ->
  unit ->
  row

(** Fig. 9: all benchmarks x all schemes at (issue, delay) = (2, 2). *)
val fig9 :
  engine:Casted_engine.Engine.t ->
  ?seed:int ->
  ?model:Casted_sim.Fault.model ->
  ?store:Casted_store.Store.t ->
  ?trials:int ->
  ?benchmarks:string list ->
  unit ->
  row list

(** Fig. 10: one benchmark across issue widths 1–4 x delays 1–4. *)
val fig10 :
  engine:Casted_engine.Engine.t ->
  ?seed:int ->
  ?model:Casted_sim.Fault.model ->
  ?store:Casted_store.Store.t ->
  ?trials:int ->
  ?benchmark:string ->
  ?schemes:Scheme.t list ->
  unit ->
  row list

(** Render the rows; every class rate carries its 95% Wilson half-width
    ("54.3±5.6"). A row whose fault model has no injection sites in its
    cell (zero population, zero trials) renders as "n/a" cells. *)
val render : row list -> string

(** DME escape coverage on one benchmark: for each shared-resource
    fault model (default [mem] and [xcluster]), the silent-corruption
    counts under CASTED and under DME at the same configuration, and
    the fraction of CASTED-escaping SDCs that DME converts into
    detections ([max 0 ((casted - dme) / casted)] on SDC rates). *)
type dme_escape = {
  escape_benchmark : string;
  escape_model : Casted_sim.Fault.model;
  escape_trials : int;
  casted_sdc : int;
  dme_sdc : int;
  caught_fraction : float;
}

val dme_coverage :
  engine:Casted_engine.Engine.t ->
  ?seed:int ->
  ?models:Casted_sim.Fault.model list ->
  ?store:Casted_store.Store.t ->
  ?trials:int ->
  ?issue:int ->
  ?delay:int ->
  benchmark:string ->
  unit ->
  dme_escape list

val render_dme : dme_escape list -> string

(** {2 Recovery (the [casted recover] table)} *)

(** Fault-free cycles of the NOED build of [benchmark] at [issue]
    (fault-sized input): the baseline of runtime overheads and MWTF. *)
val noed_cycles :
  Casted_engine.Engine.t -> benchmark:string -> issue:int -> int

(** An MWTF ratio as printed: integers plainly, anything else with two
    decimals ("inf" for a campaign without silent corruption). *)
val mwtf_string : float -> string

(** CASTED (detection), TMR and ROLLBACK campaigns on one cell side by
    side: a title line, then one row per scheme with runtime overhead
    over NOED, benign/recovered/detected/SDC percentages and MWTF. *)
val recovery_table :
  engine:Casted_engine.Engine.t ->
  ?seed:int ->
  ?model:Casted_sim.Fault.model ->
  ?retry_budget:int ->
  ?store:Casted_store.Store.t ->
  trials:int ->
  benchmark:string ->
  issue:int ->
  delay:int ->
  unit ->
  string
