(** The paper's whole evaluation in one call ([casted repro]).

    Regenerates Tables I-III, Figs. 6-10 with the §IV headline summary,
    the design ablations (BUG tie-breaking, store-operand checks,
    perfect cache, late CSE/DCE on hardened code, partial redundancy),
    the placement analysis, and the TMR/ROLLBACK recovery and DME
    extensions. One {!Perf_sweep.run} feeds both Figs. 6-7 and Fig. 8.

    Every campaign of the report (Figs. 9-10, recovery, DME, partial
    redundancy) runs through one {!Coverage.runner} that {!run} builds
    over the engine, the store, the trial count and the seed
    {!Casted_sim.Montecarlo.default_seed}.

    The returned text is a pure function of the arguments: it carries
    no timings and no pool size, so two runs (any [jobs], cold or warm
    store) print the same bytes. *)

(** The rendered report, and the trial counts of its runner's
    campaigns: [served] came out of the result store, [simulated] were
    run by this call (every trial, without a store). *)
type report = { text : string; served : int; simulated : int }

(** [run ~engine ~size ~trials ()] renders the whole report.

    - [size] sizes the inputs of the Figs. 6-8 performance sweep (the
      paper's figures use [Perf]); campaigns and ablations always run
      fault-sized inputs.
    - [trials] is the Monte-Carlo trial count of every campaign.
    - [benchmarks] restricts the sweep and Fig. 9 (default: all seven).
      Fig. 10 stays on h263dec and the ablations on their named
      workloads.
    - With [store], every runner campaign is served from and banked
      into that result store, so a warm rerun simulates none of them.
      The late-CSE ablation's three campaigns run on a hand-built
      kernel that is not an engine cell, are simulated every time
      ({!unstored_trials}) and are not counted in the report's
      [served] or [simulated]. *)
val run :
  engine:Casted_engine.Engine.t ->
  ?store:Casted_store.Store.t ->
  ?benchmarks:string list ->
  size:Casted_workloads.Workload.size ->
  trials:int ->
  unit ->
  report

(** [unstored_trials ~trials] is how many trials {!run} simulates
    outside the engine and its store on every pass, warm or cold: the
    late-CSE ablation's three campaigns of [trials] each. *)
val unstored_trials : trials:int -> int
