type classification =
  | Benign
  | Detected
  | Exception
  | Data_corrupt
  | Timeout
  | Recovered

let all_classes =
  [ Benign; Recovered; Detected; Exception; Data_corrupt; Timeout ]

let class_name = function
  | Benign -> "benign"
  | Detected -> "detected"
  | Exception -> "exception"
  | Data_corrupt -> "data-corrupt"
  | Timeout -> "timeout"
  | Recovered -> "recovered"

(* How golden-prefix replay fared, over the trials this process ran
   (trials resumed from a banked store entry left no per-trial
   record). *)
type replay_stats = {
  snapshots : int;
  snapshot_bytes : int;
  replayed : int;  (* trials started from a snapshot *)
  full_runs : int;  (* trials that fell back to full execution *)
  converged : int;  (* trials stopped early, golden again *)
  mean_suffix : float;  (* mean fraction of the golden run executed *)
}

type result = {
  trials : int;
  benign : int;
  detected : int;
  exceptions : int;
  corrupt : int;
  timeouts : int;
  recovered : int;
  golden_cycles : int;
  golden_dyn : int;
  population : int;
  model : Fault.model;
  replay : replay_stats option;
}

let count r = function
  | Benign -> r.benign
  | Detected -> r.detected
  | Exception -> r.exceptions
  | Data_corrupt -> r.corrupt
  | Timeout -> r.timeouts
  | Recovered -> r.recovered

let percent r c =
  if r.trials = 0 then 0.0
  else 100.0 *. float_of_int (count r c) /. float_of_int r.trials

let inapplicable r = r.population = 0

let interval ?z r c =
  let lo, hi = Stats.wilson ?z ~successes:(count r c) ~trials:r.trials () in
  (100.0 *. lo, 100.0 *. hi)

let halfwidth ?z r c =
  let lo, hi = interval ?z r c in
  (hi -. lo) /. 2.0

let classify ~golden (run : Outcome.run) =
  let architecturally_clean code =
    code = golden.Outcome.exit_code
    && String.equal run.Outcome.output golden.Outcome.output
  in
  match run.Outcome.termination with
  | Outcome.Detected _ -> Detected
  | Outcome.Trapped _ -> Exception
  | Outcome.Timeout -> Timeout
  | Outcome.Recovered { exit_code; _ } ->
      (* The rollback machinery retried, but only a golden-matching
         completion counts as a recovery. *)
      if architecturally_clean exit_code then Recovered else Data_corrupt
  | Outcome.Exit code ->
      if architecturally_clean code then
        (* A TMR run repairs faults in place and exits normally; a
           correction that fired separates "the scheme actively saved
           the run" from "the fault was benign anyway". *)
        if run.Outcome.dyn_corrections > 0 then Recovered else Benign
      else Data_corrupt

(* A trial whose simulation raised instead of terminating cleanly is a
   machine exception from the campaign's point of view: the fault drove
   the interpreter somewhere the architecture would have faulted. It is
   tallied, never propagated — one pathological trial must not kill a
   multi-hour campaign (or its whole domain pool). *)
let classify_result ~golden = function
  | Ok run -> classify ~golden run
  | Error (_ : exn) -> Exception

type golden = {
  run : Outcome.run;
  pop : Fault.population;
  fuel : int;
  replay : Replay.t option;
}

let population_of_run (r : Outcome.run) =
  {
    Fault.def_slots = r.Outcome.dyn_defs;
    mem_accesses = r.Outcome.dyn_mem;
    cond_branches = r.Outcome.dyn_branches;
    xcluster_reads = r.Outcome.dyn_xreads;
  }

let check_fuel_factor fuel_factor =
  if fuel_factor < 1 then
    invalid_arg
      (Printf.sprintf "Montecarlo.run: fuel_factor must be at least 1, got %d"
         fuel_factor)

(* The golden reference around a finished timed golden [run]. *)
let golden_of ?(fuel_factor = 10) ?replay_set run =
  check_fuel_factor fuel_factor;
  (match run.Outcome.termination with
  | Outcome.Exit _ -> ()
  | t ->
      invalid_arg
        (Format.asprintf "Montecarlo.run: golden run did not exit cleanly: %a"
           Outcome.pp_termination t));
  {
    run;
    pop = population_of_run run;
    fuel = fuel_factor * max 1 run.Outcome.dyn_insns;
    replay = replay_set;
  }

(* With a replay set nothing is compiled or run: the capture pass that
   built it IS a golden run (the snapshot hook only copies state). *)
let golden_decoded ?fuel_factor ?replay_set decoded =
  golden_of ?fuel_factor ?replay_set
    (match replay_set with
    | Some r -> Replay.golden r
    | None -> Compile.run (Compile.of_decoded decoded))

(* The untimed capture and the timed golden run of one campaign must be
   the same execution: every field a trial, a population or a fuel
   budget reads. Only the cycles and cache statistics may differ. *)
let check_capture ~timed ~untimed =
  let differs name a b =
    if a <> b then
      failwith
        (Printf.sprintf
           "Montecarlo.run: the untimed snapshot capture and the timed golden \
            run disagree on %s"
           name)
  in
  let o = Outcome.(fun r -> r.termination) in
  differs "termination" (o timed) (o untimed);
  differs "exit code" timed.Outcome.exit_code untimed.Outcome.exit_code;
  differs "output" timed.Outcome.output untimed.Outcome.output;
  differs "dyn_insns" timed.Outcome.dyn_insns untimed.Outcome.dyn_insns;
  differs "dyn_defs" timed.Outcome.dyn_defs untimed.Outcome.dyn_defs;
  differs "dyn_mem" timed.Outcome.dyn_mem untimed.Outcome.dyn_mem;
  differs "dyn_branches" timed.Outcome.dyn_branches untimed.Outcome.dyn_branches;
  differs "dyn_xreads" timed.Outcome.dyn_xreads untimed.Outcome.dyn_xreads

(* How one trial ran. *)
type trial_report = {
  cls : classification;
  executed : float;  (* share of the golden run executed; 1.0 = full *)
  replayed : bool;  (* started from a golden snapshot *)
  converged : bool;  (* stopped early, state golden again *)
}

exception Converged of { dyn : int; corrected : bool }

(* The re-convergence watcher, an [on_block] hook for a trial started
   from snapshot [from] (-1: from the program start). At a block top
   where the trial sits at the next golden snapshot's dynamic count
   and block, with its fault already injected, it compares
   architectural state (State.matches); on a match it raises
   [Converged] and the trial ends there. The rest of such a trial is
   the golden suffix: no opcode reads the clock, the cache and the
   scoreboard change only cycles and counters nothing reads once the
   fault has fired, and fuel is counted in [dyn], which is equal. So
   the trial terminates as the golden run does, with the same exit
   code and output, and [classify] sees a clean exit whose only open
   question is whether a vote corrected anything on the way. Started
   from [Replay.find_index]'s snapshot, the fault has always fired by
   the next one (its counter there is past the target); the [fired]
   test keeps the watcher sound from any earlier start too. *)
let watch r fault ~from =
  let snaps = Replay.snapshots r in
  let n = Array.length snaps in
  let next = ref (from + 1) in
  fun st regs block ->
    let dyn = st.State.dyn in
    while !next < n && snaps.(!next).State.s_dyn < dyn do
      incr next
    done;
    if
      !next < n
      && snaps.(!next).State.s_dyn = dyn
      && Replay.fired fault st
      && State.matches st regs ~block snaps.(!next)
    then raise (Converged { dyn; corrected = st.State.corrections > 0 })

(* One trial. Each draws from its own RNG seeded by (campaign seed,
   trial index), so the outcome of trial [i] does not depend on which
   domain runs it or on the trials before it.

   When the golden carries a replay set, the trial restores the latest
   snapshot preceding its fault's trigger event and executes only the
   suffix — bit-identical to the full run, just cheaper. Without a
   retry budget it also stops as soon as it re-converges with the
   golden run ([watch]). A rollback trial ([retry_budget]) gets no
   watcher (its block hook counts checkpoints): its set holds only
   checkpoint-flagged snapshots, and Compile.run counts the restored
   start as the trial's first checkpoint, so rollbacks and class are
   the full run's.

   Every trial runs untimed (Compile.run ~timed:false): no cache model,
   no issue scan. Its class reads termination, exit code, output and
   [dyn_corrections] ([classify]), or the architectural state and event
   counters ([watch]) — never a cycle — and no opcode reads the clock,
   so the class is the timed run's; the campaign's cycle figure is the
   golden run's, which stays timed. *)
module Pool = Casted_exec.Pool

let trial_instrumented ?retry_budget ~model ~golden:g ~seed ~index p =
  if Fault.population_size model g.pop = 0 then
    (* The fault path does not exist in this configuration (e.g. no
       cross-cluster reads on a single-cluster scheme): nothing to
       inject, the run is the golden run. *)
    { cls = Benign; executed = 1.0; replayed = false; converged = false }
  else begin
    let rng = Rng.create ~seed:(Rng.derive ~seed index) in
    let fault = Fault.random model rng ~population:g.pop in
    let snapshot, on_block =
      match g.replay with
      | None -> (None, None)
      | Some r ->
          let from = Replay.find_index r fault in
          ( Option.map (Array.get (Replay.snapshots r)) from,
            if retry_budget = None then
              Some (watch r fault ~from:(Option.value from ~default:(-1)))
            else None )
    in
    (match (retry_budget, snapshot) with
    | Some _, Some s when not (Compile.checkpoint p s.State.block) ->
        invalid_arg
          "Montecarlo.trial: a retry-budget trial replays only from \
           checkpoint snapshots (Replay.capture ~at)"
    | _ -> ());
    let golden_dyn = g.run.Outcome.dyn_insns in
    let cls, upto, converged =
      match
        Compile.run ~fault ~fuel:g.fuel ?snapshot ?on_block ?retry_budget
          ~timed:false p
      with
      | run -> (classify ~golden:g.run run, run.Outcome.dyn_insns, false)
      | exception Converged { dyn; corrected } ->
          ((if corrected then Recovered else Benign), dyn, true)
      | exception (_ : exn) -> (Exception, golden_dyn, false)
    in
    let start = match snapshot with Some s -> s.State.s_dyn | None -> 0 in
    (* The trial's own instructions from its start, as a share of the
       golden run (non-empty population, so [golden_dyn > 0]); capped
       at 1.0, since a timeout or a rollback's re-execution can run
       past the golden length. *)
    {
      cls;
      executed =
        Float.min 1.0 (float_of_int (upto - start) /. float_of_int golden_dyn);
      replayed = snapshot <> None;
      converged;
    }
  end

let trial ?retry_budget ?(model = Fault.Reg_bit) ~golden ~seed ~index p =
  (trial_instrumented ?retry_budget ~model ~golden ~seed ~index p).cls

let idx = function
  | Benign -> 0
  | Detected -> 1
  | Exception -> 2
  | Data_corrupt -> 3
  | Timeout -> 4
  | Recovered -> 5

let n_classes = List.length all_classes

let result_of_counts ?replay_stats ~golden:g ~model ~trials counts =
  {
    trials;
    benign = counts.(0);
    detected = counts.(1);
    exceptions = counts.(2);
    corrupt = counts.(3);
    timeouts = counts.(4);
    recovered = counts.(5);
    golden_cycles = g.run.Outcome.cycles;
    golden_dyn = g.run.Outcome.dyn_insns;
    population = Fault.population_size model g.pop;
    model;
    replay = replay_stats;
  }

let tally ?(model = Fault.Reg_bit) ~golden:g classes =
  let counts = Array.make n_classes 0 in
  Array.iter (fun c -> counts.(idx c) <- counts.(idx c) + 1) classes;
  result_of_counts ~golden:g ~model ~trials:(Array.length classes) counts

(* The absolute chunk grid: chunk [i] is trials [[i * chunk_trials,
   (i + 1) * chunk_trials)], clipped to the campaign length. Early-stop
   checks and banked partial tallies happen only at its points, so
   neither the pool size nor a kill point can move them. *)
let chunk_trials = 64

(* The end of the chunk holding trial [lo]: the first grid point above
   [lo], clipped to [trials]. A campaign resumed off the grid steps
   there first, so every later chunk and bank point is on the grid. *)
let chunk_end ~trials lo = min trials ((lo / chunk_trials + 1) * chunk_trials)

let check_ci_halfwidth = function
  | Some w when not (Float.is_finite w && w > 0.0) ->
      invalid_arg "Montecarlo.run: ci_halfwidth must be positive and finite"
  | _ -> ()

(* The sequential stop rule: the detected-rate 95% Wilson half-width,
   in percentage points, is at or below the target. *)
let narrow_enough ~target ~detected ~trials =
  100.0 *. Stats.wilson_halfwidth ~successes:detected ~trials () <= target

let early_stop_reached ~ci_halfwidth r =
  check_ci_halfwidth (Some ci_halfwidth);
  narrow_enough ~target:ci_halfwidth ~detected:r.detected ~trials:r.trials

let run ?pool ?(seed = 0xCA57ED) ?(fuel_factor = 10) ?(model = Fault.Reg_bit)
    ?ci_halfwidth ?retry_budget ?prior ?bank ~trials sched =
  check_ci_halfwidth ci_halfwidth;
  check_fuel_factor fuel_factor;
  (match prior with
  | None -> ()
  | Some (start, counts) ->
      if start < 0 || start > trials then
        invalid_arg
          (Printf.sprintf "Montecarlo.run: prior index %d outside [0, %d]"
             start trials);
      (* The stop rule is checked at [start], then at every grid point
         after it: a prior off the grid would add a check off it. *)
      if ci_halfwidth <> None && start mod chunk_trials <> 0 && start <> trials
      then
        invalid_arg
          (Printf.sprintf
             "Montecarlo.run: an early-stop campaign resumes only on the \
              %d-trial grid, not at %d"
             chunk_trials start);
      if Array.length counts <> n_classes then
        invalid_arg
          (Printf.sprintf
             "Montecarlo.run: prior carries %d outcome classes, expected %d"
             (Array.length counts) n_classes);
      if Array.fold_left ( + ) 0 counts <> start then
        invalid_arg
          (Printf.sprintf
             "Montecarlo.run: prior counts sum to %d but %d trials are \
              recorded"
             (Array.fold_left ( + ) 0 counts)
             start));
  (* One decode and one stage-2 compile per campaign, not per trial:
     the program is immutable and shared read-only by every pool
     domain. It, and the snapshot set below, live only as long as this
     call. Without a pool the campaign runs on a one-executor pool,
     which runs every batch inline when it is awaited. *)
  let p = Compile.of_decoded (Decode.of_schedule sched) in
  let pool =
    match pool with Some pool -> pool | None -> Pool.create ~jobs:1 ()
  in
  (* Every batch this call submits is awaited before it returns or
     raises. Batches are awaited in submission order, so only the
     latest one can still be in flight: [drain] awaits it (again, if
     it already was: a finished batch returns at once). *)
  let drain = ref ignore in
  let submit f arr =
    let b = Pool.submit pool f arr in
    (drain := fun () -> try ignore (Pool.await b) with (_ : exn) -> ());
    b
  in
  Fun.protect ~finally:(fun () -> !drain ()) @@ fun () ->
  (* The golden phase on two executors: the timed golden run (cycles
     and cache statistics, what the result reports) is a pool task,
     while this domain captures the snapshot set on an untimed run,
     which copies no cache state. A rollback campaign snapshots only
     at checkpoint-flagged block tops, where its trials can resume. *)
  let g =
    Casted_obs.Trace.with_span ~cat:"mc" "mc.golden" (fun () ->
        let timed = submit (fun () -> Compile.run p) [| () |] in
        let at = Option.map (fun _ -> Compile.checkpoint p) retry_budget in
        let replay_set =
          Replay.capture ?at (fun ~on_block ->
              Compile.run ~on_block ~timed:false p)
        in
        let run = (Pool.await timed).(0) in
        check_capture ~timed:run ~untimed:(Replay.golden replay_set);
        golden_of ~fuel_factor ~replay_set run)
  in
  (* A program with no fault sites for this model (no memory traffic
     for [Mem], a single cluster for [Xcluster], ...) has nothing to
     sample: the model is inapplicable to this cell. Clamp the trial
     count to zero so the campaign reports an empty-but-well-formed
     result ([population] = 0, see {!inapplicable}) instead of each
     trial raising [Invalid_argument] out of [Fault.random]. *)
  let trials =
    if Fault.population_size model g.pop = 0 then 0 else trials
  in
  (* A resumed campaign continues from a persisted tally (the result
     store's banked entry). *)
  let counts = Array.make n_classes 0 in
  let start =
    match prior with
    | Some (start, prior_counts) ->
        Array.blit prior_counts 0 counts 0 n_classes;
        start
    | None -> 0
  in
  (* Replay bookkeeping, accumulated on the coordinator at chunk
     boundaries so it cannot perturb trial order or results. *)
  let n_replayed = ref 0 in
  let n_full = ref 0 in
  let n_converged = ref 0 in
  let suffix_sum = ref 0.0 in
  let one index =
    trial_instrumented ?retry_budget ~model ~golden:g ~seed ~index p
  in
  let submit_chunk lo =
    submit one (Array.init (chunk_end ~trials lo - lo) (fun i -> lo + i))
  in
  let stop done_ =
    match ci_halfwidth with
    | None -> false
    | Some target ->
        narrow_enough ~target ~detected:counts.(idx Detected) ~trials:done_
  in
  (* Streamed chunks: chunk [lo, hi) was submitted before the previous
     chunk was tallied, and the next one is submitted before this one
     is awaited, so the executors never wait on the coordinator's
     tally, bank or stop test. Those still run in order at every grid
     point; a campaign that stops there drops the chunk in flight
     ([drain]), whose trials no tally sees. *)
  let rec go lo chunk =
    if lo >= trials || stop lo then lo
    else begin
      let hi = chunk_end ~trials lo in
      let chunk = match chunk with Some b -> b | None -> submit_chunk lo in
      let next = if hi < trials then Some (submit_chunk hi) else None in
      let results =
        Casted_obs.Trace.with_span ~cat:"mc" "mc.chunk"
          ~args:
            [ ("lo", Casted_obs.Json.Int lo); ("hi", Casted_obs.Json.Int hi) ]
          (fun () -> Pool.await chunk)
      in
      Casted_obs.Metrics.incr ~by:(hi - lo) "mc.trials";
      Array.iter
        (fun t ->
          counts.(idx t.cls) <- counts.(idx t.cls) + 1;
          if t.replayed then incr n_replayed else incr n_full;
          if t.converged then incr n_converged;
          suffix_sum := !suffix_sum +. t.executed;
          if Casted_obs.Metrics.enabled () then begin
            Casted_obs.Metrics.incr
              (if t.replayed then "replay.hits" else "replay.misses");
            if t.converged then Casted_obs.Metrics.incr "sim.converged";
            Casted_obs.Metrics.observe "replay.suffix_fraction" t.executed
          end)
        results;
      (* Bank the partial tally at every finished chunk (the final
         tally is returned normally): a killed campaign's completed
         chunks survive and get served on restart. *)
      (match bank with
      | Some f when hi < trials ->
          f ~next:hi (result_of_counts ~golden:g ~model ~trials:hi counts)
      | _ -> ());
      go hi next
    end
  in
  let done_ = go start None in
  let r = Option.get g.replay in
  let executed = !n_replayed + !n_full in
  let replay_stats =
    {
      snapshots = Replay.count r;
      snapshot_bytes = Replay.total_bytes r;
      replayed = !n_replayed;
      full_runs = !n_full;
      converged = !n_converged;
      mean_suffix =
        (if executed = 0 then 1.0 else !suffix_sum /. float_of_int executed);
    }
  in
  result_of_counts ~replay_stats ~golden:g ~model ~trials:done_ counts

(* Per-class counts in the [idx] order — what the result store
   persists. *)
let counts r =
  [| r.benign; r.detected; r.exceptions; r.corrupt; r.timeouts; r.recovered |]

(* Rebuild a result from persisted counts — the store's hit path, which
   must not need a golden run (that is the whole point of the store). *)
let of_counts ?(model = Fault.Reg_bit) ~golden_cycles ~golden_dyn ~population
    counts =
  if Array.length counts <> n_classes then
    invalid_arg
      (Printf.sprintf "Montecarlo.of_counts: %d outcome classes, expected %d"
         (Array.length counts) n_classes);
  Array.iter
    (fun c ->
      if c < 0 then invalid_arg "Montecarlo.of_counts: negative count")
    counts;
  {
    trials = Array.fold_left ( + ) 0 counts;
    benign = counts.(0);
    detected = counts.(1);
    exceptions = counts.(2);
    corrupt = counts.(3);
    timeouts = counts.(4);
    recovered = counts.(5);
    golden_cycles;
    golden_dyn;
    population;
    model;
    replay = None;
  }

let recovered_fraction r =
  if r.trials = 0 then 0.0
  else float_of_int r.recovered /. float_of_int r.trials

(* Mean Work To Failure (Reis et al.), relative to an unprotected
   baseline: MWTF = 1 / (execution-time overhead × SDC fraction). A
   scheme that doubles runtime but kills 10× more silent corruptions is
   still a 5× MWTF win; a campaign with zero corrupt trials has
   unbounded MWTF at this sample size. *)
let mwtf ~baseline_cycles r =
  let overhead =
    float_of_int r.golden_cycles /. float_of_int (max 1 baseline_cycles)
  in
  let sdc = float_of_int r.corrupt /. float_of_int (max 1 r.trials) in
  if sdc <= 0.0 then infinity else 1.0 /. (overhead *. sdc)

let pp ppf r =
  let item c =
    let lo, hi = interval r c in
    Format.asprintf "%.1f%% [%.1f, %.1f] %s" (percent r c) lo hi
      (class_name c)
  in
  Format.fprintf ppf "%d trials (%s, population %d): %s" r.trials
    (Fault.model_name r.model) r.population
    (String.concat ", " (List.map item all_classes))

let pp_replay ppf (s : replay_stats) =
  let executed = s.replayed + s.full_runs in
  Format.fprintf ppf
    "replay: %d snapshots (%.1f KiB), %d/%d trials replayed, %d \
     re-converged early, mean suffix %.1f%%"
    s.snapshots
    (float_of_int s.snapshot_bytes /. 1024.0)
    s.replayed executed s.converged
    (100.0 *. s.mean_suffix)
