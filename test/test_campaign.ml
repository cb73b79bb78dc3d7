(* Campaign statistics and crash-proofing: Wilson intervals, sequential
   early stopping, resume from a banked prefix, and trial-level fault
   tolerance. *)

open Helpers
module Fault = Casted_sim.Fault
module Stats = Casted_sim.Stats
module Montecarlo = Casted_sim.Montecarlo
module Pool = Casted_exec.Pool
module Workload = Casted_workloads.Workload
module Engine = Casted_engine.Engine

(* A small kernel with loads, stores and conditional branches so every
   fault model has a non-empty population under CASTED. *)
let kernel () =
  program_of (fun b ->
      let base = B.movi b 0x100L in
      let acc = B.movi b 1L in
      B.counted_loop b ~from:0L ~until:12L (fun b i ->
          let x = B.mul b acc acc in
          let y = B.add b x i in
          let (_ : Reg.t) = B.andi b ~dst:acc y 0xFFFFL in
          B.st b Opcode.W8 ~value:acc ~base 0L);
      let out = B.movi b 0x40L in
      let v = B.ld b Opcode.W8 base 0L in
      B.st b Opcode.W8 ~value:v ~base:out 0L)

let schedule () =
  let c =
    Pipeline.compile ~scheme:Scheme.Casted ~issue_width:2 ~delay:2 (kernel ())
  in
  c.Pipeline.schedule

let same_result msg (a : Montecarlo.result) (b : Montecarlo.result) =
  let ck field = Alcotest.(check int) (msg ^ ": " ^ field) in
  ck "trials" a.Montecarlo.trials b.Montecarlo.trials;
  ck "benign" a.Montecarlo.benign b.Montecarlo.benign;
  ck "detected" a.Montecarlo.detected b.Montecarlo.detected;
  ck "exceptions" a.Montecarlo.exceptions b.Montecarlo.exceptions;
  ck "corrupt" a.Montecarlo.corrupt b.Montecarlo.corrupt;
  ck "timeouts" a.Montecarlo.timeouts b.Montecarlo.timeouts;
  ck "recovered" a.Montecarlo.recovered b.Montecarlo.recovered

(* Wilson interval: a known value, the empty-sample convention, the
   edge rates, and basic soundness over a sweep. *)
let test_wilson_known_values () =
  let close name expected got =
    Alcotest.(check bool)
      (Printf.sprintf "%s: |%.4f - %.4f| < 1e-3" name expected got)
      true
      (Float.abs (expected -. got) < 1e-3)
  in
  let lo, hi = Stats.wilson ~successes:50 ~trials:100 () in
  close "50/100 lo" 0.4038 lo;
  close "50/100 hi" 0.5962 hi;
  let lo, hi = Stats.wilson ~successes:0 ~trials:10 () in
  close "0/10 lo" 0.0 lo;
  close "0/10 hi" 0.2775 hi;
  let lo, hi = Stats.wilson ~successes:10 ~trials:10 () in
  close "10/10 lo" (1.0 -. 0.2775) lo;
  close "10/10 hi" 1.0 hi;
  let lo, hi = Stats.wilson ~successes:0 ~trials:0 () in
  close "empty lo" 0.0 lo;
  close "empty hi" 1.0 hi

let test_wilson_soundness () =
  List.iter
    (fun (successes, trials) ->
      let lo, hi = Stats.wilson ~successes ~trials () in
      let p = float_of_int successes /. float_of_int trials in
      Alcotest.(check bool)
        (Printf.sprintf "%d/%d: 0 <= %.4f <= %.4f <= %.4f <= 1" successes
           trials lo p hi)
        true
        (0.0 <= lo && lo <= p && p <= hi && hi <= 1.0))
    [ (0, 1); (1, 1); (1, 3); (7, 300); (299, 300); (150, 300); (1, 100000) ];
  (* More trials at the same rate must narrow the interval. *)
  let hw n = Stats.wilson_halfwidth ~successes:(n / 2) ~trials:n () in
  Alcotest.(check bool) "interval narrows with n" true
    (hw 10 > hw 100 && hw 100 > hw 10000)

(* Boundary cases: all-success, all-failure and the one-trial sample
   must stay inside [0,1], the halfwidth must shrink monotonically in
   the trial count at a fixed rate, and one golden halfwidth pins the
   formula itself. *)
let test_wilson_boundaries () =
  let in_unit name (successes, trials) =
    let lo, hi = Stats.wilson ~successes ~trials () in
    Alcotest.(check bool)
      (Printf.sprintf "%s: 0 <= %.4f <= %.4f <= 1" name lo hi)
      true
      (0.0 <= lo && lo <= hi && hi <= 1.0)
  in
  in_unit "successes = trials = 1" (1, 1);
  in_unit "successes = 0, trials = 1" (0, 1);
  in_unit "successes = trials" (37, 37);
  in_unit "successes = 0" (0, 37);
  in_unit "successes = trials, large" (1_000_000, 1_000_000);
  (* All-success intervals reach 1; all-failure intervals reach 0. *)
  let _, hi = Stats.wilson ~successes:37 ~trials:37 () in
  Alcotest.(check (float 1e-9)) "all-success upper bound is 1" 1.0 hi;
  let lo, _ = Stats.wilson ~successes:0 ~trials:37 () in
  Alcotest.(check (float 1e-9)) "all-failure lower bound is 0" 0.0 lo;
  (* Monotone in trials at the all-success rate: more evidence, tighter
     interval. *)
  let hw n = Stats.wilson_halfwidth ~successes:n ~trials:n () in
  Alcotest.(check bool) "halfwidth monotone in trials" true
    (hw 1 > hw 10 && hw 10 > hw 100 && hw 100 > hw 10_000);
  (* Golden value: 50/100 at z=1.96 has halfwidth 0.09617. *)
  Alcotest.(check (float 1e-4)) "halfwidth golden value" 0.09617
    (Stats.wilson_halfwidth ~successes:50 ~trials:100 ())

let test_wilson_rejects_bad_counts () =
  let expect_invalid name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "negative successes" (fun () ->
      Stats.wilson ~successes:(-1) ~trials:10 ());
  expect_invalid "successes > trials" (fun () ->
      Stats.wilson ~successes:11 ~trials:10 ())

(* A raising trial is a tallied Exception, never a propagated crash. *)
let test_raising_trial_is_tallied () =
  let golden = Simulator.run (schedule ()) in
  Alcotest.(check string) "Error is an exception outcome" "exception"
    (Montecarlo.class_name
       (Montecarlo.classify_result ~golden (Error (Failure "boom"))));
  Alcotest.(check string) "Ok classifies normally" "benign"
    (Montecarlo.class_name (Montecarlo.classify_result ~golden (Ok golden)))

(* A model whose population is empty in this configuration (xcluster on
   a single-cluster NOED schedule) yields Benign, not a crash. *)
let test_empty_population_is_benign () =
  let c =
    Pipeline.compile ~scheme:Scheme.Noed ~issue_width:2 ~delay:1 (kernel ())
  in
  let s = c.Pipeline.schedule in
  let g = Montecarlo.golden_decoded (Casted_sim.Decode.of_schedule s) in
  Alcotest.(check int) "no cross-cluster reads on one cluster" 0
    g.Montecarlo.pop.Fault.xcluster_reads;
  (* A single trial forced through an empty pool still classifies
     benign (the per-trial guard)... *)
  Alcotest.(check string) "trial is benign" "benign"
    (Montecarlo.class_name
       (Montecarlo.trial ~model:Fault.Xcluster ~golden:g ~seed:3 ~index:0
          (compiled_of s)));
  (* ...but a campaign reports the model as inapplicable: zero trials
     run, population recorded as empty, no exception escapes. *)
  let r = Montecarlo.run ~model:Fault.Xcluster ~seed:3 ~trials:10 s in
  Alcotest.(check int) "campaign runs no trials" 0 r.Montecarlo.trials;
  Alcotest.(check int) "population is empty" 0 r.Montecarlo.population;
  Alcotest.(check bool) "result is inapplicable" true
    (Montecarlo.inapplicable r)

(* An inapplicable cell is reported identically whatever the pool
   size: zero trials, empty population, bit-identical results at
   jobs=1 and jobs=4 — never a crash from drawing on an empty pool. *)
let test_inapplicable_skip_across_pools () =
  let c =
    Pipeline.compile ~scheme:Scheme.Noed ~issue_width:2 ~delay:1 (kernel ())
  in
  let s = c.Pipeline.schedule in
  let run jobs =
    Pool.with_pool ~jobs (fun pool ->
        Montecarlo.run ~pool ~model:Fault.Xcluster ~seed:5 ~trials:50 s)
  in
  let seq = run 1 and par = run 4 in
  same_result "inapplicable cell jobs=4 vs jobs=1" par seq;
  Alcotest.(check int) "jobs=1 runs no trials" 0 seq.Montecarlo.trials;
  Alcotest.(check bool) "jobs=1 is inapplicable" true
    (Montecarlo.inapplicable seq);
  Alcotest.(check bool) "jobs=4 is inapplicable" true
    (Montecarlo.inapplicable par)

(* Early stopping fires at the same chunk boundary whatever the pool
   size, and only runs fewer trials than requested. *)
let test_early_stop_deterministic () =
  let s = schedule () in
  let run jobs =
    Pool.with_pool ~jobs (fun pool ->
        Montecarlo.run ~pool ~seed:11 ~ci_halfwidth:25.0 ~trials:10_000 s)
  in
  let seq = run 1 and par = run 4 in
  same_result "early stop jobs=4 vs jobs=1" par seq;
  Alcotest.(check bool) "stopped before the requested count" true
    (seq.Montecarlo.trials < 10_000);
  Alcotest.(check int) "stopped at a chunk boundary" 0
    (seq.Montecarlo.trials mod Montecarlo.chunk_trials);
  Alcotest.(check bool) "the target is reached" true
    (Montecarlo.halfwidth seq Montecarlo.Detected <= 25.0)

(* Streamed chunks: a campaign submits the next chunk before it tallies
   the current one, yet an early stop at jobs 2 lands on the same grid
   point with the same tally and the same banked prefixes as at jobs 1,
   and the chunk still in flight when it stops (or when a bank hook
   raises) is awaited before the call returns: nothing stays queued or
   running in the pool. *)
let test_early_stop_streamed () =
  let s = schedule () in
  let idle pool what =
    Alcotest.(check int) (what ^ ": no task queued or running") 0
      (Pool.stats pool).Pool.pending
  in
  let run jobs =
    Pool.with_pool ~jobs (fun pool ->
        let banked = ref [] in
        let bank ~next r = banked := (next, Montecarlo.counts r) :: !banked in
        let r =
          Montecarlo.run ~pool ~seed:11 ~ci_halfwidth:8.0 ~bank ~trials:10_000 s
        in
        idle pool (Printf.sprintf "jobs=%d early stop" jobs);
        (match
           Montecarlo.run ~pool ~seed:11 ~trials:1_000
             ~bank:(fun ~next:_ _ -> raise Exit)
             s
         with
        | _ -> Alcotest.fail "the raising bank hook did not stop the campaign"
        | exception Exit -> idle pool (Printf.sprintf "jobs=%d raise" jobs));
        (r, List.rev !banked))
  in
  let seq, seq_banked = run 1 and par, par_banked = run 2 in
  same_result "streamed early stop jobs=2 vs jobs=1" par seq;
  Alcotest.(check bool) "stopped after several chunks, before the end" true
    (seq.Montecarlo.trials > Montecarlo.chunk_trials
    && seq.Montecarlo.trials < 10_000);
  Alcotest.(check (list (pair int (array int))))
    "same banked prefixes" seq_banked par_banked;
  Alcotest.(check (list int))
    "banked at every grid point up to the stop"
    (List.init
       (seq.Montecarlo.trials / Montecarlo.chunk_trials)
       (fun i -> (i + 1) * Montecarlo.chunk_trials))
    (List.map fst seq_banked)

let test_early_stop_rejects_bad_target () =
  List.iter
    (fun w ->
      match Montecarlo.run ~ci_halfwidth:w ~trials:10 (schedule ()) with
      | _ -> Alcotest.failf "expected Invalid_argument for target %g" w
      | exception Invalid_argument _ -> ())
    [ 0.0; -1.0; Float.nan; Float.infinity ]

(* A fuel factor below 1 gives every trial no budget at all: the
   campaign, the golden run and an engine campaign all refuse it with a
   located message instead of tallying every trial as a timeout. *)
let test_fuel_factor_below_one_rejected () =
  let s = schedule () in
  let d = Casted_sim.Decode.of_schedule s in
  let key =
    Casted_engine.Cache.key ~workload:"cjpeg" ~size:Workload.Fault
      ~scheme:Scheme.Casted ~issue_width:2 ~delay:2 ()
  in
  let expect what f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (what ^ ": message names fuel_factor")
          true
          (String.starts_with ~prefix:"Montecarlo.run: fuel_factor" msg)
  in
  List.iter
    (fun fuel_factor ->
      let what name = Printf.sprintf "%s fuel_factor %d" name fuel_factor in
      expect (what "run") (fun () ->
          ignore (Montecarlo.run ~fuel_factor ~trials:10 s));
      expect (what "golden") (fun () ->
          ignore (Montecarlo.golden_decoded ~fuel_factor d));
      expect (what "engine campaign") (fun () ->
          Engine.with_engine ~jobs:1 (fun e ->
              ignore (Engine.campaign e ~fuel_factor ~trials:10 key))))
    [ 0; -1 ]

(* The tally of trials [0, n), as a killed campaign would have banked
   it (counts order). *)
let prefix_counts s ~seed n =
  let g = Montecarlo.golden_decoded (Casted_sim.Decode.of_schedule s) in
  let p = compiled_of s in
  Montecarlo.counts
    (Montecarlo.tally ~golden:g
       (Array.init n (fun index -> Montecarlo.trial ~golden:g ~seed ~index p)))

(* The crash-recovery property: a campaign killed at any chunk boundary
   and resumed from its banked prefix produces the bit-identical tally
   of the uninterrupted campaign, whatever the pool size. *)
let test_resume_bit_identical () =
  let s = schedule () in
  let seed = 5 and trials = 200 in
  let uninterrupted = Montecarlo.run ~seed ~trials s in
  List.iter
    (fun kill_at ->
      let prior = (kill_at, prefix_counts s ~seed kill_at) in
      List.iter
        (fun jobs ->
          let resumed =
            Pool.with_pool ~jobs (fun pool ->
                Montecarlo.run ~pool ~seed ~prior ~trials s)
          in
          same_result
            (Printf.sprintf "killed at %d, resumed with jobs=%d" kill_at jobs)
            resumed uninterrupted)
        [ 1; 4 ])
    [ 64; 128 ]

(* A cell banked off the grid (100 trials, from a shorter request) and
   extended to 300 runs to the next grid point first: it banks at 128,
   192 and 256, as a cold run does, and ends on the cold run's tally. *)
let test_off_grid_resume_steps_to_grid () =
  let s = schedule () in
  let seed = 5 and trials = 300 in
  let banked = ref [] in
  let bank ~next _ = banked := next :: !banked in
  let resumed =
    Montecarlo.run ~seed ~prior:(100, prefix_counts s ~seed 100) ~bank ~trials
      s
  in
  Alcotest.(check (list int)) "bank points" [ 128; 192; 256 ]
    (List.rev !banked);
  same_result "resumed off the grid" resumed (Montecarlo.run ~seed ~trials s)

(* The chunk grid, from any resume index: a campaign resumed at
   [start], on the grid or off it, banks at exactly the grid points
   between [start] and [trials] and ends on the cold tally; an
   early-stop campaign accepts [start] only at a grid point or the end.
   Per-trial classes are computed once and summed into every prefix. *)
let grid_classes =
  lazy
    (let s = schedule () in
     let g = Montecarlo.golden_decoded (Casted_sim.Decode.of_schedule s) in
     let p = compiled_of s in
     (s, g, Array.init 400 (fun index -> Montecarlo.trial ~golden:g ~seed:5 ~index p)))

let prop_chunk_grid (trials, start) =
  let start = start mod (trials + 1) in
  let s, g, classes = Lazy.force grid_classes in
  let tally n =
    Montecarlo.counts (Montecarlo.tally ~golden:g (Array.sub classes 0 n))
  in
  let banked = ref [] in
  let resumed =
    Montecarlo.run ~seed:5 ~prior:(start, tally start)
      ~bank:(fun ~next _ -> banked := next :: !banked)
      ~trials s
  in
  let grid_points =
    List.filter
      (fun i -> i > start && i < trials)
      (List.init (trials / Montecarlo.chunk_trials + 1) (fun k ->
           k * Montecarlo.chunk_trials))
  in
  let early_stop_accepts =
    match
      Montecarlo.run ~seed:5 ~ci_halfwidth:100.0 ~prior:(start, tally start)
        ~trials s
    with
    | (_ : Montecarlo.result) -> true
    | exception Invalid_argument _ -> false
  in
  Montecarlo.counts resumed = tally trials
  && List.rev !banked = grid_points
  && early_stop_accepts
     = (start mod Montecarlo.chunk_trials = 0 || start = trials)

(* A prior that cannot be the banked prefix of this campaign is a loud
   error, not a silently wrong tally. *)
let test_resume_rejects_malformed_prior () =
  let s = schedule () in
  let counts = prefix_counts s ~seed:5 64 in
  let rejected msg ?ci_halfwidth prior =
    match Montecarlo.run ~seed:5 ?ci_halfwidth ~prior ~trials:200 s with
    | _ -> Alcotest.fail ("expected Invalid_argument: " ^ msg)
    | exception Invalid_argument _ -> ()
  in
  rejected "index beyond the campaign" (201, counts);
  rejected "counts do not sum to the index" (128, counts);
  rejected "wrong class count" (64, Array.sub counts 0 5);
  rejected "early stop off the chunk grid" ~ci_halfwidth:25.0
    (60, prefix_counts s ~seed:5 60)

(* A store campaign banks every finished chunk on the way and leaves a
   complete entry, so rerunning it simulates nothing and reproduces the
   tally. *)
let test_finished_campaign_reserved () =
  with_store (fun store ->
      let key =
        Casted_engine.Cache.key ~workload:"cjpeg" ~size:Workload.Fault
          ~scheme:Scheme.Casted ~issue_width:2 ~delay:2 ()
      in
      Engine.with_engine ~jobs:2 (fun e ->
          let run () =
            Engine.campaign_stored e ~seed:6 ~store ~trials:100 key
          in
          let first = run () in
          Alcotest.(check int) "banked the first chunk, then the tally" 2
            (Engine.store_counters e).Engine.store_writes;
          let again = run () in
          Alcotest.(check int) "first run simulated everything" 100
            first.Engine.simulated;
          Alcotest.(check int) "rerun simulated nothing" 0
            again.Engine.simulated;
          Alcotest.(check int) "rerun served the whole tally" 100
            again.Engine.served;
          same_result "re-served finished campaign" again.Engine.result
            first.Engine.result))

(* Recovery campaigns keep the engine's determinism contract: the
   recovered tally of a TMR (voting) and a ROLLBACK (retrying) campaign
   is bit-identical whatever the pool size, and is non-empty under
   reg-bit faults. *)
let test_recovery_campaign_deterministic () =
  List.iter
    (fun scheme ->
      let key =
        Casted_engine.Cache.key ~workload:"cjpeg" ~size:Workload.Fault ~scheme
          ~issue_width:2 ~delay:2 ()
      in
      let run jobs =
        Casted_engine.Engine.with_engine ~jobs (fun e ->
            Casted_engine.Engine.campaign e ~seed:9 ~trials:120 key)
      in
      let seq = run 1 and par = run 4 in
      same_result
        (Scheme.name scheme ^ " recovery campaign jobs=4 vs jobs=1")
        par seq;
      Alcotest.(check bool)
        (Scheme.name scheme ^ " recovers some trials")
        true
        (seq.Montecarlo.recovered > 0))
    [ Scheme.Tmr; Scheme.Rollback ]

(* DME keeps the determinism contract under the model it decorrelates
   against: a mem-model campaign is bit-identical whatever the pool
   size, and converts CASTED-escaping shared-line SDCs into detections
   (strictly fewer corrupt trials than CASTED on the same cell). *)
let test_dme_campaign_deterministic () =
  let key scheme =
    Casted_engine.Cache.key ~workload:"cjpeg" ~size:Workload.Fault ~scheme
      ~issue_width:2 ~delay:2 ()
  in
  let run jobs scheme =
    Casted_engine.Engine.with_engine ~jobs (fun e ->
        Casted_engine.Engine.campaign e ~seed:13 ~model:Fault.Mem ~trials:200
          (key scheme))
  in
  let seq = run 1 Scheme.Dme and par = run 4 Scheme.Dme in
  same_result "DME mem campaign jobs=4 vs jobs=1" par seq;
  let casted = run 2 Scheme.Casted in
  Alcotest.(check bool) "DME sheds CASTED-escaping mem SDCs" true
    (seq.Montecarlo.corrupt < casted.Montecarlo.corrupt)

(* The robustness matrix on cjpeg: every scheme under every fault model,
   on the narrowest and the widest machine, runs its trials through the
   engine without raising. The only cells without injection sites are
   the single-cluster schemes under the cross-cluster model. *)
let test_robustness_matrix () =
  let trials = 8 in
  Engine.with_engine ~jobs:2 (fun e ->
      List.iter
        (fun (issue, delay) ->
          List.iter
            (fun scheme ->
              let key =
                Casted_engine.Cache.key ~workload:"cjpeg" ~size:Workload.Fault
                  ~scheme ~issue_width:issue ~delay ()
              in
              List.iter
                (fun model ->
                  let cell =
                    Printf.sprintf "%s/%s i%d d%d" (Scheme.name scheme)
                      (Fault.model_name model) issue delay
                  in
                  let r = Engine.campaign e ~model ~trials key in
                  let single_cluster =
                    scheme = Scheme.Noed || scheme = Scheme.Sced
                  in
                  Alcotest.(check bool)
                    (cell ^ ": inapplicable")
                    (single_cluster && model = Fault.Xcluster)
                    (Montecarlo.inapplicable r);
                  if not (Montecarlo.inapplicable r) then
                    Alcotest.(check int) (cell ^ ": trials") trials
                      r.Montecarlo.trials)
                Fault.all_models)
            Scheme.all)
        [ (1, 1); (4, 4) ])

(* Every scheme under every fault model: the engine's campaign tally is
   the same at jobs 1 and 4, and equals the full-length reference
   (every trial tallied from a golden run with no snapshot set: no
   snapshot restore, no early exit). Every campaign replays: the
   rollback campaign, which has a retry budget, starts its trials from
   checkpoint snapshots, so its replay-vs-full-length identity covers
   rollback recovery from a restored region head. *)
let test_matrix_pool_invariant () =
  let converged = ref 0 in
  List.iter
    (fun scheme ->
      let key =
        Casted_engine.Cache.key ~workload:"cjpeg" ~size:Workload.Fault ~scheme
          ~issue_width:2 ~delay:2 ()
      in
      let decoded =
        Engine.with_engine ~jobs:1 (fun e ->
            Casted_sim.Decode.of_schedule
              (Engine.compile e key).Pipeline.schedule)
      in
      let retry_budget =
        if scheme = Scheme.Rollback then Some Engine.default_retry_budget
        else None
      in
      List.iter
        (fun model ->
          let run jobs =
            Engine.with_engine ~jobs (fun e ->
                Engine.campaign e ~seed:21 ~model ~trials:96 key)
          in
          let cell = Scheme.name scheme ^ "/" ^ Fault.model_name model in
          let seq = run 1 in
          same_result (cell ^ " jobs=4 vs jobs=1") (run 4) seq;
          same_result (cell ^ " replay vs full-length")
            (full_length_tally ?retry_budget ~model ~seed:21 ~trials:96
               decoded)
            seq;
          Alcotest.(check bool)
            (cell ^ " replays, with or without a retry budget")
            true
            (match seq.Montecarlo.replay with
            | Some s -> s.Montecarlo.replayed > 0 || seq.Montecarlo.trials = 0
            | None -> false);
          Option.iter
            (fun s -> converged := !converged + s.Montecarlo.converged)
            seq.Montecarlo.replay)
        Fault.all_models)
    Scheme.all;
  Alcotest.(check bool) "trials re-converged early" true (!converged > 0)

(* Pool.map_result: raising tasks land as Error in their own slot;
   every other task still completes. *)
let test_pool_map_result () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let results =
        Pool.map_result pool
          (fun i -> if i mod 5 = 2 then failwith (string_of_int i) else 2 * i)
          (Array.init 20 Fun.id)
      in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (2 * i) v
          | Error (Failure msg) ->
              Alcotest.(check int) (Printf.sprintf "slot %d raised" i) i
                (int_of_string msg);
              Alcotest.(check int) "only the raising slots" 2 (i mod 5)
          | Error e -> raise e)
        results)

let suite =
  ( "campaign",
    [
      case "wilson known values" test_wilson_known_values;
      case "wilson soundness" test_wilson_soundness;
      case "wilson boundary cases" test_wilson_boundaries;
      case "wilson rejects bad counts" test_wilson_rejects_bad_counts;
      case "raising trial is tallied" test_raising_trial_is_tallied;
      case "empty population is benign" test_empty_population_is_benign;
      case "inapplicable cells skip identically across pools"
        test_inapplicable_skip_across_pools;
      case "early stop deterministic across pools"
        test_early_stop_deterministic;
      case "early stop rejects bad target" test_early_stop_rejects_bad_target;
      case "killed + resumed campaign is bit-identical"
        test_resume_bit_identical;
      case "resume rejects a malformed prior"
        test_resume_rejects_malformed_prior;
      case "finished campaign leaves a complete store entry"
        test_finished_campaign_reserved;
      case "recovery campaigns are pool-size independent"
        test_recovery_campaign_deterministic;
      case "DME campaigns are pool-size independent and shed mem SDCs"
        test_dme_campaign_deterministic;
      Alcotest.test_case "every scheme x model: jobs 1 = jobs 4 = full-length"
        `Slow test_matrix_pool_invariant;
      case "pool map_result isolates raising tasks" test_pool_map_result;
      case "off-grid resume steps to the grid"
        test_off_grid_resume_steps_to_grid;
      case "fuel factor below 1 is rejected"
        test_fuel_factor_below_one_rejected;
      qcheck ~count:100 "chunk grid: every prefix resumes bit-identically"
        QCheck2.Gen.(pair (int_range 0 400) (int_range 0 400))
        prop_chunk_grid;
      case "robustness matrix: cjpeg schemes x models x machines"
        test_robustness_matrix;
      case "streamed early stop: jobs 2 = jobs 1, nothing left in flight"
        test_early_stop_streamed;
    ] )
