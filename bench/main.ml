(* CI-gated benchmark harness.

   Measures the numbers scripts/perf_check.py gates, prints them and
   writes them to a machine-readable BENCH.json (schema in
   EXPERIMENTS.md). The paper's tables and figures are regenerated by
   `casted repro`, not here.

   Environment knobs (malformed values exit 2, never silently default):
     CASTED_FAST=1    smaller trial and repetition counts, for smoke
                      testing (0 or unset: full run; anything else is an
                      error)
     CASTED_JOBS      worker domains for the experiment engine (default:
                      the number of cores); results are identical for
                      any value, including 1
     CASTED_SECTIONS  comma-separated subset of sections to run
     CASTED_BENCH_OUT machine-readable output path (default BENCH.json;
                      schema documented in EXPERIMENTS.md) *)

module W = Casted_workloads.Workload
module Registry = Casted_workloads.Registry
module Scheme = Casted_detect.Scheme
module Pipeline = Casted_detect.Pipeline
module Simulator = Casted_sim.Simulator
module Outcome = Casted_sim.Outcome
module Montecarlo = Casted_sim.Montecarlo
module Report = Casted_report
module Engine = Casted_engine.Engine
module Pool = Casted_exec.Pool
module Obs = Casted_obs

let env_failure fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

(* Malformed knobs are rejected loudly: CASTED_FAST=yes must not
   silently run the full suite. *)
let fast =
  match Sys.getenv_opt "CASTED_FAST" with
  | None -> false
  | Some s -> (
      match String.trim s with
      | "1" -> true
      | "0" | "" -> false
      | s -> env_failure "CASTED_FAST must be 0 or 1 (got %S)" s)

let jobs =
  match Pool.default_jobs () with
  | Ok n -> n
  | Error msg -> env_failure "%s" msg

let engine = Engine.create ~jobs ()

let seed = 0xCA57ED

let all_sections =
  [ "recovery_overhead"; "dme_coverage"; "sim_throughput"; "store" ]

let sections =
  match Sys.getenv_opt "CASTED_SECTIONS" with
  | Some s ->
      let names =
        List.filter
          (fun n -> n <> "")
          (List.map String.trim (String.split_on_char ',' s))
      in
      List.iter
        (fun n ->
          if not (List.mem n all_sections) then
            env_failure "CASTED_SECTIONS: unknown section %S (use %s)" n
              (String.concat ", " all_sections))
        names;
      names
  | None -> []

let enabled name = sections = [] || List.mem name sections

let bench_out =
  match Sys.getenv_opt "CASTED_BENCH_OUT" with
  | Some "" -> env_failure "CASTED_BENCH_OUT must be a path (got \"\")"
  | Some p -> p
  | None -> "BENCH.json"

let banner name =
  Printf.printf "\n================ %s ================\n%!" name

(* Section wall times, written to [bench_out] at the end. *)
let section_times : (string * float) list ref = ref []

(* Recovery-scheme cost/benefit through the real pipeline: runtime
   overhead, recovered fraction, residual SDC, MWTF and campaign
   throughput of CASTED (detection-only) vs the TMR and ROLLBACK
   recovery schemes, against the NOED baseline. Feeds the
   `recovery_overhead` section of BENCH.json; the recovered-fraction
   floors and the rollback fault-free-ratio floor are checked by
   scripts/perf_check.py in CI. *)
let recovery_overhead_json : Obs.Json.t ref = ref Obs.Json.Null

(* Wall time of one call. *)
let time f =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  Unix.gettimeofday () -. t0

let median times =
  let times = Array.copy times in
  Array.sort compare times;
  times.(Array.length times / 2)

(* Median wall time of seven runs: the engine ratios below compare
   medians measured back to back on the same host. *)
let median_time f = median (Array.init 7 (fun _ -> time f))

let section_recovery_overhead () =
  banner "Recovery overhead: CASTED vs TMR vs ROLLBACK (cjpeg, issue 2 delay 2)";
  let f x = Obs.Json.Float x in
  let key scheme =
    Casted_engine.Cache.key ~workload:"cjpeg" ~size:W.Fault ~scheme
      ~issue_width:2 ~delay:2 ()
  in
  let _, noed = Engine.simulate engine (key Scheme.Noed) in
  let base = noed.Outcome.cycles in
  let n = if fast then 40 else 150 in
  (* Fault-free cost of rollback support on the checkpoint-heaviest
     workload (181.mcf passes ~3080 region heads per run): median plain
     run time over median fault-free recovering run time, both on the
     same pre-compiled program (one engine). A machine-independent
     ratio; near 1.0 while checkpoints stay lazy, far below it if every
     region head materializes a snapshot again. *)
  let fault_free_ratio =
    let p =
      Casted_sim.Compile.of_decoded
        (Casted_sim.Decode.of_schedule
           (Engine.compile engine
              (Casted_engine.Cache.key ~workload:"181.mcf" ~size:W.Fault
                 ~scheme:Scheme.Rollback ~issue_width:2 ~delay:2 ()))
             .Pipeline.schedule)
    in
    let plain = median_time (fun () -> Casted_sim.Compile.run p) in
    let recovering =
      median_time (fun () ->
          Casted_sim.Compile.run ~retry_budget:Engine.default_retry_budget p)
    in
    plain /. recovering
  in
  Printf.printf
    "ROLLBACK fault-free ratio (181.mcf, plain / recovering): %.2f\n"
    fault_free_ratio;
  let one scheme =
    let t0 = Unix.gettimeofday () in
    let r = Engine.campaign engine ~seed ~trials:n (key scheme) in
    let wall = Unix.gettimeofday () -. t0 in
    let overhead =
      float_of_int r.Montecarlo.golden_cycles /. float_of_int base
    in
    let recovered = Montecarlo.recovered_fraction r in
    let sdc =
      float_of_int r.Montecarlo.corrupt
      /. float_of_int (max 1 r.Montecarlo.trials)
    in
    let tps = float_of_int r.Montecarlo.trials /. wall in
    let mwtf = Montecarlo.mwtf ~baseline_cycles:base r in
    Printf.printf
      "%-10s overhead %.2fx, recovered %5.1f%%, sdc %4.1f%%, mwtf %s, %.0f \
       trials/s\n"
      (Scheme.name scheme) overhead (100.0 *. recovered) (100.0 *. sdc)
      (if Float.is_finite mwtf then Printf.sprintf "%.1f" mwtf else "inf")
      tps;
    ( String.lowercase_ascii (Scheme.name scheme),
      Obs.Json.Obj
        ([
          ("overhead", f overhead);
          ("recovered_fraction", f recovered);
          ("sdc_fraction", f sdc);
          (* JSON has no infinity: an SDC-free campaign reports null. *)
          ("mwtf", if Float.is_finite mwtf then f mwtf else Obs.Json.Null);
          ("trials_per_s", f tps);
          ("trials", Obs.Json.Int r.Montecarlo.trials);
        ]
        @
        if scheme = Scheme.Rollback then
          [ ("fault_free_ratio", f fault_free_ratio) ]
        else []) )
  in
  let rows = List.map one [ Scheme.Casted; Scheme.Tmr; Scheme.Rollback ] in
  recovery_overhead_json :=
    Obs.Json.Obj
      ([
         ("workload", Obs.Json.String "cjpeg");
         ("issue", Obs.Json.Int 2);
         ("delay", Obs.Json.Int 2);
         ("noed_cycles", Obs.Json.Int base);
       ]
      @ rows)

(* DME escape coverage: how much of the silent corruption that escapes
   CASTED's bit-identical replication under the shared-resource fault
   models (mem, xcluster) does the decorrelated multi-version scheme
   convert into detections? Feeds the `dme_coverage` section of
   BENCH.json; the mem caught-fraction floor is checked by
   scripts/perf_check.py in CI. *)
let dme_coverage_json : Obs.Json.t ref = ref Obs.Json.Null

let section_dme_coverage () =
  banner "DME escape coverage: CASTED vs DME (cjpeg, issue 2 delay 2)";
  (* The xcluster SDC pool is small (a few per hundred trials), so the
     section keeps a statistically meaningful trial count in fast mode
     too. *)
  let n = 300 in
  let rows =
    Report.Coverage.dme_coverage ~engine ~seed ~trials:n ~benchmark:"cjpeg" ()
  in
  print_string (Report.Coverage.render_dme rows);
  dme_coverage_json :=
    Obs.Json.Obj
      ([
         ("workload", Obs.Json.String "cjpeg");
         ("issue", Obs.Json.Int 2);
         ("delay", Obs.Json.Int 2);
         ("trials", Obs.Json.Int n);
       ]
      @ List.map
          (fun (r : Report.Coverage.dme_escape) ->
            ( Casted_sim.Fault.model_name r.Report.Coverage.escape_model,
              Obs.Json.Obj
                [
                  ("casted_sdc", Obs.Json.Int r.Report.Coverage.casted_sdc);
                  ("dme_sdc", Obs.Json.Int r.Report.Coverage.dme_sdc);
                  ( "caught_fraction",
                    Obs.Json.Float r.Report.Coverage.caught_fraction );
                ] ))
          rows)

(* Simulator throughput on the pre-decoded core and the stage-2
   closure-threaded engine: the numbers every campaign's wall-clock
   divides by. Uses a fixed trial count per mode so the figure is
   comparable across runs, and reports the one-off decode /
   capture / stage-2 compile costs next to the per-trial rates. Checked
   against scripts/perf_baseline.json by the CI perf-smoke job. *)
let sim_throughput_json : Obs.Json.t ref = ref Obs.Json.Null

let section_sim_throughput () =
  banner "Simulator throughput (pre-decoded core, cjpeg CASTED i2 d2)";
  (* Earlier sections leave a live heap (the engine's memoized
     compiles); compact so GC pressure from *their* garbage
     does not tax the per-trial rates measured here — replayed trials
     are short, so they are hit hardest. *)
  Gc.compact ();
  let f x = Obs.Json.Float x in
  let w = Option.get (Registry.find "cjpeg") in
  let program = w.W.build W.Fault in
  let compiled =
    Pipeline.compile ~scheme:Scheme.Casted ~issue_width:2 ~delay:2 program
  in
  let sched = compiled.Pipeline.schedule in
  let decode_reps = if fast then 10 else 50 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to decode_reps do
    ignore (Casted_sim.Decode.of_schedule sched)
  done;
  let decode_s = (Unix.gettimeofday () -. t0) /. float_of_int decode_reps in
  let decoded = Casted_sim.Decode.of_schedule sched in
  let golden = Montecarlo.golden_decoded decoded in
  let golden_dyn = golden.Montecarlo.run.Outcome.dyn_insns in
  let tput_trials = if fast then 256 else 1024 in
  (* One-off stage-2 compile of the decoded program into pre-bound
     closures — a campaign compiles once and every domain shares the
     immutable program. *)
  let t0 = Unix.gettimeofday () in
  for _ = 1 to decode_reps do
    ignore (Casted_sim.Compile.of_decoded decoded)
  done;
  let compile_s = (Unix.gettimeofday () -. t0) /. float_of_int decode_reps in
  let stage2 = Casted_sim.Compile.of_decoded decoded in
  (* One-off capture of the golden-prefix snapshot set — a campaign
     captures exactly once, so its cost is reported next to decode, not
     folded into the per-trial rates. *)
  let t0 = Unix.gettimeofday () in
  let replay_set =
    Casted_sim.Replay.capture (fun ~on_block ->
        Casted_sim.Compile.run ~on_block stage2)
  in
  let capture_s = Unix.gettimeofday () -. t0 in
  (* The baseline modes run the reference interpreter directly, each
     trial drawn and classified exactly as Montecarlo.trial does; the
     result is the executed fraction of the golden run. *)
  let reference_trial ~replay index =
    let module Fault = Casted_sim.Fault in
    let module Rng = Casted_sim.Rng in
    let rng = Rng.create ~seed:(Rng.derive ~seed index) in
    let fault =
      Fault.random Fault.Reg_bit rng ~population:golden.Montecarlo.pop
    in
    let snapshot =
      if replay then Casted_sim.Replay.find replay_set fault else None
    in
    let (_ : Montecarlo.classification) =
      Montecarlo.classify_result ~golden:golden.Montecarlo.run
        (try
           Ok
             (Simulator.reference ~fault ~fuel:golden.Montecarlo.fuel
                ?snapshot decoded)
         with e -> Error e)
    in
    match snapshot with
    | Some s -> Casted_sim.Replay.suffix_fraction replay_set s
    | None -> 1.0
  in
  let on_reference ~replay pool =
    let suffixes =
      Pool.map pool (reference_trial ~replay) (Array.init tput_trials Fun.id)
    in
    (Array.fold_left ( +. ) 0.0 suffixes /. float_of_int tput_trials, [])
  in
  (* A whole campaign, as the engine runs one: its own decode, stage-2
     compile and capture (~1 ms) are part of the row. Campaign trials
     stop once they re-converge with the golden run, so the compiled
     rows also report the share that did: losing the early exit shows
     as a converged fraction of 0. *)
  let on_compiled pool =
    let r = Montecarlo.run ~pool ~seed ~trials:tput_trials sched in
    assert (r.Montecarlo.trials = tput_trials);
    match r.Montecarlo.replay with
    | Some s ->
        ( s.Montecarlo.mean_suffix,
          [
            ( "converged_fraction",
              f
                (float_of_int s.Montecarlo.converged
                /. float_of_int tput_trials) );
          ] )
    | None -> (1.0, [])
  in
  (* One timed pass of [run] over the trials: its wall clock and what
     it reports. *)
  let pass pool run =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let mean_suffix, extra = run pool in
    (Unix.gettimeofday () -. t0, mean_suffix, extra)
  in
  let row ~label n_jobs (wall, mean_suffix, extra) =
    let tps = float_of_int tput_trials /. wall in
    let ips = float_of_int tput_trials *. float_of_int golden_dyn /. wall in
    Printf.printf
      "%-8s jobs=%d: %d trials in %.2fs -> %.0f trials/s, %.2fM dyn \
       insns/s, mean suffix %.1f%%\n\
       %!"
      label n_jobs tput_trials wall tps (ips /. 1e6)
      (100.0 *. mean_suffix);
    ( tps,
      Obs.Json.Obj
        ([
           ("jobs", Obs.Json.Int n_jobs);
           ("wall_s", f wall);
           ("trials_per_s", f tps);
           ("insns_per_s", f ips);
           ("mean_suffix_fraction", f mean_suffix);
         ]
        @ extra) )
  in
  (* The gated ratios compare short timings (256 fast-mode trials take
     milliseconds), so the jobs=1 rows are timed in seven interleaved
     rounds on one pool and each reports its median pass: drift on a
     shared host hits every row alike. A row's mean suffix and
     converged share are the same on every pass. *)
  let measure_interleaved runs =
    Pool.with_pool ~jobs:1 (fun pool ->
        let rounds =
          Array.init 7 (fun _ -> Array.map (fun (_, run) -> pass pool run) runs)
        in
        Array.mapi
          (fun i (label, _) ->
            let passes = Array.map (fun r -> r.(i)) rounds in
            let wall = median (Array.map (fun (w, _, _) -> w) passes) in
            let _, mean_suffix, extra = passes.(0) in
            row ~label 1 (wall, mean_suffix, extra))
          runs)
  in
  (* The jobs=N rows only say something when N > 1; at jobs=1 they
     would re-measure the *1 rows, so they are null instead. *)
  let measure_n ~label run =
    if jobs > 1 then
      Pool.with_pool ~jobs (fun pool -> snd (row ~label jobs (pass pool run)))
    else Obs.Json.Null
  in
  (* Golden runs (sweep points, campaign golden passes) go through
     Simulator.run_decoded, a stage-2 compile followed by a run. Its
     execution time (its median minus the median stage-2 compile of the
     same program) against a plain run of an already compiled program
     is ~1.0 while it executes on the compiled engine and ~0.5 if it
     falls back to the reference interpreter. Both sides time execution
     only, so the ratio does not drift as execution gets cheaper than
     the compile. Perf size, where sweep golden runs live. *)
  let golden_engine_ratio =
    let perf =
      Pipeline.compile ~scheme:Scheme.Casted ~issue_width:2 ~delay:2
        (w.W.build W.Perf)
    in
    let d = Casted_sim.Decode.of_schedule perf.Pipeline.schedule in
    let p = Casted_sim.Compile.of_decoded d in
    (* Seven rounds, each timing the three back to back, so drift on a
       shared host hits all three alike. *)
    let rounds =
      Array.init 7 (fun _ ->
          let run = time (fun () -> Casted_sim.Compile.run p) in
          let decoded = time (fun () -> Simulator.run_decoded d) in
          [| run; decoded; time (fun () -> Casted_sim.Compile.of_decoded d) |])
    in
    let median_of i = median (Array.map (fun r -> r.(i)) rounds) in
    median_of 0 /. (median_of 1 -. median_of 2)
  in
  Printf.printf "decode: %.3f ms per schedule (a campaign decodes once)\n%!"
    (1000.0 *. decode_s);
  Printf.printf
    "capture: %.3f ms for %d snapshots (%.1f KiB; a campaign captures once)\n%!"
    (1000.0 *. capture_s)
    (Casted_sim.Replay.count replay_set)
    (float_of_int (Casted_sim.Replay.total_bytes replay_set) /. 1024.0);
  Printf.printf
    "stage-2 compile: %.3f ms per program (a campaign compiles once)\n%!"
    (1000.0 *. compile_s);
  let rows1 =
    measure_interleaved
      [|
        ("full", on_reference ~replay:false);
        ("replayed", on_reference ~replay:true);
        ("compiled", on_compiled);
      |]
  in
  let (tps_full1, j1), (tps_replay1, r1), (tps_compiled1, c1) =
    (rows1.(0), rows1.(1), rows1.(2))
  in
  let jn = measure_n ~label:"full" (on_reference ~replay:false) in
  let rn = measure_n ~label:"replayed" (on_reference ~replay:true) in
  let cn = measure_n ~label:"compiled" on_compiled in
  let speedup = tps_replay1 /. tps_full1 in
  let compiled_speedup = tps_compiled1 /. tps_replay1 in
  Printf.printf "replay speedup (jobs=1): %.2fx\n%!" speedup;
  Printf.printf
    "compiled speedup over reference-interpreter replay (jobs=1): %.2fx\n%!"
    compiled_speedup;
  Printf.printf
    "golden engine ratio (perf-size cjpeg, Compile.run / run_decoded \
     execution): %.2f\n%!"
    golden_engine_ratio;
  sim_throughput_json :=
    Obs.Json.Obj
      [
        ("workload", Obs.Json.String "cjpeg");
        ("scheme", Obs.Json.String "CASTED");
        ("issue", Obs.Json.Int 2);
        ("delay", Obs.Json.Int 2);
        ("trials", Obs.Json.Int tput_trials);
        ("golden_dyn_insns", Obs.Json.Int golden_dyn);
        ("decode_ms", f (1000.0 *. decode_s));
        ("capture_ms", f (1000.0 *. capture_s));
        ("compile_ms", f (1000.0 *. compile_s));
        ("snapshots", Obs.Json.Int (Casted_sim.Replay.count replay_set));
        ( "snapshot_bytes",
          Obs.Json.Int (Casted_sim.Replay.total_bytes replay_set) );
        ("jobs1", j1);
        ("jobsN", jn);
        ("replay1", r1);
        ("replayN", rn);
        ("compiled1", c1);
        ("compiledN", cn);
        ("replay_speedup_jobs1", f speedup);
        ("compiled_speedup_jobs1", f compiled_speedup);
        ("golden_engine_ratio", f golden_engine_ratio);
      ]

(* The persistent result store: how much a warm store actually saves.
   Fills one campaign cell cold (simulating every trial and banking the
   tally), then serves the identical request warm — the fast path every
   incremental matrix re-run rides. *)
let store_json : Obs.Json.t ref = ref Obs.Json.Null

let section_store () =
  banner "Result store (cold fill vs warm serve, cjpeg CASTED i2 d2)";
  let module Store = Casted_store.Store in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "casted-bench-store-%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then rm_rf dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
  @@ fun () ->
  let store = Store.open_exn ~create:true dir in
  let store_trials = if fast then 128 else 512 in
  let spec =
    Casted_engine.Cache.key ~workload:"cjpeg" ~size:W.Fault
      ~scheme:Scheme.Casted ~issue_width:2 ~delay:2 ()
  in
  let f x = Obs.Json.Float x in
  let timed_run label =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let sc =
      Engine.campaign_stored engine ~seed ~store ~trials:store_trials spec
    in
    let wall = Unix.gettimeofday () -. t0 in
    Printf.printf "%-5s %d trials in %.3fs (%d simulated, %d served)\n%!"
      label store_trials wall sc.Engine.simulated sc.Engine.served;
    (sc, wall)
  in
  let cold, cold_s = timed_run "cold:" in
  let warm, warm_s = timed_run "warm:" in
  assert (warm.Engine.simulated = 0);
  assert (
    Montecarlo.counts warm.Engine.result = Montecarlo.counts cold.Engine.result);
  let stats = Store.stats store in
  let speedup = if warm_s > 0.0 then cold_s /. warm_s else 0.0 in
  Printf.printf
    "warm serve: %.0fx faster; %d bytes banked per cell (%d read back)\n%!"
    speedup stats.Store.bytes_written stats.Store.bytes_read;
  store_json :=
    Obs.Json.Obj
      [
        ("workload", Obs.Json.String "cjpeg");
        ("scheme", Obs.Json.String "CASTED");
        ("trials", Obs.Json.Int store_trials);
        ("cold_s", f cold_s);
        ("warm_s", f warm_s);
        ("warm_speedup", f speedup);
        ("entry_bytes", Obs.Json.Int stats.Store.bytes_written);
        ("warm_simulated", Obs.Json.Int warm.Engine.simulated);
        ("warm_served", Obs.Json.Int warm.Engine.served);
      ]

(* BENCH.json, consumed by CI (scripts/perf_check.py, and uploaded as
   an artifact). Schema documented in EXPERIMENTS.md. *)
let write_bench_json ~total_s =
  let f x = Obs.Json.Float x in
  let pool_stats = Pool.stats (Engine.pool engine) in
  let cache_stats = Casted_engine.Cache.stats (Engine.cache engine) in
  let engine_json =
    Obs.Json.Obj
      [
        ("jobs", Obs.Json.Int pool_stats.Pool.jobs);
        ("tasks", Obs.Json.Int pool_stats.Pool.tasks);
        ("busy_s", f pool_stats.Pool.busy_s);
        ("wall_s", f pool_stats.Pool.wall_s);
        ("utilisation", f (Pool.utilisation pool_stats));
        ("cache_entries", Obs.Json.Int cache_stats.Casted_engine.Cache.entries);
        ("cache_hits", Obs.Json.Int cache_stats.Casted_engine.Cache.hits);
        ("cache_misses", Obs.Json.Int cache_stats.Casted_engine.Cache.misses);
      ]
  in
  let doc =
    Obs.Json.Obj
      [
        ("schema_version", Obs.Json.Int 2);
        ("fast", Obs.Json.Bool fast);
        ("seed", Obs.Json.Int seed);
        ("jobs", Obs.Json.Int jobs);
        ( "sections",
          Obs.Json.List
            (List.rev_map
               (fun (name, seconds) ->
                 Obs.Json.Obj
                   [
                     ("name", Obs.Json.String name); ("seconds", f seconds);
                   ])
               !section_times) );
        ("sim_throughput", !sim_throughput_json);
        ("store", !store_json);
        ("recovery_overhead", !recovery_overhead_json);
        ("dme_coverage", !dme_coverage_json);
        ("engine", engine_json);
        ("total_seconds", f total_s);
      ]
  in
  Obs.Sink.write_file ~path:bench_out (Obs.Json.to_string doc ^ "\n");
  Printf.printf "(wrote %s)\n" bench_out

let () =
  let t0 = Unix.gettimeofday () in
  let force name f =
    let s0 = Unix.gettimeofday () in
    f ();
    section_times := (name, Unix.gettimeofday () -. s0) :: !section_times
  in
  let run name f = if enabled name then force name f in
  run "recovery_overhead" section_recovery_overhead;
  run "dme_coverage" section_dme_coverage;
  run "sim_throughput" section_sim_throughput;
  run "store" section_store;
  let total_s = Unix.gettimeofday () -. t0 in
  write_bench_json ~total_s;
  Engine.shutdown engine;
  Printf.printf "\n(total: %.1fs)\n" total_s
