(* Command-line driver: compile, inspect, simulate and reproduce the
   paper's experiments from a terminal. *)

open Cmdliner
module W = Casted_workloads.Workload
module Registry = Casted_workloads.Registry
module Scheme = Casted_detect.Scheme
module Pipeline = Casted_detect.Pipeline
module Transform = Casted_detect.Transform
module Schedule = Casted_sched.Schedule
module Simulator = Casted_sim.Simulator
module Outcome = Casted_sim.Outcome
module Montecarlo = Casted_sim.Montecarlo
module Report = Casted_report
module Engine = Casted_engine.Engine
module Pool = Casted_exec.Pool
module Obs = Casted_obs
module Store = Casted_store.Store
module Work = Casted_store.Work

let version = "1.1.0"

(* Common options. *)

(* Range-checked numbers: a malformed value is a usage error (exit 124,
   the option named in the message), never an exception escaping from
   deep inside the pipeline. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ ->
        Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some w when Float.is_finite w && w > 0.0 -> Ok w
    | _ ->
        Error
          (`Msg (Printf.sprintf "expected a positive finite number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let percentage =
  let parse s =
    match float_of_string_opt s with
    | Some p when p >= 0.0 && p <= 100.0 -> Ok p
    | _ ->
        Error
          (`Msg (Printf.sprintf "expected a percentage in [0, 100], got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

(* Every benchmark name is decoded here, once: an unknown name is a
   usage error naming the argument, before the subcommand runs. *)
let benchmark_conv =
  let parse s =
    Option.to_result
      ~none:
        (`Msg
          (Printf.sprintf "unknown benchmark %s (try: %s)" s
             (String.concat ", " (Registry.names ()))))
      (Registry.find s)
  in
  let print ppf w = Format.pp_print_string ppf w.W.name in
  Arg.conv (parse, print)

let bench_arg =
  let doc = "Benchmark name (see $(b,casted list))." in
  Arg.(
    value
    & opt benchmark_conv (Option.get (Registry.find "cjpeg"))
    & info [ "w"; "benchmark" ] ~doc)

(* The positional benchmark list of [sweep], [scaling], [verify] and
   [work]: [None] (no names given) means every benchmark. *)
let benchmarks_arg =
  let names = function
    | [] -> None
    | ws -> Some (List.map (fun w -> w.W.name) ws)
  in
  Term.(
    const names
    $ Arg.(
        value
        & pos_all benchmark_conv []
        & info [] ~docv:"BENCHMARK"
            ~doc:"Benchmarks (default: all; see $(b,casted list))."))

let scheme_names = String.concat ", " (List.map Scheme.name Scheme.all)

let scheme_conv =
  let parse s =
    match Scheme.of_string s with
    | Some v -> Ok v
    | None ->
        Error (`Msg (Printf.sprintf "unknown scheme %s (use %s)" s scheme_names))
  in
  let print ppf s = Format.pp_print_string ppf (Scheme.name s) in
  Arg.conv (parse, print)

let scheme_arg =
  let doc =
    "Scheme: NOED, SCED, DCED or CASTED (detection); TMR or ROLLBACK \
     (recovery)."
  in
  Arg.(value & opt scheme_conv Scheme.Casted & info [ "s"; "scheme" ] ~doc)

let issue_conv = int_at_least 1
let delay_conv = int_at_least 0

let issue_arg =
  Arg.(
    value & opt issue_conv 2 & info [ "issue" ] ~doc:"Issue width per cluster.")

let delay_arg =
  Arg.(value & opt delay_conv 2 & info [ "delay" ] ~doc:"Inter-cluster delay.")

let size_arg_with default =
  let parse s =
    Option.to_result ~none:(`Msg ("unknown size " ^ s)) (W.size_of_name s)
  in
  let print ppf s = Format.pp_print_string ppf (W.size_name s) in
  let size_conv = Arg.conv (parse, print) in
  Arg.(
    value
    & opt size_conv default
    & info [ "size" ] ~doc:"Input size: fault (small) or perf (large).")

let size_arg = size_arg_with W.Fault

let trials_arg =
  Arg.(
    value
    & opt (int_at_least 1) 300
    & info [ "trials" ] ~doc:"Monte-Carlo trials per campaign.")

let model_conv =
  let parse s =
    match Casted_sim.Fault.model_of_string s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown fault model %s (use %s)" s
                (String.concat ", "
                   (List.map Casted_sim.Fault.model_name
                      Casted_sim.Fault.all_models))))
  in
  let print ppf m =
    Format.pp_print_string ppf (Casted_sim.Fault.model_name m)
  in
  Arg.conv (parse, print)

let model_arg =
  let doc =
    "Fault model: $(b,reg-bit) (the paper's single register bit flip), \
     $(b,burst) (2-4 adjacent bits), $(b,mem) (cache-line corruption), \
     $(b,control) (wrong-direction branch) or $(b,xcluster) (corrupted \
     inter-cluster transfer)."
  in
  Arg.(
    value
    & opt model_conv Casted_sim.Fault.Reg_bit
    & info [ "fault-model" ] ~docv:"MODEL" ~doc)

let ci_halfwidth_arg =
  let doc =
    "Stop the campaign early once the detected-rate 95% Wilson confidence \
     interval is no wider than ±$(docv) percentage points. Checked at \
     fixed trial-count boundaries, so the stopping point is independent \
     of $(b,--jobs)."
  in
  Arg.(
    value
    & opt (some positive_float) None
    & info [ "ci-halfwidth" ] ~docv:"PP" ~doc)

let store_arg =
  let doc =
    "Persistent result store directory (created if absent). The campaign \
     becomes incremental and crash-safe: a cell whose tally is already \
     banked at this (benchmark, scheme, config, fault model, seed, \
     trials) identity is served with zero simulation; the running tally \
     is banked after every finished 64-trial chunk, so a killed or \
     partially banked cell resumes at its banked trial index; the final \
     tally is written back. With $(b,--ci-halfwidth) the target is part \
     of the cell's identity and a rerun resumes to the same stopping \
     point."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

(* Subcommands return their exit code; the one [exit] is the last line
   of this file, so [with_obs] always writes its artifacts. An input
   that can only be checked when the command runs (a store directory,
   CASTED_JOBS, the work queue) yields [Error msg]: [let*] prints it and
   ends the subcommand with exit code 2. *)
let ( let* ) r k =
  match r with
  | Ok v -> k v
  | Error msg ->
      Printf.eprintf "casted: %s\n" msg;
      2

let open_store = function
  | None -> Ok None
  | Some dir -> Result.map Option.some (Store.open_dir ~create:true dir)

let jobs_arg =
  let doc =
    "Worker domains for the experiment engine: sweep points and \
     Monte-Carlo trials fan out over $(docv) domains. Defaults to \
     $(b,CASTED_JOBS) or the number of cores. Results are identical for \
     every $(docv), including 1 (sequential)."
  in
  Arg.(
    value
    & opt (some (int_at_least 1)) None
    & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

(* Resolve --jobs against CASTED_JOBS / core count, rejecting a
   malformed CASTED_JOBS loudly. *)
let resolve_jobs = function Some n -> Ok n | None -> Pool.default_jobs ()

let with_engine jobs f =
  let* jobs = resolve_jobs jobs in
  Engine.with_engine ~jobs f

(* Observability options, shared by the experiment subcommands.
   Collection is passive — enabling it never changes a simulation
   outcome or a campaign tally — so these can be combined freely with
   any other option. *)

let trace_arg =
  let doc =
    "Record span traces (per-pass compile spans, scheduler spans, \
     Monte-Carlo chunks, pool tasks) and write them to $(docv) as Chrome \
     trace_event JSON, loadable in chrome://tracing or Perfetto."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Collect runtime metrics (simulator counters, cache hits/misses, \
     engine cache and pool statistics) and print them after the normal \
     output."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

(* Run [f] with tracing/metrics enabled as requested, then emit the
   artifacts — on every exit code, and even when [f] raises. *)
let with_obs ~trace ~metrics f =
  if metrics then Obs.Metrics.set_enabled true;
  if trace <> None then Obs.Trace.set_enabled true;
  Obs.Trace.name_track "main";
  Fun.protect
    ~finally:(fun () ->
      (match trace with
      | Some path ->
          Obs.Sink.write_trace ~path;
          Printf.eprintf "casted: wrote %d trace events to %s\n%!"
            (List.length (Obs.Trace.events ()))
            path
      | None -> ());
      if metrics then begin
        print_newline ();
        print_string (Obs.Sink.metrics_text ())
      end)
    f

(* Subcommands. *)

let list_cmd =
  let run () =
    print_string (Report.Static_tables.table2 ());
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available benchmarks (Table II)")
    Term.(const run $ const ())

(* The one cell compile behind [compile], [run] and [profile]. *)
let compile_cell (w : W.t) scheme issue delay size =
  Pipeline.compile ~scheme ~issue_width:issue ~delay (w.W.build size)

let compile_cmd =
  let run w scheme issue delay size dump_ir dump_sched =
    let compiled = compile_cell w scheme issue delay size in
    Format.printf "%s / %s on %a@." w.W.name (Scheme.name scheme)
      Casted_machine.Config.pp compiled.Pipeline.config;
    Format.printf "instrumentation: %a (expansion %.2fx)@." Transform.pp_stats
      compiled.Pipeline.stats
      (Transform.expansion compiled.Pipeline.stats);
    if dump_ir then
      Format.printf "@.%a@." Casted_ir.Program.pp compiled.Pipeline.program;
    if dump_sched then
      List.iter
        (fun (_, fs) -> Format.printf "@.%a@." Schedule.pp_func fs)
        compiled.Pipeline.schedule.Schedule.funcs;
    0
  in
  let dump_ir =
    Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the hardened IR.")
  in
  let dump_sched =
    Arg.(value & flag & info [ "dump-schedule" ] ~doc:"Print the schedules.")
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Run the detection + assignment + scheduling pipeline")
    Term.(
      const run $ bench_arg $ scheme_arg $ issue_arg $ delay_arg $ size_arg
      $ dump_ir $ dump_sched)

let run_cmd =
  let run w scheme issue delay size trace metrics =
    with_obs ~trace ~metrics (fun () ->
        let compiled = compile_cell w scheme issue delay size in
        let r = Simulator.run compiled.Pipeline.schedule in
        Format.printf "%s / %s on %a@." w.W.name (Scheme.name scheme)
          Casted_machine.Config.pp compiled.Pipeline.config;
        Format.printf "%a@." Outcome.pp r;
        Format.printf
          "dynamic roles: %d original, %d replica, %d check, %d copy@."
          r.Outcome.dyn_by_role.(0) r.Outcome.dyn_by_role.(1)
          r.Outcome.dyn_by_role.(2) r.Outcome.dyn_by_role.(3);
        Format.printf "slot occupancy: %.1f%% of %d offered@."
          (100.0 *. Outcome.occupancy r)
          r.Outcome.slots_total;
        Format.printf "cache: %a@." Casted_cache.Hierarchy.pp_stats
          r.Outcome.cache;
        0)
  in
  Cmd.v (Cmd.info "run" ~doc:"Simulate one benchmark under one scheme")
    Term.(
      const run $ bench_arg $ scheme_arg $ issue_arg $ delay_arg $ size_arg
      $ trace_arg $ metrics_arg)

let sweep_cmd =
  let run benchmarks size jobs trace metrics =
    with_obs ~trace ~metrics (fun () ->
        with_engine jobs (fun engine ->
            let sweep = Report.Perf_sweep.run ~engine ~size ?benchmarks () in
            print_string (Report.Perf_sweep.render_all sweep);
            print_string
              (Report.Perf_sweep.render_summary
                 (Report.Perf_sweep.summarize sweep));
            0))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Reproduce Figs. 6-7: slowdowns over issue widths and delays")
    Term.(
      const run $ benchmarks_arg $ size_arg $ jobs_arg $ trace_arg
      $ metrics_arg)

let scaling_cmd =
  let run benchmarks size jobs =
    with_engine jobs (fun engine ->
        let sweep = Report.Perf_sweep.run ~engine ~size ?benchmarks () in
        print_string (Report.Scaling.render_all sweep);
        0)
  in
  Cmd.v (Cmd.info "scaling" ~doc:"Reproduce Fig. 8: ILP scaling")
    Term.(const run $ benchmarks_arg $ size_arg $ jobs_arg)

let faults_cmd =
  let run fig trials w model jobs trace metrics =
    with_obs ~trace ~metrics (fun () ->
        with_engine jobs (fun engine ->
            let rows =
              match fig with
              | `Fig9 -> Report.Coverage.fig9 ~engine ~model ~trials ()
              | `Fig10 ->
                  Report.Coverage.fig10 ~engine ~model ~trials
                    ~benchmark:w.W.name ()
            in
            Printf.printf "fault model: %s (rates ± 95%% Wilson half-width)\n"
              (Casted_sim.Fault.model_name model);
            print_string (Report.Coverage.render rows);
            0))
  in
  let fig =
    Arg.(
      value
      & opt (enum [ ("9", `Fig9); ("10", `Fig10) ]) `Fig9
      & info [ "fig" ] ~doc:"Which figure to reproduce: 9 or 10.")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Reproduce Figs. 9-10: Monte-Carlo fault coverage")
    Term.(
      const run $ fig $ trials_arg $ bench_arg $ model_arg $ jobs_arg
      $ trace_arg $ metrics_arg)

let dme_cmd =
  let run w trials issue delay jobs trace metrics =
    with_obs ~trace ~metrics (fun () ->
        with_engine jobs (fun engine ->
            let rows =
              Report.Coverage.dme_coverage ~engine ~trials ~issue ~delay
                ~benchmark:w.W.name ()
            in
            print_string (Report.Coverage.render_dme rows);
            0))
  in
  Cmd.v
    (Cmd.info "dme"
       ~doc:
         "DME escape coverage: the fraction of mem/xcluster silent data \
          corruptions that escape CASTED's bit-identical replication but \
          are caught by the decorrelated multi-version scheme")
    Term.(
      const run $ bench_arg $ trials_arg $ issue_arg $ delay_arg $ jobs_arg
      $ trace_arg $ metrics_arg)

let tables_cmd =
  let run issue delay =
    let config = Casted_machine.Config.dual_core ~issue_width:issue ~delay in
    print_endline "Table I: processor configuration";
    print_string (Report.Static_tables.table1 config);
    print_endline "\nTable II: benchmarks";
    print_string (Report.Static_tables.table2 ());
    print_endline "\nTable III: compiler-based error detection schemes";
    print_string (Report.Static_tables.table3 ());
    0
  in
  Cmd.v (Cmd.info "tables" ~doc:"Print the paper's static tables (I-III)")
    Term.(const run $ issue_arg $ delay_arg)

let retry_budget_arg =
  let doc =
    "Rollback retry budget: how many region re-executions a trial may \
     spend before its original failure is reported. Defaults to the \
     engine's budget for ROLLBACK and to no recovery loop for the other \
     schemes."
  in
  Arg.(
    value
    & opt (some (int_at_least 0)) None
    & info [ "retry-budget" ] ~docv:"N" ~doc)

let min_recovered_arg =
  let doc =
    "Fail (exit 1) when the recovered fraction falls below $(docv) percent \
     — a CI guard for recovery campaigns."
  in
  Arg.(
    value
    & opt (some percentage) None
    & info [ "min-recovered" ] ~docv:"PCT" ~doc)

let campaign_cmd =
  let run w scheme issue delay trials model ci_halfwidth retry_budget
      min_recovered store_dir jobs trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    with_engine jobs @@ fun engine ->
    let* store = open_store store_dir in
    let bench = w.W.name in
    let spec =
      Casted_engine.Cache.key ~workload:bench ~size:W.Fault ~scheme
        ~issue_width:issue ~delay ()
    in
    let sc =
      Engine.campaign_stored engine ~model ?ci_halfwidth ?retry_budget ?store
        ~trials spec
    in
    let result = sc.Engine.result in
    Format.printf "%s / %s issue %d delay %d (%d jobs)@." bench
      (Scheme.name scheme) issue delay (Engine.jobs engine);
    if Montecarlo.inapplicable result then begin
      (* No injection sites for this model in this cell (e.g. an
         xcluster campaign on a single-cluster scheme): a clean skip,
         distinct from both success (0) and a failed coverage gate
         (1). *)
      Format.printf
        "model %s inapplicable: no injection sites in this cell \
         (population 0) — skipped@."
        (Casted_sim.Fault.model_name model);
      3
    end
    else begin
      if ci_halfwidth <> None && result.Montecarlo.trials < trials then
        Format.printf
          "stopped early at %d/%d trials (detected-rate CI half-width ≤ \
           ±%.2fpp)@."
          result.Montecarlo.trials trials
          (Option.value ci_halfwidth ~default:0.0);
      Option.iter
        (fun dir ->
          Format.printf "store: %s — %d trials served, %d simulated@." dir
            sc.Engine.served sc.Engine.simulated)
        store_dir;
      Format.printf "%a@." Montecarlo.pp result;
      (match result.Montecarlo.replay with
      | Some s -> Format.printf "%a@." Montecarlo.pp_replay s
      | None -> ());
      let recovered_pct = 100.0 *. Montecarlo.recovered_fraction result in
      let baseline_cycles =
        Report.Coverage.noed_cycles engine ~benchmark:bench ~issue
      in
      Format.printf
        "recovered: %d/%d (%.1f%%); MWTF vs NOED (%d baseline cycles): %s@."
        result.Montecarlo.recovered result.Montecarlo.trials recovered_pct
        baseline_cycles
        (Report.Coverage.mwtf_string
           (Montecarlo.mwtf ~baseline_cycles result));
      match min_recovered with
      | Some threshold when recovered_pct < threshold ->
          Printf.eprintf
            "casted: recovered fraction %.1f%% is below the required %.1f%%\n"
            recovered_pct threshold;
          1
      | _ -> 0
    end
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run one Monte-Carlo fault campaign (incremental and crash-safe \
          against a persistent result store, with Wilson confidence \
          intervals, optional early stopping, and recovered-fraction / MWTF \
          reporting)")
    Term.(
      const run $ bench_arg $ scheme_arg $ issue_arg $ delay_arg $ trials_arg
      $ model_arg $ ci_halfwidth_arg $ retry_budget_arg $ min_recovered_arg
      $ store_arg $ jobs_arg $ trace_arg $ metrics_arg)

let recover_cmd =
  let run w issue delay trials model retry_budget jobs trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    with_engine jobs @@ fun engine ->
    print_string
      (Report.Coverage.recovery_table ~engine ~model ?retry_budget ~trials
         ~benchmark:w.W.name ~issue ~delay ());
    0
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Run the recovery campaign: CASTED (detection), TMR (triplication \
          + majority voting) and ROLLBACK (region checkpoints + bounded \
          re-execution) side by side, with runtime overhead, recovered \
          fraction and MWTF against the NOED baseline")
    Term.(
      const run $ bench_arg $ issue_arg $ delay_arg $ trials_arg $ model_arg
      $ retry_budget_arg $ jobs_arg $ trace_arg $ metrics_arg)

let placement_cmd =
  let run w issue size =
    (* A one-domain engine: placement only compiles, through the
       engine's cache. *)
    Engine.with_engine ~jobs:1 @@ fun engine ->
    print_string
      (Report.Utilization.placement_table ~engine ~benchmark:w.W.name ~size
         ~issue_width:issue ~delays:[ 1; 2; 3; 4 ]);
    0
  in
  Cmd.v
    (Cmd.info "placement"
       ~doc:"Show how DCED and CASTED distribute code across clusters")
    Term.(const run $ bench_arg $ issue_arg $ size_arg)

let profile_cmd =
  let run w scheme issue delay size n json =
    let bench = w.W.name in
    let compiled = compile_cell w scheme issue delay size in
    let profile = Casted_sim.Profile.create () in
    let r =
      Simulator.reference ~profile
        (Casted_sim.Decode.of_schedule compiled.Pipeline.schedule)
    in
    if json then begin
      let block (row : Casted_sim.Profile.row) =
        Obs.Json.Obj
          [
            ("func", Obs.Json.String row.Casted_sim.Profile.func);
            ("label", Obs.Json.String row.Casted_sim.Profile.label);
            ("visits", Obs.Json.Int row.Casted_sim.Profile.visits);
            ("cycles", Obs.Json.Int row.Casted_sim.Profile.cycles);
            ("share", Obs.Json.Float row.Casted_sim.Profile.share);
          ]
      in
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("benchmark", Obs.Json.String bench);
                ("scheme", Obs.Json.String (Scheme.name scheme));
                ("issue_width", Obs.Json.Int issue);
                ("delay", Obs.Json.Int delay);
                ("cycles", Obs.Json.Int r.Outcome.cycles);
                ("dyn_insns", Obs.Json.Int r.Outcome.dyn_insns);
                ("ipc", Obs.Json.Float (Outcome.ipc r));
                ("occupancy", Obs.Json.Float (Outcome.occupancy r));
                ( "blocks",
                  Obs.Json.List
                    (List.map block (Casted_sim.Profile.top ~n profile)) );
              ]))
    end
    else begin
      Format.printf "%s / %s: %a@.@." bench (Scheme.name scheme) Outcome.pp r;
      print_string (Casted_sim.Profile.render_top ~n profile)
    end;
    0
  in
  let top =
    Arg.(
      value
      & opt (int_at_least 1) 12
      & info [ "top" ] ~doc:"How many blocks to show.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the profile as JSON instead of a rendered table.")
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Per-block execution profile of a benchmark")
    Term.(
      const run $ bench_arg $ scheme_arg $ issue_arg $ delay_arg $ size_arg
      $ top $ json)

let pressure_cmd =
  let run w =
    let program = w.W.build W.Fault in
    let plain = Casted_ir.Pressure.of_program program in
    let hardened, _ =
      Casted_detect.Transform.program Casted_detect.Options.default program
    in
    let det = Casted_ir.Pressure.of_program hardened in
    Format.printf "%s register pressure:@." w.W.name;
    Format.printf "  original: %a@." Casted_ir.Pressure.pp plain;
    Format.printf "  hardened: %a@." Casted_ir.Pressure.pp det;
    Format.printf "  spills on a 64/64/32 file (Table I): %b@."
      (Casted_ir.Pressure.exceeds det ~gp:64 ~fp:64 ~pr:32);
    0
  in
  Cmd.v
    (Cmd.info "pressure"
       ~doc:"Register pressure of the original vs hardened code")
    Term.(const run $ bench_arg)

let asm_cmd =
  let run file scheme issue delay emit =
    let text =
      let ic = open_in file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    match Casted_ir.Asm.parse text with
    | Error msg ->
        Printf.eprintf "%s: %s\n" file msg;
        1
    | Ok program -> (
        match Casted_ir.Validate.check_program program with
        | _ :: _ as errs ->
            List.iter (Printf.eprintf "%s: %s\n" file) errs;
            1
        | [] ->
            let compiled =
              Pipeline.compile ~scheme ~issue_width:issue ~delay program
            in
            if emit then
              print_string (Casted_ir.Asm.print compiled.Pipeline.program)
            else begin
              let r = Simulator.run compiled.Pipeline.schedule in
              Format.printf "%s / %s: %a@." file (Scheme.name scheme)
                Outcome.pp r
            end;
            0)
  in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Assembly (.casted) file.")
  in
  let emit =
    Arg.(
      value & flag
      & info [ "emit" ]
          ~doc:"Print the hardened assembly instead of simulating.")
  in
  Cmd.v
    (Cmd.info "asm"
       ~doc:"Parse a .casted assembly file, then harden and simulate it")
    Term.(const run $ file $ scheme_arg $ issue_arg $ delay_arg $ emit)

let verify_cmd =
  let run benchmarks size jobs json =
    let* jobs = resolve_jobs jobs in
    let entries =
      Pool.with_pool ~jobs (fun pool ->
          Casted_verify.Matrix.run ~pool ?benchmarks ~size ())
    in
    if json then
      print_endline (Obs.Json.to_string (Casted_verify.Matrix.to_json entries))
    else begin
      List.iter
        (fun e ->
          if
            e.Casted_verify.Matrix.diags <> []
            || e.Casted_verify.Matrix.divergences <> []
          then Format.printf "%a@." Casted_verify.Matrix.pp_entry e)
        entries;
      let diags, divs = Casted_verify.Matrix.totals entries in
      Format.printf "verify: %d entries, %d diagnostics, %d divergences@."
        (List.length entries) diags divs
    end;
    if Casted_verify.Matrix.clean entries then 0 else 1
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the full report as JSON on stdout.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Lint every schedule against the SWIFT invariants and \
          differentially check all six schemes (detection and recovery) \
          against the NOED reference across the example matrix; exits 1 on \
          any diagnostic or divergence")
    Term.(const run $ benchmarks_arg $ size_arg $ jobs_arg $ json)

let fuzz_cmd =
  let run programs seed program jobs reproducer =
    let report n = function
      | None ->
          Printf.printf "fuzz: %d programs clean (seed %d)\n" n seed;
          0
      | Some f ->
          Format.printf "%a@." Casted_verify.Fuzz.pp_failure f;
          (match reproducer with
          | Some path ->
              let oc = open_out path in
              output_string oc f.Casted_verify.Fuzz.asm;
              close_out oc;
              Printf.printf
                "fuzz: wrote shrunk reproducer to %s (replay: casted fuzz \
                 --seed %d --program %d)\n"
                path seed f.Casted_verify.Fuzz.index
          | None -> ());
          1
    in
    match program with
    | Some index ->
        Printf.printf "fuzz: replaying program %d of seed %d\n%!" index seed;
        report 1 (Casted_verify.Fuzz.check_index ~seed index)
    | None ->
        let* jobs = resolve_jobs jobs in
        report programs
          (Pool.with_pool ~jobs (fun pool ->
               Casted_verify.Fuzz.run ~pool ~programs ~seed ()))
  in
  let programs =
    Arg.(
      value
      & opt (int_at_least 1) 200
      & info [ "programs" ] ~docv:"N" ~doc:"How many programs to generate.")
  in
  let seed =
    Arg.(
      value & opt int 0xC457ED
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Campaign seed. Program $(i,i) is derived deterministically \
             from (seed, i), independent of $(b,--jobs).")
  in
  let program =
    Arg.(
      value
      & opt (some (int_at_least 0)) None
      & info [ "program" ] ~docv:"K"
          ~doc:"Replay a single program index instead of a campaign.")
  in
  let reproducer =
    Arg.(
      value
      & opt (some string) None
      & info [ "reproducer" ] ~docv:"FILE"
          ~doc:"On failure, write the shrunk program here as assembly.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Push seeded random programs through the full pipeline under \
          detection and recovery schemes alike, failing on any lint \
          diagnostic or oracle divergence; failures are shrunk to a minimal \
          reproducer")
    Term.(const run $ programs $ seed $ program $ jobs_arg $ reproducer)

(* Store subcommands: inspect, audit and sweep a result store. *)

let store_dir_pos =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Result store directory.")

let pp_counts ppf counts =
  let names = [| "benign"; "detected"; "exception"; "sdc"; "timeout";
                 "recovered" |] in
  let first = ref true in
  Array.iteri
    (fun i n ->
      if n > 0 && i < Array.length names then begin
        Format.fprintf ppf "%s%d %s" (if !first then "" else ", ")
          n names.(i);
        first := false
      end)
    counts;
  if !first then Format.pp_print_string ppf "empty"

(* Re-run a persisted cell — a banked entry or a queued unit — from its
   spec and identity fields; [None] when the spec names an unknown
   workload, size, scheme or fault model. *)
let persisted_campaign engine ?store ~seed ~fuel_factor ~retry_budget ~trials
    spec =
  Option.map
    (fun (key, model) () ->
      Engine.campaign_stored engine ~seed ~fuel_factor ~model
        ?retry_budget:(Store.retry_budget_of_field retry_budget)
        ?store ~trials key)
    (Engine.key_of_spec spec)

let store_ls_cmd =
  let run dir =
    let* s = Store.open_dir dir in
    match Store.list s with
    | Error msg ->
        Printf.eprintf "casted: %s\n" msg;
        1
    | Ok entries ->
        let corrupt = ref 0 in
        let trials = ref 0 in
        List.iter
          (function
            | Ok (e : Store.entry) ->
                trials := !trials + e.Store.trials_done;
                Format.printf "%-60s %6d trials  (%a)@."
                  (Store.address e.Store.key)
                  e.Store.trials_done pp_counts e.Store.counts
            | Error msg ->
                incr corrupt;
                Printf.eprintf "casted: %s\n" msg)
          entries;
        Format.printf "%d entries, %d trials banked%s@." (List.length entries)
          !trials
          (if !corrupt = 0 then ""
           else Printf.sprintf ", %d CORRUPT" !corrupt);
        if !corrupt = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "ls"
       ~doc:
         "List every banked tally (address, trial count, outcome \
          breakdown); corrupt or mis-addressed entries are reported and \
          exit 1")
    Term.(const run $ store_dir_pos)

let store_audit_cmd =
  let run dir sample jobs =
    let* s = Store.open_dir dir in
    match Store.list s with
    | Error msg ->
        Printf.eprintf "casted: %s\n" msg;
        1
    | Ok entries ->
        let corrupt =
          List.filter_map
            (function Error msg -> Some msg | Ok _ -> None)
            entries
        in
        List.iter (Printf.eprintf "casted: %s\n") corrupt;
        let entries =
          List.filter_map
            (function Ok (e : Store.entry) -> Some e | Error _ -> None)
            entries
        in
        (* Deterministic sample: the listing is sorted by address, take
           an even stride through it. *)
        let picked =
          if sample = 0 || sample >= List.length entries then entries
          else begin
            let arr = Array.of_list entries in
            let n = Array.length arr in
            List.init sample (fun i -> arr.(i * n / sample))
          end
        in
        let audited = ref 0 and skipped = ref 0 and bad = ref 0 in
        with_engine jobs @@ fun engine ->
        List.iter
          (fun (e : Store.entry) ->
            let k = e.Store.key in
            match
              Option.bind e.Store.spec
                (persisted_campaign engine ~seed:k.Store.seed
                   ~fuel_factor:k.Store.fuel_factor
                   ~retry_budget:k.Store.retry_budget
                   ~trials:e.Store.trials_done)
            with
            | None ->
                incr skipped;
                Printf.eprintf
                  "casted: skipping %s (no reconstructible spec)\n"
                  (Store.address e.Store.key)
            | Some campaign ->
                incr audited;
                let r = (campaign ()).Engine.result in
                if
                  Montecarlo.counts r <> e.Store.counts
                  || r.Montecarlo.golden_cycles <> e.Store.golden_cycles
                  || r.Montecarlo.golden_dyn <> e.Store.golden_dyn
                  || r.Montecarlo.population <> e.Store.population
                then begin
                  incr bad;
                  Format.eprintf
                    "casted: AUDIT MISMATCH %s@.  banked:      %a \
                     (golden %d cycles, %d insns, population %d)@.  \
                     resimulated: %a (golden %d cycles, %d insns, \
                     population %d)@."
                    (Store.address e.Store.key)
                    pp_counts e.Store.counts e.Store.golden_cycles
                    e.Store.golden_dyn e.Store.population pp_counts
                    (Montecarlo.counts r) r.Montecarlo.golden_cycles
                    r.Montecarlo.golden_dyn r.Montecarlo.population
                end)
          picked;
        Format.printf
          "audit: %d entries re-simulated, %d skipped, %d mismatched%s@."
          !audited !skipped !bad
          (if corrupt = [] then ""
           else Printf.sprintf ", %d corrupt" (List.length corrupt));
        if !bad = 0 && corrupt = [] then 0 else 1
  in
  let sample =
    Arg.(
      value
      & opt (int_at_least 0) 0
      & info [ "sample" ] ~docv:"N"
          ~doc:
            "Audit only $(docv) entries (an even, deterministic stride \
             through the address-sorted listing). 0 audits everything.")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Re-simulate banked tallies and fail loudly (exit 1) on any \
          mismatch — the store's end-to-end integrity check: a mismatch \
          means the simulator no longer reproduces the banked campaign")
    Term.(const run $ store_dir_pos $ sample $ jobs_arg)

let store_gc_cmd =
  let run dir force =
    let* s = Store.open_dir dir in
    let tmp = Store.gc_tmp s in
    let locks = Work.gc_locks ~force s in
    Format.printf "gc: removed %d tmp files, %d stale locks@." tmp locks;
    0
  in
  let force =
    Arg.(
      value & flag
      & info [ "force" ]
          ~doc:
            "Remove every lock, not just stale ones (only safe when no \
             worker is running).")
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "Sweep debris: orphan tmp files from killed writers and stale \
          locks of dead workers")
    Term.(const run $ store_dir_pos $ force)

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:"Inspect, audit and garbage-collect a persistent result store")
    [ store_ls_cmd; store_audit_cmd; store_gc_cmd ]

(* The worker: claim identity-keyed units from DIR/queue and stream
   tallies into the store. *)

let work_cmd =
  let run store_dir benchmarks schemes issues delays models trials seed fuel
      enqueue enqueue_only jobs trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let* s = Store.open_dir ~create:true store_dir in
    if enqueue || enqueue_only then begin
      let enqueued = ref 0 in
      let enqueue_unit workload scheme issue delay model =
        let u =
          {
            Work.workload;
            size = "fault";
            scheme = Scheme.name scheme;
            issue;
            delay;
            model = Casted_sim.Fault.model_name model;
            seed;
            trials;
            fuel_factor = fuel;
            retry_budget = -1;
          }
        in
        if Work.enqueue s u then incr enqueued
      in
      let each xs f = List.iter f xs in
      each (Option.value benchmarks ~default:(Registry.names ())) (fun w ->
          each schemes (fun sc ->
              each issues (fun i ->
                  each delays (fun d -> each models (enqueue_unit w sc i d)))));
      Format.printf "work: enqueued %d new units@." !enqueued
    end;
    if enqueue_only then 0
    else
      let* units = Work.units s in
      let ran = ref 0 and busy = ref 0 and broken = ref 0 in
      let served = ref 0 and simulated = ref 0 in
      with_engine jobs @@ fun engine ->
      List.iter
        (function
          | Error msg ->
              incr broken;
              Printf.eprintf "casted: %s\n" msg
          | Ok (u : Work.unit_spec) -> (
              match
                persisted_campaign engine ~store:s ~seed:u.Work.seed
                  ~fuel_factor:u.Work.fuel_factor
                  ~retry_budget:u.Work.retry_budget ~trials:u.Work.trials
                  (Work.spec u)
              with
              | Some campaign -> (
                  match Work.claim s u with
                  | Work.Busy owner ->
                      incr busy;
                      Format.printf "work: %s busy (%s)@." (Work.address u)
                        owner
                  | Work.Claimed ->
                      Fun.protect
                        ~finally:(fun () -> Work.release s u)
                        (fun () ->
                          let sc = campaign () in
                          incr ran;
                          served := !served + sc.Engine.served;
                          simulated := !simulated + sc.Engine.simulated;
                          Format.printf "work: %s — %d served, %d simulated@."
                            (Work.address u) sc.Engine.served
                            sc.Engine.simulated))
              | None ->
                  incr broken;
                  Printf.eprintf
                    "casted: unit %s names an unknown workload/scheme/model \
                     — skipping\n"
                    (Work.address u)))
        units;
      Format.printf
        "work: %d units run (%d trials served from the store, %d simulated), \
         %d busy, %d broken@."
        !ran !served !simulated !busy !broken;
      if !broken = 0 then 0 else 1
  in
  let schemes =
    Arg.(
      value
      & opt (list scheme_conv) [ Scheme.Casted ]
      & info [ "schemes" ] ~docv:"S,.."
          ~doc:"Schemes for $(b,--enqueue) (comma-separated).")
  in
  let issues =
    Arg.(
      value
      & opt (list issue_conv) [ 2 ]
      & info [ "issues" ] ~docv:"I,.." ~doc:"Issue widths for $(b,--enqueue).")
  in
  let delays =
    Arg.(
      value
      & opt (list delay_conv) [ 2 ]
      & info [ "delays" ] ~docv:"D,.." ~doc:"Delays for $(b,--enqueue).")
  in
  let models =
    Arg.(
      value
      & opt (list model_conv) [ Casted_sim.Fault.Reg_bit ]
      & info [ "models" ] ~docv:"M,.."
          ~doc:"Fault models for $(b,--enqueue).")
  in
  let seed =
    Arg.(
      value & opt int 0xCA57ED
      & info [ "seed" ] ~docv:"S" ~doc:"Campaign seed for enqueued units.")
  in
  let fuel =
    Arg.(
      value
      & opt (int_at_least 1) 10
      & info [ "fuel" ] ~docv:"F" ~doc:"Fuel factor for enqueued units.")
  in
  let enqueue =
    Arg.(
      value & flag
      & info [ "enqueue" ]
          ~doc:
            "First enqueue the benchmark × scheme × issue × delay × model \
             matrix as work units, then drain the queue.")
  in
  let enqueue_only =
    Arg.(
      value & flag
      & info [ "enqueue-only" ]
          ~doc:"Enqueue the matrix and exit without claiming any unit.")
  in
  let store_req =
    Arg.(
      required
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:"Result store directory holding the queue (created if absent).")
  in
  Cmd.v
    (Cmd.info "work"
       ~doc:
         "Cooperative campaign worker: claim identity-keyed work units \
          from the store's queue via crash-tolerant lock files, simulate \
          each cell incrementally against the store, and release. Any \
          number of workers (or hosts sharing the directory) can drain one \
          queue; a killed worker's lock is broken automatically")
    Term.(
      const run $ store_req $ benchmarks_arg $ schemes $ issues $ delays $ models
      $ trials_arg $ seed $ fuel $ enqueue $ enqueue_only $ jobs_arg
      $ trace_arg $ metrics_arg)

let repro_cmd =
  let run size trials store_dir jobs =
    let* store = open_store store_dir in
    let t0 = Obs.Clock.now_us () in
    with_engine jobs (fun engine ->
        print_string (Report.Repro.run ~engine ?store ~size ~trials ());
        let c = Engine.store_counters engine in
        Printf.eprintf "repro: %.1fs on %d jobs%s\n"
          ((Obs.Clock.now_us () -. t0) /. 1e6)
          (Engine.jobs engine)
          (match store_dir with
          | Some dir ->
              Printf.sprintf
                "; store %s: %d trials served, %d simulated; %d ablation \
                 trials simulated outside the store"
                dir c.Engine.trials_served c.Engine.trials_simulated
                (Report.Repro.unstored_trials ~trials)
          | None -> "");
        0)
  in
  Cmd.v
    (Cmd.info "repro"
       ~doc:
         "Regenerate the paper's evaluation in one run: Tables I-III, Figs. \
          6-10 with the headline summary, the ablations, placement, \
          recovery and DME, at seed 0xCA57ED. The report goes to stdout and \
          is identical for every $(b,--jobs) and store state; the wall clock \
          and store traffic go to stderr. With $(b,--store) every engine \
          campaign is banked, so a rerun simulates none of them; the \
          late-CSE ablation's trials run outside the store every time and \
          are counted separately.")
    Term.(
      const run $ size_arg_with W.Perf $ trials_arg $ store_arg
      $ jobs_arg)

let version_cmd =
  let run () =
    print_endline ("casted " ^ version);
    0
  in
  Cmd.v
    (Cmd.info "version" ~doc:"Print the casted version")
    Term.(const run $ const ())

let main =
  let doc = "CASTED: core-adaptive software transient error detection" in
  Cmd.group
    (Cmd.info "casted" ~doc ~version)
    [
      list_cmd; compile_cmd; run_cmd; sweep_cmd; scaling_cmd; faults_cmd;
      campaign_cmd; dme_cmd; tables_cmd; recover_cmd; placement_cmd;
      profile_cmd;
      pressure_cmd; asm_cmd; verify_cmd; fuzz_cmd; store_cmd;
      work_cmd; repro_cmd; version_cmd;
    ]

let () = exit (Cmd.eval' main)
