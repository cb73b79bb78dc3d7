open Helpers
module Table = Casted_report.Table
module Perf_sweep = Casted_report.Perf_sweep
module Scaling = Casted_report.Scaling
module Coverage = Casted_report.Coverage
module Static_tables = Casted_report.Static_tables
module Montecarlo = Casted_sim.Montecarlo
module Repro = Casted_report.Repro
module Engine = Casted_engine.Engine
module Scheme = Casted_detect.Scheme

let test_table_rendering () =
  let s =
    Table.render ~headers:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let lines = String.split_on_char '\n' s in
  (* header + separator + 2 rows + trailing newline *)
  Alcotest.(check int) "line count" 5 (List.length lines);
  Alcotest.(check bool) "separator present" true
    (String.length (List.nth lines 1) > 0
    && String.for_all
         (fun c -> c = '-' || c = ' ')
         (List.nth lines 1))

let test_formatting_helpers () =
  Alcotest.(check string) "f2" "1.23" (Table.f2 1.2345);
  Alcotest.(check string) "pct" "45.6%" (Table.pct 45.61)

(* A small sweep shared by several cases (two benchmarks, two issue
   widths, one delay, fault-sized inputs to stay quick). *)
let small_sweep =
  lazy
    (Perf_sweep.run ~size:Casted_workloads.Workload.Fault
       ~benchmarks:[ "cjpeg"; "181.mcf" ] ~issues:[ 1; 2 ] ~delays:[ 1; 3 ]
       ())

let test_sweep_points_complete () =
  let s = Lazy.force small_sweep in
  (* 2 benchmarks x 2 issues x (NOED + SCED + 2 x (DCED + CASTED)). *)
  Alcotest.(check int) "point count" (2 * 2 * 6)
    (List.length s.Perf_sweep.points)

let test_noed_slowdown_is_one () =
  let s = Lazy.force small_sweep in
  List.iter
    (fun benchmark ->
      List.iter
        (fun issue ->
          let v =
            Perf_sweep.slowdown s ~benchmark ~scheme:Scheme.Noed ~issue
              ~delay:1
          in
          Alcotest.(check (float 1e-9)) "noed normalised" 1.0 v)
        [ 1; 2 ])
    [ "cjpeg"; "181.mcf" ]

let test_hardened_slowdowns_above_one () =
  let s = Lazy.force small_sweep in
  List.iter
    (fun benchmark ->
      List.iter
        (fun scheme ->
          List.iter
            (fun issue ->
              List.iter
                (fun delay ->
                  let v =
                    Perf_sweep.slowdown s ~benchmark ~scheme ~issue ~delay
                  in
                  if v < 1.0 then
                    Alcotest.failf "%s %s %d/%d: slowdown %.3f < 1" benchmark
                      (Scheme.name scheme) issue delay v)
                [ 1; 3 ])
            [ 1; 2 ])
        [ Scheme.Sced; Scheme.Dced; Scheme.Casted ])
    [ "cjpeg"; "181.mcf" ]

let test_summary_sane () =
  let s = Lazy.force small_sweep in
  let sum = Perf_sweep.summarize s in
  Alcotest.(check bool) "min <= avg <= max" true
    (sum.Perf_sweep.sced_min <= sum.Perf_sweep.sced_avg
    && sum.Perf_sweep.sced_avg <= sum.Perf_sweep.sced_max);
  Alcotest.(check bool) "casted avg below sced avg" true
    (sum.Perf_sweep.casted_avg <= sum.Perf_sweep.sced_avg);
  Alcotest.(check bool) "gain non-negative" true
    (sum.Perf_sweep.best_gain >= 0.0)

let test_scaling_baseline () =
  let s = Lazy.force small_sweep in
  (* Speedup at issue 1 is 1 by definition. *)
  List.iter
    (fun scheme ->
      let v =
        Scaling.speedup s ~benchmark:"cjpeg" ~scheme ~issue:1 ~delay:1
      in
      Alcotest.(check (float 1e-9)) (Scheme.name scheme) 1.0 v)
    [ Scheme.Noed; Scheme.Sced; Scheme.Dced; Scheme.Casted ]

let test_render_nonempty () =
  let s = Lazy.force small_sweep in
  Alcotest.(check bool) "panels render" true
    (String.length (Perf_sweep.render_all s) > 100);
  Alcotest.(check bool) "scaling renders" true
    (String.length (Scaling.render_all s) > 100);
  Alcotest.(check bool) "summary renders" true
    (String.length (Perf_sweep.render_summary (Perf_sweep.summarize s)) > 50)

(* The runner [casted repro] builds, minus the store: one engine, one
   trial count, the default seed. *)
let runner engine ~trials : Coverage.runner =
 fun ?model key -> Engine.campaign engine ?model ~trials key

let test_campaign_row () =
  let rows =
    Engine.with_engine (fun engine ->
        Coverage.fig9 ~benchmarks:[ "cjpeg" ] (runner engine ~trials:30))
  in
  let row =
    List.find (fun r -> r.Coverage.scheme = Scheme.Casted) rows
  in
  Alcotest.(check int) "one row per scheme" (List.length Scheme.all)
    (List.length rows);
  Alcotest.(check (pair int int)) "at issue 2 delay 2" (2, 2)
    (row.Coverage.issue, row.Coverage.delay);
  let r = row.Coverage.result in
  Alcotest.(check int) "trials recorded" 30 r.Montecarlo.trials;
  let total =
    List.fold_left
      (fun acc c -> acc +. Montecarlo.percent r c)
      0.0 Montecarlo.all_classes
  in
  Alcotest.(check (float 1e-6)) "percentages sum to 100" 100.0 total

(* Fig. 10 runs a single-cluster scheme once per issue width, at delay
   1, and prints that one tally on all four delay rows; every other
   scheme runs at every (issue, delay) point. *)
let test_fig10_single_cluster_once () =
  let calls = ref [] in
  let rows =
    Engine.with_engine (fun engine ->
        let run = runner engine ~trials:2 in
        Coverage.fig10 (fun ?model key ->
            calls := key :: !calls;
            run ?model key))
  in
  let single, dual = List.partition Scheme.single_cluster Scheme.all in
  Alcotest.(check int) "one row per (issue, delay, scheme)"
    (4 * 4 * List.length Scheme.all)
    (List.length rows);
  Alcotest.(check int) "campaigns"
    (4 * (List.length single + (4 * List.length dual)))
    (List.length !calls);
  List.iter
    (fun (k : Casted_engine.Cache.key) ->
      if Scheme.single_cluster k.Casted_engine.Cache.scheme then
        Alcotest.(check int) "single-cluster campaign at delay 1" 1
          k.Casted_engine.Cache.delay)
    !calls;
  List.iter
    (fun (r : Coverage.row) ->
      if Scheme.single_cluster r.Coverage.scheme then
        let at_delay_1 =
          List.find
            (fun (r' : Coverage.row) ->
              r'.Coverage.scheme = r.Coverage.scheme
              && r'.Coverage.issue = r.Coverage.issue
              && r'.Coverage.delay = 1)
            rows
        in
        Alcotest.(check bool) "same tally on every delay row" true
          (r.Coverage.result == at_delay_1.Coverage.result))
    rows

let test_coverage_render () =
  let rows =
    Engine.with_engine (fun engine ->
        Coverage.fig9 ~benchmarks:[ "cjpeg" ] (runner engine ~trials:10))
  in
  let s = Coverage.render rows in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "mentions benchmark" true (contains s "cjpeg");
  Alcotest.(check bool) "carries the recovered column" true
    (contains s "recovered")

let test_static_tables () =
  let t1 =
    Static_tables.table1 (Config.dual_core ~issue_width:2 ~delay:2)
  in
  Alcotest.(check bool) "table1 lists the caches" true
    (String.length t1 > 100);
  let t2 = Static_tables.table2 () in
  Alcotest.(check bool) "table2 lists 7 benchmarks" true
    (List.length (String.split_on_char '\n' t2) >= 9);
  let t3 = Static_tables.table3 () in
  Alcotest.(check bool) "table3 includes CASTED" true
    (String.length t3 > 100)

(* [casted repro] at reduced scale: one sweep/Fig. 9 benchmark, fault-
   sized inputs, a few trials. A cold pass banks every campaign; a warm
   pass on a fresh engine must simulate nothing and print the same
   bytes, and its Fig. 9 block must be [Coverage.render] of
   [Coverage.fig9]. *)
let test_repro_warm_store () =
  let trials = 8 and benchmarks = [ "181.mcf" ] in
  with_store (fun store ->
      let pass () =
        Engine.with_engine (fun engine ->
            let r =
              Repro.run ~engine ~store ~benchmarks
                ~size:Casted_workloads.Workload.Fault ~trials ()
            in
            (r.Repro.text, r))
      in
      let cold, cold_counts = pass () in
      let (warm, warm_counts), warm_trials =
        with_metrics (fun () ->
            let warm = pass () in
            (warm, counter "mc.trials"))
      in
      Alcotest.(check bool) "cold pass simulates" true
        (cold_counts.Repro.simulated > 0);
      Alcotest.(check int) "warm pass simulates nothing" 0
        warm_counts.Repro.simulated;
      (* A campaign that bypassed the store would simulate outside the
         store counters, but every simulated trial counts in
         [mc.trials]: the warm pass runs only the late-CSE ablation's. *)
      Alcotest.(check int) "warm pass runs only the unstored trials"
        (Repro.unstored_trials ~trials)
        warm_trials;
      Alcotest.(check int) "warm pass serves every trial"
        (cold_counts.Repro.served + cold_counts.Repro.simulated)
        warm_counts.Repro.served;
      Alcotest.(check string) "warm text byte-identical" cold warm;
      let fig9 =
        Printf.sprintf
          "\n================ Fig. 9: fault coverage, issue 2 delay 2 (%d \
           trials) ================\n%s\n================ Fig. 10"
          trials
          (Coverage.render
             (Engine.with_engine (fun engine ->
                  Coverage.fig9 ~benchmarks (runner engine ~trials))))
      in
      Alcotest.(check bool) "Fig. 9 block is Coverage.render of fig9" true
        (contains cold fig9))

let suite =
  ( "report",
    [
      case "table rendering" test_table_rendering;
      case "formatting helpers" test_formatting_helpers;
      case "sweep point grid complete" test_sweep_points_complete;
      case "NOED normalises to 1.0" test_noed_slowdown_is_one;
      case "hardened slowdowns >= 1" test_hardened_slowdowns_above_one;
      case "summary statistics sane" test_summary_sane;
      case "scaling baseline" test_scaling_baseline;
      case "renderers produce output" test_render_nonempty;
      case "campaign percentages sum to 100" test_campaign_row;
      case "Fig. 10 runs a single-cluster scheme once per issue"
        test_fig10_single_cluster_once;
      case "coverage rendering" test_coverage_render;
      case "static tables (I-III)" test_static_tables;
      case "repro: warm store rerun simulates nothing, same text"
        test_repro_warm_store;
    ] )
