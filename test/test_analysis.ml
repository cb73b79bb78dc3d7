open Helpers
module Pressure = Casted_ir.Pressure
module Profile = Casted_sim.Profile
module Utilization = Casted_report.Utilization
module Transform = Casted_detect.Transform
module W = Casted_workloads.Workload
module Registry = Casted_workloads.Registry

(* --- register pressure --- *)

let test_pressure_straight_line () =
  (* Three values alive simultaneously at their join. *)
  let p =
    compute_program (fun b ->
        let x = B.movi b 1L in
        let y = B.movi b 2L in
        let z = B.movi b 3L in
        let s = B.add b x y in
        B.add b s z)
  in
  let pr = Pressure.of_program p in
  Alcotest.(check bool) "at least 3 gp at peak" true (pr.Pressure.max_gp >= 3);
  Alcotest.(check int) "no fp" 0 pr.Pressure.max_fp

let test_pressure_grows_with_hardening () =
  (* Duplication roughly doubles the live set. *)
  List.iter
    (fun name ->
      let w = Option.get (Registry.find name) in
      let p = w.W.build W.Fault in
      let plain = Pressure.of_program p in
      let hardened, _ = Transform.program Options.default p in
      let det = Pressure.of_program hardened in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d -> %d gp" name plain.Pressure.max_gp
           det.Pressure.max_gp)
        true
        (det.Pressure.max_gp > plain.Pressure.max_gp
        && det.Pressure.max_gp <= (2 * plain.Pressure.max_gp) + 4))
    [ "cjpeg"; "181.mcf" ]

let test_pressure_exceeds () =
  let t = { Pressure.max_gp = 70; max_fp = 10; max_pr = 5 } in
  Alcotest.(check bool) "spills on 64" true
    (Pressure.exceeds t ~gp:64 ~fp:64 ~pr:32);
  Alcotest.(check bool) "fits on 128" false
    (Pressure.exceeds t ~gp:128 ~fp:64 ~pr:32)

(* --- profiling --- *)

let test_profile_counts_visits () =
  let p =
    program_of (fun b ->
        B.counted_loop b ~name:"hot" ~from:0L ~until:37L (fun b _ ->
            ignore (B.movi b 1L)))
  in
  let c = Pipeline.compile ~scheme:Scheme.Noed ~issue_width:2 ~delay:1 p in
  let profile = Profile.create () in
  let r = Simulator.reference ~profile
      (Casted_sim.Decode.of_schedule c.Pipeline.schedule) in
  let body =
    List.find_opt
      (fun ((_, label), _) ->
        String.length label >= 8 && String.sub label 0 8 = "hot_body")
      (Profile.entries profile)
  in
  (match body with
  | Some (_, e) -> Alcotest.(check int) "37 visits" 37 e.Profile.visits
  | None -> Alcotest.fail "loop body not profiled");
  (* Inclusive cycles sum to (roughly) the run's cycle count: every
     executed block is attributed. *)
  Alcotest.(check bool) "cycles accounted" true
    (Profile.total_cycles profile <= r.Outcome.cycles
    && Profile.total_cycles profile > r.Outcome.cycles / 2)

let test_profile_render () =
  let p = (Option.get (Registry.find "h263enc")).W.build W.Fault in
  let c = Pipeline.compile ~scheme:Scheme.Casted ~issue_width:2 ~delay:2 p in
  let profile = Profile.create () in
  let (_ : Outcome.run) = Simulator.reference ~profile
      (Casted_sim.Decode.of_schedule c.Pipeline.schedule) in
  let s = Profile.render_top ~n:5 profile in
  Alcotest.(check bool) "renders rows" true
    (List.length (String.split_on_char '\n' s) >= 5)

(* --- placement / utilisation --- *)

let test_dced_pins_detection_remotely () =
  let p = (Option.get (Registry.find "cjpeg")).W.build W.Fault in
  let c = Pipeline.compile ~scheme:Scheme.Dced ~issue_width:2 ~delay:2 p in
  let u = Utilization.analyze c.Pipeline.schedule in
  Alcotest.(check (float 1e-9)) "all detection remote" 1.0
    (Utilization.detection_remote_fraction u);
  Alcotest.(check (float 1e-9)) "no original remote" 0.0
    (Utilization.original_remote_fraction u)

let test_casted_balances () =
  let p = (Option.get (Registry.find "cjpeg")).W.build W.Fault in
  let c = Pipeline.compile ~scheme:Scheme.Casted ~issue_width:2 ~delay:1 p in
  let u = Utilization.analyze c.Pipeline.schedule in
  let det = Utilization.detection_remote_fraction u in
  let orig = Utilization.original_remote_fraction u in
  (* Neither all-local nor all-remote: genuinely adaptive. *)
  Alcotest.(check bool) "detection split" true (det > 0.1 && det < 0.9);
  Alcotest.(check bool) "original code split too (SS IV-B6)" true
    (orig > 0.05)

let test_single_cluster_utilization () =
  let p = (Option.get (Registry.find "cjpeg")).W.build W.Fault in
  let c = Pipeline.compile ~scheme:Scheme.Sced ~issue_width:2 ~delay:1 p in
  let u = Utilization.analyze c.Pipeline.schedule in
  Alcotest.(check int) "one cluster" 1 (Array.length u.Utilization.insns_per_cluster);
  Alcotest.(check (float 1e-9)) "nothing remote" 0.0
    (Utilization.detection_remote_fraction u);
  (* Occupancy now comes from the simulator's slot counters (the single
     source of truth), not from a parallel static accounting. *)
  let run = Simulator.run c.Pipeline.schedule in
  let occ = Utilization.occupancy_of_run run in
  Alcotest.(check bool) "occupancy in (0,1]" true (occ > 0.0 && occ <= 1.0);
  Alcotest.(check int) "slots offered = cycles x clusters x width"
    (run.Outcome.cycles * 1 * 2)
    run.Outcome.slots_total

let suite =
  ( "analysis",
    [
      case "pressure on straight-line code" test_pressure_straight_line;
      case "hardening roughly doubles pressure"
        test_pressure_grows_with_hardening;
      case "pressure spill predicate" test_pressure_exceeds;
      case "profile counts loop visits" test_profile_counts_visits;
      case "profile rendering" test_profile_render;
      case "DCED pins detection code remotely" test_dced_pins_detection_remotely;
      case "CASTED balances both streams" test_casted_balances;
      case "single-cluster utilisation" test_single_cluster_utilization;
    ] )
