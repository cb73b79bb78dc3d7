module Scheme = Casted_detect.Scheme
module Workload = Casted_workloads.Workload
module Registry = Casted_workloads.Registry
module Outcome = Casted_sim.Outcome
module Engine = Casted_engine.Engine

type point = {
  benchmark : string;
  scheme : Scheme.t;
  issue : int;
  delay : int;
  cycles : int;
  dyn_insns : int;
}

type t = {
  points : point list;
  issues : int list;
  delays : int list;
  benchmarks : string list;
}

let default_issues = [ 1; 2; 3; 4 ]
let default_delays = [ 1; 2; 3; 4 ]

let run ?engine ?(size = Workload.Perf) ?benchmarks ?(issues = default_issues)
    ?(delays = default_delays) () =
  let benchmarks =
    match benchmarks with
    | Some names -> names
    | None -> Registry.names ()
  in
  let sweep e =
    List.map
      (fun (p : Engine.sweep_point) ->
        {
          benchmark = p.Engine.benchmark;
          scheme = p.Engine.scheme;
          issue = p.Engine.issue;
          delay = p.Engine.delay;
          cycles = p.Engine.run.Outcome.cycles;
          dyn_insns = p.Engine.run.Outcome.dyn_insns;
        })
      (Engine.sweep e ~size ~benchmarks ~issues ~delays ())
  in
  let points =
    match engine with
    | Some e -> sweep e
    | None -> Engine.with_engine sweep
  in
  { points; issues; delays; benchmarks }

let find t ~benchmark ~scheme ~issue ~delay =
  let delay = if Scheme.single_cluster scheme then 0 else delay in
  match
    List.find_opt
      (fun p ->
        String.equal p.benchmark benchmark
        && p.scheme = scheme && p.issue = issue && p.delay = delay)
      t.points
  with
  | Some p -> p
  | None ->
      invalid_arg
        (Printf.sprintf "Perf_sweep: no point %s/%s/i%d/d%d" benchmark
           (Scheme.name scheme) issue delay)

let cycles t ~benchmark ~scheme ~issue ~delay =
  (find t ~benchmark ~scheme ~issue ~delay).cycles

let slowdown t ~benchmark ~scheme ~issue ~delay =
  let c = cycles t ~benchmark ~scheme ~issue ~delay in
  let base = cycles t ~benchmark ~scheme:Scheme.Noed ~issue ~delay:0 in
  float_of_int c /. float_of_int base

let render_panel t ~benchmark ~delay =
  let headers =
    "scheme"
    :: List.map (fun i -> Printf.sprintf "issue %d" i) t.issues
  in
  let row scheme =
    Scheme.name scheme
    :: List.map
         (fun issue ->
           Table.f2 (slowdown t ~benchmark ~scheme ~issue ~delay))
         t.issues
  in
  Printf.sprintf "%s, delay %d (slowdown vs NOED)\n%s" benchmark delay
    (Table.render ~headers
       [ row Scheme.Sced; row Scheme.Dced; row Scheme.Casted ])

let render_all t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun benchmark ->
      List.iter
        (fun delay ->
          Buffer.add_string buf (render_panel t ~benchmark ~delay);
          Buffer.add_char buf '\n')
        t.delays)
    t.benchmarks;
  Buffer.contents buf

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
  best_gain : float;
  best_gain_at : string;
  casted_vs_sced : float;
  casted_vs_dced : float;
}

let summarize t =
  let grid_slowdowns scheme =
    List.concat_map
      (fun benchmark ->
        List.concat_map
          (fun issue ->
            List.map
              (fun delay -> slowdown t ~benchmark ~scheme ~issue ~delay)
              t.delays)
          t.issues)
      t.benchmarks
  in
  let stats xs =
    let n = float_of_int (List.length xs) in
    ( List.fold_left min infinity xs,
      List.fold_left max neg_infinity xs,
      List.fold_left ( +. ) 0.0 xs /. n )
  in
  let sced = grid_slowdowns Scheme.Sced in
  let dced = grid_slowdowns Scheme.Dced in
  let casted = grid_slowdowns Scheme.Casted in
  let sced_min, sced_max, sced_avg = stats sced in
  let dced_min, dced_max, dced_avg = stats dced in
  let casted_min, casted_max, casted_avg = stats casted in
  (* Biggest win of CASTED over the better fixed scheme at each point. *)
  let best_gain = ref 0.0 and best_gain_at = ref "-" in
  List.iter
    (fun benchmark ->
      List.iter
        (fun issue ->
          List.iter
            (fun delay ->
              let s = slowdown t ~benchmark ~scheme:Scheme.Sced ~issue ~delay in
              let d = slowdown t ~benchmark ~scheme:Scheme.Dced ~issue ~delay in
              let c =
                slowdown t ~benchmark ~scheme:Scheme.Casted ~issue ~delay
              in
              let best_fixed = Float.min s d in
              let gain = 100.0 *. (best_fixed -. c) /. best_fixed in
              if gain > !best_gain then begin
                best_gain := gain;
                best_gain_at :=
                  Printf.sprintf "%s issue %d delay %d" benchmark issue delay
              end)
            t.delays)
        t.issues)
    t.benchmarks;
  {
    sced_min;
    sced_max;
    sced_avg;
    dced_min;
    dced_max;
    dced_avg;
    casted_min;
    casted_max;
    casted_avg;
    best_gain = !best_gain;
    best_gain_at = !best_gain_at;
    casted_vs_sced = 100.0 *. (sced_avg -. casted_avg) /. sced_avg;
    casted_vs_dced = 100.0 *. (dced_avg -. casted_avg) /. dced_avg;
  }

let render_summary s =
  String.concat "\n"
    [
      Printf.sprintf "SCED   slowdown: %.2f - %.2f (avg %.2f)" s.sced_min
        s.sced_max s.sced_avg;
      Printf.sprintf "DCED   slowdown: %.2f - %.2f (avg %.2f)" s.dced_min
        s.dced_max s.dced_avg;
      Printf.sprintf "CASTED slowdown: %.2f - %.2f (avg %.2f)" s.casted_min
        s.casted_max s.casted_avg;
      Printf.sprintf
        "CASTED beats the best fixed scheme by up to %.1f%% (%s)" s.best_gain
        s.best_gain_at;
      Printf.sprintf
        "average slowdown reduction: %.1f%% vs SCED, %.1f%% vs DCED"
        s.casted_vs_sced s.casted_vs_dced;
      "";
    ]
