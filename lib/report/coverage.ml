module Scheme = Casted_detect.Scheme
module Workload = Casted_workloads.Workload
module Registry = Casted_workloads.Registry
module Fault = Casted_sim.Fault
module Montecarlo = Casted_sim.Montecarlo
module Outcome = Casted_sim.Outcome
module Engine = Casted_engine.Engine
module Cache = Casted_engine.Cache

type row = {
  benchmark : string;
  scheme : Scheme.t;
  issue : int;
  delay : int;
  result : Montecarlo.result;
}

let campaign ~engine ?seed ?model ?store ~trials ~benchmark ~scheme ~issue
    ~delay () =
  let spec =
    Cache.key ~workload:benchmark ~size:Workload.Fault ~scheme
      ~issue_width:issue ~delay ()
  in
  let result = Engine.campaign engine ?seed ?model ?store ~trials spec in
  { benchmark; scheme; issue; delay; result }

let fig9 ~engine ?seed ?model ?store ?(trials = 300) ?benchmarks () =
  let benchmarks =
    match benchmarks with Some b -> b | None -> Registry.names ()
  in
  List.concat_map
    (fun benchmark ->
      List.map
        (fun scheme ->
          campaign ~engine ?seed ?model ?store ~trials ~benchmark ~scheme
            ~issue:2 ~delay:2 ())
        Scheme.all)
    benchmarks

let fig10 ~engine ?seed ?model ?store ?(trials = 300) ?(benchmark = "h263dec")
    ?(schemes = Scheme.all) () =
  List.concat_map
    (fun issue ->
      List.concat_map
        (fun delay ->
          List.map
            (fun scheme ->
              campaign ~engine ?seed ?model ?store ~trials ~benchmark ~scheme
                ~issue ~delay ())
            schemes)
        [ 1; 2; 3; 4 ])
    [ 1; 2; 3; 4 ]

let render rows =
  let headers =
    [
      "benchmark"; "scheme"; "issue"; "delay"; "benign"; "recovered";
      "detected"; "exception"; "corrupt"; "timeout";
    ]
  in
  let row r =
    (* Each class rate with its 95% Wilson half-width, e.g. "54.3±5.6".
       A cell the model does not apply to (empty injection population,
       zero trials) renders as "n/a" rather than a fake all-zero
       breakdown. *)
    let p c =
      if Montecarlo.inapplicable r.result then "n/a"
      else
        Printf.sprintf "%.1f±%.1f"
          (Montecarlo.percent r.result c)
          (Montecarlo.halfwidth r.result c)
    in
    [
      r.benchmark;
      Scheme.name r.scheme;
      string_of_int r.issue;
      string_of_int r.delay;
      p Montecarlo.Benign;
      p Montecarlo.Recovered;
      p Montecarlo.Detected;
      p Montecarlo.Exception;
      p Montecarlo.Data_corrupt;
      p Montecarlo.Timeout;
    ]
  in
  Table.render ~headers (List.map row rows)

(* DME escape coverage: how much of the silent corruption that escapes
   CASTED does the decorrelated scheme catch? These are the shared-
   resource fault models — a corrupted memory line or cross-cluster
   operand hits both of CASTED's bit-identical copies the same way, so
   CASTED misclassifies the fault as benign-looking SDC; DME's replica
   reads a physically distinct line, diverges and traps. *)
type dme_escape = {
  escape_benchmark : string;
  escape_model : Fault.model;
  escape_trials : int;
  casted_sdc : int;  (* data-corrupt count under CASTED *)
  dme_sdc : int;  (* data-corrupt count under DME *)
  caught_fraction : float;  (* (casted - dme) / casted SDC rate, >= 0 *)
}

let dme_coverage ~engine ?seed ?(models = [ Fault.Mem; Fault.Xcluster ])
    ?store ?(trials = 2000) ?(issue = 2) ?(delay = 2) ~benchmark () =
  List.map
    (fun model ->
      let run scheme =
        (campaign ~engine ?seed ~model ?store ~trials ~benchmark ~scheme
           ~issue ~delay ())
          .result
      in
      let c = run Scheme.Casted and d = run Scheme.Dme in
      let cr = Montecarlo.percent c Montecarlo.Data_corrupt in
      let dr = Montecarlo.percent d Montecarlo.Data_corrupt in
      let caught =
        if cr <= 0.0 then 0.0 else Float.max 0.0 ((cr -. dr) /. cr)
      in
      {
        escape_benchmark = benchmark;
        escape_model = model;
        escape_trials = c.Montecarlo.trials;
        casted_sdc = Montecarlo.count c Montecarlo.Data_corrupt;
        dme_sdc = Montecarlo.count d Montecarlo.Data_corrupt;
        caught_fraction = caught;
      })
    models

let render_dme rows =
  let headers =
    [
      "benchmark"; "model"; "trials"; "casted-sdc"; "dme-sdc"; "caught";
    ]
  in
  let row r =
    [
      r.escape_benchmark;
      Fault.model_name r.escape_model;
      string_of_int r.escape_trials;
      string_of_int r.casted_sdc;
      string_of_int r.dme_sdc;
      Printf.sprintf "%.1f%%" (100.0 *. r.caught_fraction);
    ]
  in
  Table.render ~headers (List.map row rows)

(* MWTF (Reis et al.) needs the unprotected runtime: the golden cycles
   of the NOED build of the same benchmark at the same issue width. *)
let noed_cycles engine ~benchmark ~issue =
  let key =
    Cache.key ~workload:benchmark ~size:Workload.Fault ~scheme:Scheme.Noed
      ~issue_width:issue ~delay:1 ()
  in
  (snd (Engine.simulate engine key)).Outcome.cycles

let mwtf_string m =
  if Float.is_integer m && Float.abs m < 1e9 then Printf.sprintf "%.0f" m
  else Printf.sprintf "%.2f" m

let recovery_table ~engine ?seed ?model ?retry_budget ?store ~trials
    ~benchmark ~issue ~delay () =
  let baseline_cycles = noed_cycles engine ~benchmark ~issue in
  let results =
    List.map
      (fun scheme ->
        ( scheme,
          Engine.campaign engine ?seed ?model ?retry_budget ?store ~trials
            (Cache.key ~workload:benchmark ~size:Workload.Fault ~scheme
               ~issue_width:issue ~delay ()) ))
      [ Scheme.Casted; Scheme.Tmr; Scheme.Rollback ]
  in
  let row (scheme, r) =
    Printf.sprintf "%-10s %8.2fx %9.1f %10.1f %10.1f %6.1f %8s\n"
      (Scheme.name scheme)
      (float_of_int r.Montecarlo.golden_cycles /. float_of_int baseline_cycles)
      (Montecarlo.percent r Montecarlo.Benign)
      (Montecarlo.percent r Montecarlo.Recovered)
      (Montecarlo.percent r Montecarlo.Detected)
      (Montecarlo.percent r Montecarlo.Data_corrupt)
      (mwtf_string (Montecarlo.mwtf ~baseline_cycles r))
  in
  String.concat ""
    (Printf.sprintf
       "%s issue %d delay %d: %d %s trials per scheme (NOED baseline %d \
        cycles)\n"
       benchmark issue delay trials
       (Fault.model_name (snd (List.hd results)).Montecarlo.model)
       baseline_cycles
    :: Printf.sprintf "%-10s %9s %9s %10s %10s %6s %8s\n" "scheme"
         "overhead" "benign%" "recovered%" "detected%" "sdc%" "mwtf"
    :: List.map row results)
