(* The benchmark's workloads, run two ways.

   Untraced, a workload calls the library's top-level entry points
   (Engine.sweep, Engine.campaign_stored, Engine.campaign) exactly as a
   user would; only the whole measured phase is timed. Traced, the
   benchmark spells the same work out as calls to each layer's public
   functions and times every call from outside. Both runs hash their
   simulated results per cell, and the traced digest must equal the
   untraced one: the timers observe, they never steer.

   The time rows of the measured phase are in wall-share seconds:
   executor-seconds (summed over the pool's executors) divided by the
   pool size. Every timed layer call runs inside a pool task, so

     sum of leaf_rows + unattributed_s = pool.busy_s
     pool.busy_s + pool.idle_s         = trace.wall_s

   where pool.busy_s is the pool's own in-task time. One row lies
   outside that sum and is plain seconds: rollback.checkpoint_s (per
   cell, a fault-free Simulator.run_recovering minus the golden
   Simulator.run_decoded).

   There are two workloads. The Fig. 9 ROLLBACK column runs inside
   [coverage] rather than as a workload of its own: alone, its
   run-to-run spread of wall time over ten seeds (interquartile range
   over median) reached 0.23-0.25 on a 2-vCPU VM, the size of the
   regression bound. *)

module Engine = Casted_engine.Engine
module Cache = Casted_engine.Cache
module Pool = Casted_exec.Pool
module Store = Casted_store.Store
module Montecarlo = Casted_sim.Montecarlo
module Simulator = Casted_sim.Simulator
module Replay = Casted_sim.Replay
module State = Casted_sim.State
module Decode = Casted_sim.Decode
module Fault = Casted_sim.Fault
module Rng = Casted_sim.Rng
module Outcome = Casted_sim.Outcome
module Scheme = Casted_detect.Scheme
module Workload = Casted_workloads.Workload
module Registry = Casted_workloads.Registry
module Perf_sweep = Casted_report.Perf_sweep
module Json = Casted_obs.Json

type workload = Sweep | Coverage

let workloads = [ ("sweep", Sweep); ("coverage", Coverage) ]
let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* How much of the paper each workload covers. [full] is the benchmark;
   [reduced] keeps every code path at a fraction of the cost, for the
   benchmark's own tests. *)
type scale = {
  benchmarks : string list;
  issues : int list;
  delays : int list;
  sweep_size : Workload.size;
  cov_trials : int;
  fig10 : string;  (** benchmark of the Fig. 10 configuration matrix *)
  fig10_points : (int * int) list;  (** (issue, delay) *)
  rb_trials : int;
}

let grid issues delays =
  List.concat_map (fun i -> List.map (fun d -> (i, d)) delays) issues

let full =
  {
    benchmarks = Registry.names ();
    issues = [ 1; 2; 3; 4 ];
    delays = [ 1; 2; 3; 4 ];
    sweep_size = Workload.Perf;
    cov_trials = 300;
    fig10 = "h263dec";
    fig10_points = grid [ 1; 2; 3; 4 ] [ 1; 2; 3; 4 ];
    rb_trials = Montecarlo.chunk_trials;
  }

let reduced =
  {
    benchmarks = [ "cjpeg"; "181.mcf" ];
    issues = [ 1; 2 ];
    delays = [ 1; 2 ];
    sweep_size = Workload.Fault;
    cov_trials = 40;
    fig10 = "h263dec";
    fig10_points = [ (1, 1); (2, 2) ];
    rb_trials = 16;
  }

let model = Fault.Reg_bit
let fuel_factor = 10
let coverage_schemes = Scheme.[ Noed; Sced; Dced; Casted; Dme; Tmr ]

(* {2 Timing} *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Named accumulators, filled on the coordinator from the timings each
   pool task returns (tasks never share a mutable table). *)
module Rows = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let get (t : t) name = Option.value ~default:0.0 (Hashtbl.find_opt t name)
  let add t name v = Hashtbl.replace t name (get t name +. v)
  let adds t l = List.iter (fun (n, v) -> add t n v) l
end

(* Run [f] as a one-element pool task, so that serial layer calls are
   in-task time like every other timed call. *)
let in_pool pool f = (Pool.map pool (fun () -> f ()) [| () |]).(0)

(* {2 Cells and digests} *)

(* One unit of checked output: a sweep point or a campaign cell.
   [digest] covers the full simulated result; [golden] only its
   seed-independent part (for a sweep point the two coincide). *)
type cell = { id : string; digest : string; golden : string }

let md5 s = Digest.to_hex (Digest.string s)
let failed_cell id msg = { id; digest = "raised: " ^ msg; golden = "raised" }

let cell_id benchmark scheme issue delay =
  Printf.sprintf "%s/%s/i%d/d%d" benchmark (Scheme.name scheme) issue delay

let key_id (key : Cache.key) =
  cell_id key.Cache.workload key.Cache.scheme key.Cache.issue_width key.Cache.delay

let point_cell ~benchmark ~scheme ~issue ~delay (run : Outcome.run) =
  let text =
    Printf.sprintf "%s %s %d %d %d %d %d %s" benchmark (Scheme.name scheme)
      issue delay run.Outcome.cycles run.Outcome.dyn_insns
      run.Outcome.exit_code (md5 run.Outcome.output)
  in
  { id = cell_id benchmark scheme issue delay; digest = md5 text; golden = md5 text }

let campaign_cell (key : Cache.key) (r : Montecarlo.result) =
  let identity = Engine.campaign_identity key model in
  let counts =
    String.concat "," (Array.to_list (Array.map string_of_int (Montecarlo.counts r)))
  in
  let golden =
    Printf.sprintf "%s %d %d %d" identity r.Montecarlo.golden_cycles
      r.Montecarlo.golden_dyn r.Montecarlo.population
  in
  { id = key_id key; digest = md5 (golden ^ " " ^ counts); golden = md5 golden }

let digest_of_cells cells =
  md5 (String.concat "\n" (List.map (fun c -> c.id ^ " " ^ c.digest) cells))

(* {2 The grids} *)

(* The Figs. 6-8 sweep grid in Engine.sweep's order: NOED and SCED once
   per issue width (compiled at delay 1, recorded as delay 0), DCED and
   CASTED at every delay. *)
let sweep_specs s =
  List.concat_map
    (fun benchmark ->
      List.concat_map
        (fun issue ->
          let spec scheme ~compile_delay ~record_delay =
            ( Cache.key ~workload:benchmark ~size:s.sweep_size ~scheme
                ~issue_width:issue ~delay:compile_delay (),
              record_delay )
          in
          spec Scheme.Noed ~compile_delay:1 ~record_delay:0
          :: spec Scheme.Sced ~compile_delay:1 ~record_delay:0
          :: List.concat_map
               (fun delay ->
                 [
                   spec Scheme.Dced ~compile_delay:delay ~record_delay:delay;
                   spec Scheme.Casted ~compile_delay:delay ~record_delay:delay;
                 ])
               s.delays)
        s.issues)
    s.benchmarks

let campaign_key ~benchmark ~scheme ~issue ~delay =
  Cache.key ~workload:benchmark ~size:Workload.Fault ~scheme ~issue_width:issue
    ~delay ()

(* Fig. 9 (every benchmark × six schemes at issue 2, delay 2) followed
   by Fig. 10 (one benchmark × six schemes × the configuration grid), in
   the order Report.Coverage runs them. Fig. 10's issue-2/delay-2 cells
   repeat Fig. 9's, so the cold pass serves them from the store. *)
let coverage_keys s =
  List.concat_map
    (fun benchmark ->
      List.map
        (fun scheme -> campaign_key ~benchmark ~scheme ~issue:2 ~delay:2)
        coverage_schemes)
    s.benchmarks
  @ List.concat_map
      (fun (issue, delay) ->
        List.map
          (fun scheme -> campaign_key ~benchmark:s.fig10 ~scheme ~issue ~delay)
          coverage_schemes)
      s.fig10_points

let rollback_keys s =
  List.map
    (fun benchmark ->
      campaign_key ~benchmark ~scheme:Scheme.Rollback ~issue:2 ~delay:2)
    s.benchmarks

(* {2 One repetition} *)

type env = {
  scale : scale;
  seed : int;
  jobs : int;
  work_dir : string;
}

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Set-up: what the program does before its first measured call, the
   engine with its pool. Workload programs are not built here:
   Cache.compile builds each one on its first use, inside the measured
   phase. Nor is the coverage store created here, though it could be:
   creating a directory tree costs 0.1-0.7 ms depending on host load
   (medians of 64, minutes apart, on a 2-vCPU VM), so with it the
   median set-up of two sets of ten runs differed by 2.2x. It is the
   first step of the measured phase instead, where it is a negligible
   share of wall_s. *)
type setup = {
  engine : Engine.t;
  store_dir : string option;  (** where [coverage] creates its fresh store *)
  mutable store : Store.t option;  (** set by {!open_store} *)
}

let store_counter = ref 0

let make_setup env w =
  let engine = Engine.create ~jobs:env.jobs () in
  match w with
  | Coverage ->
      incr store_counter;
      let dir =
        Filename.concat env.work_dir
          (Printf.sprintf "store-%d-%d" (Unix.getpid ()) !store_counter)
      in
      { engine; store_dir = Some dir; store = None }
  | Sweep -> { engine; store_dir = None; store = None }

let open_store st =
  let dir = Option.get st.store_dir in
  rm_rf dir;
  st.store <- Some (Store.open_exn ~create:true dir)

let teardown s =
  Engine.shutdown s.engine;
  Option.iter rm_rf s.store_dir

let setup_sample env w =
  let st, dt = time (fun () -> make_setup env w) in
  teardown st;
  dt

(* {3 Model accuracy, reported beside the results} *)

let sweep_accuracy s (points : Engine.sweep_point list) =
  let points =
    List.map
      (fun (p : Engine.sweep_point) ->
        {
          Perf_sweep.benchmark = p.Engine.benchmark;
          scheme = p.Engine.scheme;
          issue = p.Engine.issue;
          delay = p.Engine.delay;
          cycles = p.Engine.run.Outcome.cycles;
          dyn_insns = p.Engine.run.Outcome.dyn_insns;
        })
      points
  in
  let sum =
    Perf_sweep.summarize
      { Perf_sweep.points; issues = s.issues; delays = s.delays; benchmarks = s.benchmarks }
  in
  [
    Printf.sprintf "accuracy: SCED average slowdown %.2f (paper 1.70)" sum.Perf_sweep.sced_avg;
    Printf.sprintf "accuracy: DCED average slowdown %.2f (paper 2.10)" sum.Perf_sweep.dced_avg;
    Printf.sprintf "accuracy: CASTED average slowdown %.2f (paper 1.58)" sum.Perf_sweep.casted_avg;
  ]

(* [results]: the ROLLBACK column, the Fig. 9 matrix and Fig. 10, in
   the order the coverage workload runs them. *)
let coverage_accuracy s (results : (Cache.key * Montecarlo.result) list) =
  let of_scheme scheme rs = List.filter (fun ((k : Cache.key), _) -> k.Cache.scheme = scheme) rs in
  let rollback = of_scheme Scheme.Rollback results in
  let results = List.filter (fun r -> not (List.memq r rollback)) results in
  let fig9 =
    List.filteri (fun i _ -> i < List.length s.benchmarks * List.length coverage_schemes) results
  in
  let mean rs c =
    List.fold_left (fun a (_, r) -> a +. Montecarlo.percent r c) 0.0 rs
    /. float_of_int (max 1 (List.length rs))
  in
  let per_scheme scheme =
    let rs = of_scheme scheme fig9 in
    Printf.sprintf "accuracy: Fig. 9 %-6s detected %5.1f%%  SDC %5.1f%%" (Scheme.name scheme)
      (mean rs Montecarlo.Detected) (mean rs Montecarlo.Data_corrupt)
  in
  let fig10 =
    List.filter
      (fun ((k : Cache.key), _) ->
        k.Cache.workload = s.fig10 && List.mem k.Cache.scheme Scheme.[ Sced; Dced; Casted; Dme ])
      (List.filteri (fun i _ -> i >= List.length fig9) results)
  in
  let rates c = List.map (fun (_, r) -> Montecarlo.percent r c) fig10 in
  let lo l = List.fold_left min infinity l and hi l = List.fold_left max neg_infinity l in
  List.map per_scheme coverage_schemes
  @ [
      Printf.sprintf
        "accuracy: Fig. 9 ROLLBACK recovered %5.1f%%  SDC %5.1f%% (EXPERIMENTS.md: cjpeg \
         recovered 86.0%%, SDC 0%%)"
        (mean rollback Montecarlo.Recovered) (mean rollback Montecarlo.Data_corrupt);
      "accuracy: Fig. 9 paper: SCED, DCED and CASTED have statistically identical \
       coverage; hardened schemes leave SDC only through unprotected library code \
       (EXPERIMENTS.md: cjpeg CASTED detected 81.0%, SDC 0%)";
      Printf.sprintf
        "accuracy: Fig. 10 %s detection schemes detected %.1f-%.1f%%, SDC at most %.1f%% \
         (EXPERIMENTS.md: detected 82.7-87.3%%, SDC 0.0%%; paper: unaffected by the \
         configuration)"
        s.fig10 (lo (rates Montecarlo.Detected)) (hi (rates Montecarlo.Detected))
        (hi (rates Montecarlo.Data_corrupt));
    ]


(* {2 Outcomes} *)

(* What one measured phase produced. *)
type outcome = {
  wall_s : float;
  cells : cell list;
  problems : string list;  (** invariant violations, one line each *)
  work : int;  (** sweep points or simulated faulty trials *)
  dyn_insns : int;  (** golden-equivalent simulated instructions *)
  accuracy : string list;  (** model-vs-paper lines *)
}

let protect f = try Ok (f ()) with e -> Error (Printexc.to_string e)

(* A sweep either completes every point or fails as a whole, as
   Engine.sweep does. *)
let sweep_outcome s ~wall_s = function
  | Ok (points : Engine.sweep_point list) ->
      {
        wall_s;
        cells =
          List.map
            (fun (p : Engine.sweep_point) ->
              point_cell ~benchmark:p.Engine.benchmark ~scheme:p.Engine.scheme
                ~issue:p.Engine.issue ~delay:p.Engine.delay p.Engine.run)
            points;
        problems = [];
        work = List.length points;
        dyn_insns =
          List.fold_left
            (fun a (p : Engine.sweep_point) -> a + p.Engine.run.Outcome.dyn_insns)
            0 points;
        accuracy = sweep_accuracy s points;
      }
  | Error msg ->
      {
        wall_s;
        cells = [ failed_cell "sweep" msg ];
        problems = [];
        work = 0;
        dyn_insns = 0;
        accuracy = [];
      }

(* Campaign cells as (key, Ok (tally, trials simulated by this call)). *)
let campaign_outcome ~wall_s ~problems ~accuracy results =
  let cells =
    List.map
      (fun (key, r) ->
        match r with Ok (r, _) -> campaign_cell key r | Error msg -> failed_cell (key_id key) msg)
      results
  in
  let work, dyn_insns =
    List.fold_left
      (fun (n, d) (_, r) ->
        match r with
        | Ok (r, simulated) -> (n + simulated, d + (simulated * r.Montecarlo.golden_dyn))
        | Error _ -> (n, d))
      (0, 0) results
  in
  let ok =
    List.filter_map
      (fun (k, r) -> match r with Ok (r, _) -> Some (k, r) | Error _ -> None)
      results
  in
  let accuracy = if List.length ok = List.length results then accuracy ok else [] in
  { wall_s; cells; problems; work; dyn_insns; accuracy }

(* The warm pass must simulate nothing and serve every cold tally. *)
let warm_problems cold warm =
  List.concat
    (List.map2
       (fun (key, c) (_, w) ->
         let id = key_id key in
         match (c, w) with
         | Ok (c, _), Ok (w, simulated) ->
             (if simulated <> 0 then
                [ Printf.sprintf "%s: warm pass simulated %d trials" id simulated ]
              else [])
             @
             if (campaign_cell key w).digest <> (campaign_cell key c).digest then
               [ id ^ ": warm pass differs from the cold tally" ]
             else []
         | _, Error msg -> [ id ^ ": warm pass: " ^ msg ]
         | Error _, Ok _ -> [])
       cold warm)

(* {2 Untraced runs: the library's own entry points} *)

let untraced_sweep env st _rows =
  let s = env.scale in
  let points, wall_s =
    time (fun () ->
        protect (fun () ->
            Engine.sweep st.engine ~size:s.sweep_size ~benchmarks:s.benchmarks
              ~issues:s.issues ~delays:s.delays ()))
  in
  sweep_outcome s ~wall_s points

(* The Fig. 9 ROLLBACK column: Engine.campaign on the recovering
   interpreter, unstored. The coverage workload runs it first, while
   the engine's caches are still empty: run after the stored pass, its
   checkpoint garbage grows the heap in proportion to the replay
   snapshots and compiled programs the caches then hold, and the
   workload's peak RSS doubles (1.3 GiB instead of 0.6 GiB). *)
let untraced_rollback env st =
  List.map
    (fun key ->
      ( key,
        Result.map
          (fun r -> (r, r.Montecarlo.trials))
          (protect (fun () ->
               Engine.campaign st.engine ~seed:env.seed ~fuel_factor ~model
                 ~trials:env.scale.rb_trials key)) ))
    (rollback_keys env.scale)

let untraced_coverage env st _rows =
  let s = env.scale in
  let pass () =
    let store = Option.get st.store in
    List.map
      (fun key ->
        ( key,
          Result.map
            (fun (sc : Engine.stored_campaign) -> (sc.Engine.result, sc.Engine.simulated))
            (protect (fun () ->
                 Engine.campaign_stored st.engine ~seed:env.seed ~fuel_factor ~model ~store
                   ~trials:s.cov_trials key)) ))
      (coverage_keys s)
  in
  let (rollback, cold, warm), wall_s =
    time (fun () ->
        open_store st;
        let rollback = untraced_rollback env st in
        let cold = pass () in
        (rollback, cold, pass ()))
  in
  campaign_outcome ~wall_s ~problems:(warm_problems cold warm) ~accuracy:(coverage_accuracy s)
    (rollback @ cold)

(* {2 Traced runs: each layer's public function, timed from outside} *)

(* A Cache.compile miss, split into the workload program build and the
   pipeline proper. Cache.compile builds the program itself, so the build
   is measured by a probe Workload.build of the same program beside the
   call (also reported as trace.probe_s), and pipeline.busy_s is the
   call's time minus the probe. Each traced repetition compiles every
   key once on a fresh engine, so every call is a miss; run_rep checks
   this against Cache.stats. *)
let traced_compile cache (key : Cache.key) =
  let build_s =
    match Registry.find key.Cache.workload with
    | Some wl -> snd (time (fun () -> ignore (wl.Workload.build key.Cache.size)))
    | None -> 0.0
  in
  let (_ : Casted_detect.Pipeline.compiled), compile_s = time (fun () -> Cache.compile cache key) in
  [
    ("workloads.busy_s", build_s);
    ("pipeline.busy_s", compile_s -. build_s);
    ("trace.probe_s", build_s);
  ]

(* The traced sweep point: the work of Engine.sweep's per-point task,
   one layer at a time. *)
let traced_sweep env st rows =
  let s = env.scale in
  let cache = Engine.cache st.engine and pool = Engine.pool st.engine in
  let point ((key : Cache.key), record_delay) =
    let compile_rows = traced_compile cache key in
    let d, td = time (fun () -> Cache.decoded cache key) in
    let run, tg = time (fun () -> Simulator.run_decoded d) in
    ( {
        Engine.benchmark = key.Cache.workload;
        scheme = key.Cache.scheme;
        issue = key.Cache.issue_width;
        delay = record_delay;
        run;
      },
      compile_rows @ [ ("decode.busy_s", td); ("golden.busy_s", tg) ] )
  in
  let results, wall_s =
    time (fun () ->
        Pool.map pool
          (fun spec -> protect (fun () -> point spec))
          (Array.of_list (sweep_specs s)))
  in
  let points =
    Array.fold_right
      (fun r acc ->
        match (r, acc) with
        | Ok ((p : Engine.sweep_point), timings), Ok ps -> (
            Rows.adds rows timings;
            Rows.add rows "workloads.calls" 1.0;
            Rows.add rows "pipeline.calls" 1.0;
            Rows.add rows "decode.calls" 1.0;
            Rows.add rows "golden.dyn_insns" (float_of_int p.Engine.run.Outcome.dyn_insns);
            match p.Engine.run.Outcome.termination with
            | Outcome.Exit 0 -> Ok (p :: ps)
            | t ->
                Error
                  (Format.asprintf "%s: %a"
                     (cell_id p.Engine.benchmark p.Engine.scheme p.Engine.issue p.Engine.delay)
                     Outcome.pp_termination t))
        | Error msg, _ | _, Error msg -> Error msg)
      results (Ok [])
  in
  sweep_outcome s ~wall_s points

(* One faulty trial: Montecarlo.trial_compiled's steps, spelled out so
   each can be timed. The restore is measured by restoring the chosen
   snapshot once more beside the run (the run restores it again
   internally); that probe is reported as trace.probe_s and the suffix
   as the replayed run's time minus the measured restore. A recovering
   trial (the ROLLBACK column) is one rollback.busy_s span, draw and
   classification included: its Simulator.run_recovering is three
   orders of magnitude longer than either. *)
type trial_out = {
  cls : Montecarlo.classification;
  suffix : float;  (** executed fraction of the golden run *)
  replayed : bool;
  run_dyn : int;
  retries : int;
  timings : (string * float) list;
}

type path = Compiled of Casted_sim.Compile.t | Recovering of int

let traced_trial path ~(g : Montecarlo.golden) ~seed ~index (d : Decode.t) =
  let t0 = now () in
  let rng = Rng.create ~seed:(Rng.derive ~seed index) in
  let fault = Fault.random model rng ~population:g.Montecarlo.pop in
  let snap =
    match (path, g.Montecarlo.replay) with
    | Compiled _, Some r -> Replay.find r fault
    | _ -> None
  in
  let draw_s = now () -. t0 in
  let probe_s =
    match snap with
    | Some sn ->
        let cache = d.Decode.config.Casted_machine.Config.cache in
        snd (time (fun () -> ignore (State.restore ~cache sn)))
    | None -> 0.0
  in
  let fuel = g.Montecarlo.fuel in
  let res, run_s =
    time (fun () ->
        try
          Ok
            (match (path, snap) with
            | Recovering retry_budget, _ -> Simulator.run_recovering ~fault ~fuel ~retry_budget d
            | Compiled p, Some snapshot -> Simulator.run_compiled_replayed ~fault ~fuel ~snapshot p
            | Compiled p, None -> Simulator.run_compiled ~fault ~fuel p)
        with e -> Error e)
  in
  let cls, classify_s = time (fun () -> Montecarlo.classify_result ~golden:g.Montecarlo.run res) in
  let run_dyn, retries =
    match res with
    | Ok r ->
        ( r.Outcome.dyn_insns,
          match r.Outcome.termination with Outcome.Recovered { retries; _ } -> retries | _ -> 0 )
    | Error _ -> (0, 0)
  in
  let timings =
    match path with
    | Recovering _ -> [ ("rollback.busy_s", draw_s +. run_s +. classify_s) ]
    | Compiled _ ->
        [
          ("trial.draw_s", draw_s);
          ("trial.restore_s", probe_s);
          ("trial.suffix_s", run_s -. probe_s);
          ("trial.classify_s", classify_s);
          ("trace.probe_s", probe_s);
        ]
  in
  {
    cls;
    suffix =
      (match (snap, g.Montecarlo.replay) with
      | Some sn, Some r -> Replay.suffix_fraction r sn
      | _ -> 1.0);
    replayed = snap <> None;
    run_dyn;
    retries;
    timings;
  }

let trial_rows rows path ~scheme (outs : trial_out array) =
  Array.iter
    (fun o ->
      Rows.adds rows o.timings;
      match path with
      | Recovering _ ->
          Rows.add rows "rollback.retries" (float_of_int o.retries);
          Rows.add rows "rollback.run_dyn" (float_of_int o.run_dyn)
      | Compiled _ ->
          let own =
            List.fold_left
              (fun a (n, v) -> if n = "trace.probe_s" then a else a +. v)
              0.0 o.timings
          in
          Rows.add rows "trial.busy_s" own;
          Rows.add rows (Printf.sprintf "trial.%s.busy_s" (Scheme.name scheme)) own;
          Rows.add rows "trial.count" 1.0;
          Rows.add rows "trial.suffix_sum" o.suffix;
          Rows.add rows "trial.replayed" (if o.replayed then 1.0 else 0.0))
    outs

(* Trials advance in Montecarlo's 64-trial chunks, one Pool.map each,
   as Montecarlo.run_decoded schedules them. *)
let traced_trials path pool ~(g : Montecarlo.golden) ~seed ~trials d =
  (* A model with no injection sites runs no trials, as in Montecarlo. *)
  let trials = if Fault.population_size model g.Montecarlo.pop = 0 then 0 else trials in
  let rec go lo acc =
    if lo >= trials then Array.concat (List.rev acc)
    else
      let hi = min trials (lo + Montecarlo.chunk_trials) in
      let outs =
        Pool.map pool
          (fun index -> traced_trial path ~g ~seed ~index d)
          (Array.init (hi - lo) (fun i -> lo + i))
      in
      go hi (outs :: acc)
  in
  go 0 []

let timed_in_pool pool rows name f =
  let r, dt = in_pool pool (fun () -> time f) in
  Rows.add rows name dt;
  r

(* A Cache.compile + Cache.decoded pair, each timed as its layer. *)
let traced_decoded pool rows cache key =
  Rows.adds rows (in_pool pool (fun () -> traced_compile cache key));
  Rows.add rows "workloads.calls" 1.0;
  Rows.add rows "pipeline.calls" 1.0;
  let d = timed_in_pool pool rows "decode.busy_s" (fun () -> Cache.decoded cache key) in
  Rows.add rows "decode.calls" 1.0;
  d

let tally_of outs ~g = Montecarlo.tally ~model ~golden:g (Array.map (fun o -> o.cls) outs)

(* The traced ROLLBACK cell: Engine.campaign's recovering path. The
   extra fault-free Simulator.run_recovering per cell is a probe: its
   time minus the golden Simulator.run_decoded time is the cell's
   checkpointing cost. *)
let traced_rollback_cell env st rows key =
  let cache = Engine.cache st.engine and pool = Engine.pool st.engine in
  let d = traced_decoded pool rows cache key in
  let g, golden_s =
    in_pool pool (fun () -> time (fun () -> Montecarlo.golden_decoded ~fuel_factor d))
  in
  Rows.add rows "golden.busy_s" golden_s;
  Rows.add rows "golden.dyn_insns" (float_of_int g.Montecarlo.run.Outcome.dyn_insns);
  let retry_budget = Engine.default_retry_budget in
  let (_ : Outcome.run), probe_s =
    in_pool pool (fun () -> time (fun () -> Simulator.run_recovering ~retry_budget d))
  in
  Rows.add rows "trace.probe_s" probe_s;
  Rows.add rows "rollback.checkpoint_s" (probe_s -. golden_s);
  let path = Recovering retry_budget in
  let outs = traced_trials path pool ~g ~seed:env.seed ~trials:env.scale.rb_trials d in
  trial_rows rows path ~scheme:key.Cache.scheme outs;
  Rows.add rows "rollback.golden_dyn"
    (float_of_int (Array.length outs * g.Montecarlo.run.Outcome.dyn_insns));
  tally_of outs ~g

(* The traced cold cell: Engine.campaign_stored's miss path over a
   fresh store, one layer at a time. *)
let traced_coverage env st rows =
  let s = env.scale in
  let cache = Engine.cache st.engine and pool = Engine.pool st.engine in
  let store () = Option.get st.store in
  let skey key =
    Store.key ~retry_budget:(-1) ~identity:(Engine.campaign_identity key model)
      ~seed:env.seed ~fuel_factor ~trials:s.cov_trials ()
  in
  let find key = timed_in_pool pool rows "store.busy_s" (fun () -> Store.find (store ()) (skey key)) in
  let of_entry (e : Store.entry) =
    Montecarlo.of_counts ~model ~golden_cycles:e.Store.golden_cycles
      ~golden_dyn:e.Store.golden_dyn ~population:e.Store.population e.Store.counts
  in
  let simulate key =
    let d = traced_decoded pool rows cache key in
    let replay = timed_in_pool pool rows "replay.busy_s" (fun () -> Cache.replay cache key) in
    Rows.add rows "replay.snapshots" (float_of_int (Replay.count replay));
    Rows.add rows "replay.snapshot_bytes" (float_of_int (Replay.total_bytes replay));
    let compiled = timed_in_pool pool rows "compile.busy_s" (fun () -> Cache.compiled cache key) in
    Rows.add rows "compile.calls" 1.0;
    let g = Montecarlo.golden_decoded ~fuel_factor ~replay_set:replay d in
    let path = Compiled compiled in
    let outs = traced_trials path pool ~g ~seed:env.seed ~trials:s.cov_trials d in
    trial_rows rows path ~scheme:key.Cache.scheme outs;
    let r = tally_of outs ~g in
    let e =
      {
        Store.key = skey key;
        trials_done = r.Montecarlo.trials;
        counts = Montecarlo.counts r;
        golden_cycles = r.Montecarlo.golden_cycles;
        golden_dyn = r.Montecarlo.golden_dyn;
        population = r.Montecarlo.population;
        model = Fault.model_name model;
        spec =
          Some
            {
              Store.workload = key.Cache.workload;
              size = Workload.size_name key.Cache.size;
              scheme = Scheme.name key.Cache.scheme;
              issue = key.Cache.issue_width;
              delay = key.Cache.delay;
              model = Fault.model_name model;
            };
      }
    in
    timed_in_pool pool rows "store.busy_s" (fun () -> Store.put (store ()) e);
    r
  in
  let cold key =
    match find key with
    | Ok (Some e) when e.Store.trials_done = s.cov_trials ->
        Rows.add rows "store.served_trials" (float_of_int e.Store.trials_done);
        Ok (of_entry e, 0)
    | Ok _ -> protect (fun () -> let r = simulate key in (r, r.Montecarlo.trials))
    | Error msg -> Error msg
  in
  let warm key =
    match timed_in_pool pool rows "store.warm_s" (fun () -> Store.find (store ()) (skey key)) with
    | Ok (Some e) when e.Store.trials_done = s.cov_trials ->
        Rows.add rows "store.served_trials" (float_of_int e.Store.trials_done);
        Ok (of_entry e, 0)
    | Ok _ -> Error "no full entry"
    | Error msg -> Error msg
  in
  let rollback key =
    protect (fun () ->
        let r = traced_rollback_cell env st rows key in
        (r, r.Montecarlo.trials))
  in
  let keys = coverage_keys s in
  let (rollback, cold, warm), wall_s =
    time (fun () ->
        timed_in_pool pool rows "store.busy_s" (fun () -> open_store st);
        let rollback = List.map (fun k -> (k, rollback k)) (rollback_keys s) in
        let cold = List.map (fun k -> (k, cold k)) keys in
        (rollback, cold, List.map (fun k -> (k, warm k)) keys))
  in
  campaign_outcome ~wall_s ~problems:(warm_problems cold warm) ~accuracy:(coverage_accuracy s)
    (rollback @ cold)

(* {2 Running a repetition} *)

let untraced = function Sweep -> untraced_sweep | Coverage -> untraced_coverage
let traced = function Sweep -> traced_sweep | Coverage -> traced_coverage

(* The rows that partition pool.busy_s, with unattributed_s. *)
let leaf_rows =
  [
    "workloads.busy_s"; "pipeline.busy_s"; "decode.busy_s"; "golden.busy_s"; "replay.busy_s";
    "compile.busy_s"; "trial.draw_s"; "trial.restore_s"; "trial.suffix_s";
    "trial.classify_s"; "rollback.busy_s"; "store.busy_s"; "store.warm_s";
    "trace.probe_s";
  ]

(* Fold the raw accumulators of a traced repetition into the reported
   per-layer rows, wall-share normalised (see the header comment). *)
let finish_rows env st rows ~wall_s ~pool_busy =
  let jobs = float_of_int env.jobs in
  let share name = Rows.get rows name /. jobs in
  let cs = Cache.stats (Engine.cache st.engine) in
  let trials = Rows.get rows "trial.count" in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let busy = pool_busy /. jobs in
  let leaf =
    List.map (fun n -> (n, share n)) leaf_rows
  in
  let unattributed = busy -. List.fold_left (fun a (_, v) -> a +. v) 0.0 leaf in
  let store_stats = Option.map Store.stats st.store in
  leaf
  @ [
      ("workloads.calls", Rows.get rows "workloads.calls");
      ("pipeline.calls", Rows.get rows "pipeline.calls");
      ("decode.calls", Rows.get rows "decode.calls");
      ("golden.dyn_insns", Rows.get rows "golden.dyn_insns");
      ("replay.snapshots", Rows.get rows "replay.snapshots");
      ("replay.snapshot_bytes", Rows.get rows "replay.snapshot_bytes");
      ("compile.calls", Rows.get rows "compile.calls");
      ("trial.busy_s", share "trial.busy_s");
      ("trial.count", trials);
      ("trial.mean_suffix", ratio (Rows.get rows "trial.suffix_sum") trials);
      ("trial.replayed_fraction", ratio (Rows.get rows "trial.replayed") trials);
    ]
  @ List.map
      (fun sc ->
        let n = Printf.sprintf "trial.%s.busy_s" (Scheme.name sc) in
        (n, share n))
      coverage_schemes
  @ [
      ("rollback.retries", Rows.get rows "rollback.retries");
      ( "rollback.reexec_ratio",
        ratio (Rows.get rows "rollback.run_dyn") (Rows.get rows "rollback.golden_dyn") );
      ("rollback.checkpoint_s", Rows.get rows "rollback.checkpoint_s");
      ("engine.cache.compile_hits", float_of_int cs.Cache.hits);
      ("engine.cache.compile_misses", float_of_int cs.Cache.misses);
      ("engine.cache.decoded_hits", float_of_int cs.Cache.decoded_hits);
      ("engine.cache.decoded_misses", float_of_int cs.Cache.decoded_misses);
      ("engine.cache.replay_hits", float_of_int cs.Cache.replay_hits);
      ("engine.cache.replay_misses", float_of_int cs.Cache.replay_misses);
      ("engine.cache.compiled_hits", float_of_int cs.Cache.compiled_hits);
      ("engine.cache.compiled_misses", float_of_int cs.Cache.compiled_misses);
      ("store.served_trials", Rows.get rows "store.served_trials");
      ( "store.bytes_written",
        match store_stats with Some s -> float_of_int s.Store.bytes_written | None -> 0.0 );
      ("pool.busy_s", busy);
      ("pool.idle_s", wall_s -. busy);
      ("pool.utilisation", ratio busy wall_s);
      ("trace.wall_s", wall_s);
      ("unattributed_s", unattributed);
    ]

(* {2 Resident memory} *)

(* Peak resident set of this process, in MiB (VmHWM), and a reset of
   that mark so each repetition reports its own peak. The process's
   lifetime mark would instead grow with the number of repetitions a
   run fits in, as the runtime keeps heap it has grown. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | text ->
      List.find_map
        (fun line ->
          Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
        (String.split_on_char '\n' text)
      |> Option.value ~default:0.0
  | exception Sys_error _ -> 0.0

let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

type rep = {
  setup_s : float;
  out : outcome;
  trace : bool;
  rss_mb : float;
  layers : (string * float) list;  (** reported rows; [] when untraced *)
}

let run_rep env w ~trace =
  reset_peak_rss ();
  let rows = Rows.create () in
  let st, setup_s = time (fun () -> make_setup env w) in
  Fun.protect
    ~finally:(fun () -> teardown st)
    (fun () ->
      let pool = Engine.pool st.engine in
      let busy0 = (Pool.stats pool).Pool.busy_s in
      let out = (if trace then traced w else untraced w) env st rows in
      let pool_busy = (Pool.stats pool).Pool.busy_s -. busy0 in
      let layers =
        if trace then finish_rows env st rows ~wall_s:out.wall_s ~pool_busy else []
      in
      let misses = (Cache.stats (Engine.cache st.engine)).Cache.misses in
      let calls = int_of_float (Rows.get rows "pipeline.calls") in
      let out =
        if trace && misses <> calls then
          {
            out with
            problems =
              Printf.sprintf "traced run made %d Cache.compile calls but %d misses" calls misses
              :: out.problems;
          }
        else out
      in
      { setup_s; out; trace; rss_mb = peak_rss_mb (); layers })

(* {2 Metrics} *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let layer_unit name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_s" then "s"
  else if ends "bytes" || ends "bytes_written" then "bytes"
  else if ends "dyn_insns" then "insns"
  else if ends "suffix" || ends "fraction" || ends "ratio" || ends "utilisation" then "ratio"
  else "count"

(* The end-to-end metrics, medians over the untraced repetitions
   (setup_s over every set-up the run made), as (name, value, unit). *)
let end_to_end ~setups reps =
  let untraced = List.filter (fun rep -> not rep.trace) reps in
  let med f = median (List.map f untraced) in
  [
    ("wall_s", med (fun rep -> rep.out.wall_s), "s");
    ("setup_s", median setups, "s");
    ("work_per_s", med (fun rep -> float_of_int rep.out.work /. rep.out.wall_s), "1/s");
    ("dyn_insns_per_s", med (fun rep -> float_of_int rep.out.dyn_insns /. rep.out.wall_s), "insns/s");
    ("peak_rss_mb", med (fun rep -> rep.rss_mb), "MiB");
  ]

(* The per-layer rows of the traced repetition with the median wall
   time (so they still sum to its own wall), plus the tracing
   overhead: median traced minus median untraced wall. *)
let per_layer reps =
  let traced, untraced = List.partition (fun rep -> rep.trace) reps in
  let wall l = median (List.map (fun rep -> rep.out.wall_s) l) in
  let sorted = List.sort (fun x y -> compare x.out.wall_s y.out.wall_s) traced in
  let mid = List.nth sorted ((List.length sorted - 1) / 2) in
  List.map (fun (n, v) -> (n, v, layer_unit n)) mid.layers
  @ [ ("trace.overhead_s", wall traced -. wall untraced, "s") ]

let valid_metric_name n =
  String.length n >= 1
  && String.length n <= 64
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       n
  && match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false
