module Pool = Casted_exec.Pool
module Workload = Casted_workloads.Workload
module Registry = Casted_workloads.Registry
module Scheme = Casted_detect.Scheme
module Pipeline = Casted_detect.Pipeline
module Simulator = Casted_sim.Simulator
module Outcome = Casted_sim.Outcome
module Montecarlo = Casted_sim.Montecarlo

type store_counters = {
  full_hits : int;
  partial_hits : int;
  store_misses : int;
  store_writes : int;
  trials_served : int;
  trials_simulated : int;
}

let zero_store_counters =
  {
    full_hits = 0;
    partial_hits = 0;
    store_misses = 0;
    store_writes = 0;
    trials_served = 0;
    trials_simulated = 0;
  }

type t = {
  pool : Pool.t;
  cache : Cache.t;
  mutex : Mutex.t;
  mutable store_counts : store_counters;
}

let create ?jobs () =
  let jobs =
    match jobs with
    | Some n -> n
    | None -> (
        match Pool.default_jobs () with
        | Ok n -> n
        | Error msg -> invalid_arg ("Engine.create: " ^ msg))
  in
  {
    pool = Pool.create ~jobs ();
    cache = Cache.create ();
    mutex = Mutex.create ();
    store_counts = zero_store_counters;
  }

let jobs t = Pool.jobs t.pool
let pool t = t.pool
let cache t = t.cache
let shutdown t = Pool.shutdown t.pool

let with_engine ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let span name f = Casted_obs.Trace.with_span ~cat:"engine" name f

type sweep_point = {
  benchmark : string;
  scheme : Scheme.t;
  issue : int;
  delay : int;
  run : Outcome.run;
}

let compile t key =
  span "engine.compile" (fun () -> Cache.compile t.cache key)

let simulate t key =
  let compiled = compile t key in
  let decoded = Cache.decoded t.cache key in
  let run =
    span "engine.simulate" (fun () -> Simulator.run_decoded decoded)
  in
  (compiled, run)

(* Rollback campaigns run every trial with region recovery under this
   retry budget (a fault that keeps re-failing after this many
   restores reports its original failure). *)
let default_retry_budget = 3

(* Resolve the per-scheme recovery default: an explicit budget always
   wins, a Rollback spec gets the engine default, everything else runs
   without a recovery loop. *)
let resolve_retry_budget key = function
  | Some _ as b -> b
  | None ->
      if key.Cache.scheme = Scheme.Rollback then Some default_retry_budget
      else None

let campaign_identity key model =
  Printf.sprintf "%s/%s" (Cache.identity key)
    (Casted_sim.Fault.model_name model)

type stored_campaign = {
  result : Montecarlo.result;
  simulated : int;
  served : int;
}

let bump_store t f =
  Mutex.lock t.mutex;
  t.store_counts <- f t.store_counts;
  Mutex.unlock t.mutex

module Store = Casted_store.Store

(* A store entry only round-trips into a campaign spec when the key has
   nothing beyond the explicit coordinates (default pass options) —
   exactly the keys the CLI builds. Anything else persists fine but
   cannot be audited or re-enqueued from the entry alone. *)
let spec_of_key (key : Cache.key) model =
  if
    key.Cache.options = Casted_detect.Options.default
    && key.Cache.bug_options = None
    && not key.Cache.optimize
  then
    Some
      {
        Store.workload = key.Cache.workload;
        size = Workload.size_name key.Cache.size;
        scheme = Scheme.name key.Cache.scheme;
        issue = key.Cache.issue_width;
        delay = key.Cache.delay;
        model = Casted_sim.Fault.model_name model;
      }
  else None

let key_of_spec (spec : Store.spec) =
  match
    ( Registry.find spec.Store.workload,
      Workload.size_of_name spec.Store.size,
      Scheme.of_string spec.Store.scheme,
      Casted_sim.Fault.model_of_string spec.Store.model )
  with
  | Some _, Some size, Some scheme, Some model ->
      Some
        ( Cache.key ~workload:spec.Store.workload ~size ~scheme
            ~issue_width:spec.Store.issue ~delay:spec.Store.delay (),
          model )
  | _ -> None

let result_of_entry ~model (e : Store.entry) =
  let name = Casted_sim.Fault.model_name model in
  if not (String.equal e.Store.model name) then
    invalid_arg
      (Printf.sprintf
         "Engine.campaign: store entry for %S was tallied under fault model \
          %s, not %s — corrupt store"
         (Store.address e.Store.key) e.Store.model name);
  Montecarlo.of_counts ~model ~golden_cycles:e.Store.golden_cycles
    ~golden_dyn:e.Store.golden_dyn ~population:e.Store.population
    e.Store.counts

let entry_of_result ~spec (skey : Store.key) (r : Montecarlo.result) =
  {
    Store.key = skey;
    trials_done = r.Montecarlo.trials;
    counts = Montecarlo.counts r;
    golden_cycles = r.Montecarlo.golden_cycles;
    golden_dyn = r.Montecarlo.golden_dyn;
    population = r.Montecarlo.population;
    model = Casted_sim.Fault.model_name r.Montecarlo.model;
    spec;
  }

(* A resumed or re-simulated cell must agree with the banked entry
   about its golden run: a mismatch means the identity tuple no longer
   pins the simulation (a silent simulator change, or a corrupt store)
   and merging the tallies would be meaningless. *)
let check_golden_agreement ~what (e : Store.entry) (r : Montecarlo.result) =
  if
    e.Store.golden_cycles <> r.Montecarlo.golden_cycles
    || e.Store.golden_dyn <> r.Montecarlo.golden_dyn
    || e.Store.population <> r.Montecarlo.population
  then
    invalid_arg
      (Printf.sprintf
         "Engine.campaign: %s: store entry %S banked a golden run of \
          %d cycles / %d insns / population %d but this build simulates \
          %d / %d / %d — the identity no longer pins the simulation; \
          refusing to merge (run `casted store audit`)"
         what
         (Store.address e.Store.key)
         e.Store.golden_cycles e.Store.golden_dyn e.Store.population
         r.Montecarlo.golden_cycles r.Montecarlo.golden_dyn
         r.Montecarlo.population)

let store_fail msg = invalid_arg ("Engine.campaign: result store: " ^ msg)
let store_get = function Ok v -> v | Error msg -> store_fail msg

let campaign_stored t ?(seed = 0xCA57ED) ?(fuel_factor = 10)
    ?(model = Casted_sim.Fault.Reg_bit) ?ci_halfwidth ?retry_budget ?store
    ~trials key =
  let retry_budget = resolve_retry_budget key retry_budget in
  (* Compile (cached) under the compile span, then hand the memoized
     stage-2 program — and, for a replaying campaign, the memoized
     golden-run snapshot set — to the campaign: thousands of trials,
     one decode, one stage-2 compile, one capture, shared read-only
     across pool domains and across campaigns revisiting this
     configuration. Montecarlo decides whether the campaign replays
     (it does unless it has a retry budget), so the snapshot set is
     handed over unforced. The store's full-hit path never gets here:
     a banked tally costs no compile, no decode, no golden run. *)
  let simulate ?prior ?bank () =
    let (_ : Pipeline.compiled) = compile t key in
    let compiled = Cache.compiled t.cache key in
    span "engine.campaign" (fun () ->
        Montecarlo.run_compiled ~pool:t.pool ~seed ~fuel_factor ~model
          ?ci_halfwidth ~replay_set:(lazy (Cache.replay t.cache key))
          ?retry_budget ?prior ?bank ~trials compiled)
  in
  match store with
  | None ->
      let result = simulate () in
      { result; simulated = result.Montecarlo.trials; served = 0 }
  | Some s ->
      let skey =
        Store.key ?retry_budget ~identity:(campaign_identity key model) ~seed
          ~fuel_factor ~trials ()
      in
      let skey =
        match ci_halfwidth with
        | Some w -> Store.early_stop ~ci_halfwidth:w skey
        | None -> skey
      in
      let spec = spec_of_key key model in
      let put r =
        Store.put s (entry_of_result ~spec skey r);
        bump_store t (fun c -> { c with store_writes = c.store_writes + 1 })
      in
      (* Bank the running tally after every finished 64-trial chunk, so
         a killed campaign's finished chunks survive and a rerun resumes
         after the last of them. *)
      let bank ~next:_ r = put r in
      let full_hit (e : Store.entry) =
        bump_store t (fun c ->
            {
              c with
              full_hits = c.full_hits + 1;
              trials_served = c.trials_served + e.Store.trials_done;
            });
        Casted_obs.Metrics.incr "engine.store.full_hits";
        {
          result = result_of_entry ~model e;
          simulated = 0;
          served = e.Store.trials_done;
        }
      in
      let miss ?bank () =
        let result = simulate ?bank () in
        bump_store t (fun c ->
            {
              c with
              store_misses = c.store_misses + 1;
              trials_simulated = c.trials_simulated + result.Montecarlo.trials;
            });
        Casted_obs.Metrics.incr "engine.store.misses";
        result
      in
      (* Incremental fill or crash resume: continue from the banked
         tally, then extend the entry. *)
      let resume (e : Store.entry) =
        let result =
          simulate ~prior:(e.Store.trials_done, e.Store.counts) ~bank ()
        in
        check_golden_agreement ~what:"incremental resume" e result;
        put result;
        let simulated = result.Montecarlo.trials - e.Store.trials_done in
        bump_store t (fun c ->
            {
              c with
              partial_hits = c.partial_hits + 1;
              trials_served = c.trials_served + e.Store.trials_done;
              trials_simulated = c.trials_simulated + simulated;
            });
        Casted_obs.Metrics.incr "engine.store.partial_hits";
        { result; simulated; served = e.Store.trials_done }
      in
      (* An early-stop cell is finished once its banked tally already
         satisfies the stop rule: the campaign checked it at every
         chunk boundary, so that is exactly where it stopped. *)
      let finished (e : Store.entry) =
        e.Store.trials_done = trials
        ||
        match ci_halfwidth with
        | Some w ->
            Montecarlo.early_stop_reached ~ci_halfwidth:w
              (result_of_entry ~model e)
        | None -> false
      in
      match store_get (Store.find s skey) with
      | Some e when finished e -> full_hit e
      | Some e when e.Store.trials_done < trials -> resume e
      | Some e ->
          (* The banked tally covers MORE trials than requested; the
             first [trials] of it cannot be recovered from counts.
             Simulate the request fresh and leave the richer entry alone
             (no banking either). *)
          let result = miss () in
          check_golden_agreement ~what:"oversized entry" e result;
          { result; simulated = result.Montecarlo.trials; served = 0 }
      | None ->
          let result = miss ~bank () in
          put result;
          { result; simulated = result.Montecarlo.trials; served = 0 }

let campaign t ?seed ?fuel_factor ?model ?ci_halfwidth ?retry_budget ?store
    ~trials key =
  (campaign_stored t ?seed ?fuel_factor ?model ?ci_halfwidth ?retry_budget
     ?store ~trials key)
    .result

(* One grid cell: NOED/SCED are single-core, so they are measured once
   per issue width (compiled at delay 1, recorded as delay 0, like the
   paper's figures); DCED/CASTED vary over the delay axis. *)
let sweep_specs ~size ~benchmarks ~issues ~delays =
  List.concat_map
    (fun benchmark ->
      (match Registry.find benchmark with
      | Some _ -> ()
      | None -> invalid_arg ("Engine.sweep: unknown benchmark " ^ benchmark));
      List.concat_map
        (fun issue ->
          let spec scheme ~compile_delay ~record_delay =
            ( Cache.key ~workload:benchmark ~size ~scheme ~issue_width:issue
                ~delay:compile_delay (),
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
               delays)
        issues)
    benchmarks

let sweep t ~size ?benchmarks ?(issues = [ 1; 2; 3; 4 ])
    ?(delays = [ 1; 2; 3; 4 ]) () =
  let benchmarks =
    match benchmarks with Some b -> b | None -> Registry.names ()
  in
  let specs =
    Array.of_list (sweep_specs ~size ~benchmarks ~issues ~delays)
  in
  span "engine.sweep" (fun () ->
      Array.to_list
        (Pool.map t.pool
           (fun ((key : Cache.key), record_delay) ->
             let run = Simulator.run_decoded (Cache.decoded t.cache key) in
             (match run.Outcome.termination with
             | Outcome.Exit 0 -> ()
             | term ->
                 invalid_arg
                   (Format.asprintf "Engine.sweep: %a: %a" Cache.pp_key key
                      Outcome.pp_termination term));
             {
               benchmark = key.Cache.workload;
               scheme = key.Cache.scheme;
               issue = key.Cache.issue_width;
               delay = record_delay;
               run;
             })
           specs))

let store_counters t =
  Mutex.lock t.mutex;
  let c = t.store_counts in
  Mutex.unlock t.mutex;
  c
