(* The experiment engine: domain pool, schedule cache, deterministic
   parallel campaigns. *)

open Helpers
module Pool = Casted_exec.Pool
module Engine = Casted_engine.Engine
module Cache = Casted_engine.Cache
module Montecarlo = Casted_sim.Montecarlo
module Workload = Casted_workloads.Workload

let spec =
  Cache.key ~workload:"cjpeg" ~size:Workload.Fault ~scheme:Scheme.Casted
    ~issue_width:2 ~delay:2 ()

let check_result = Alcotest.(check int)

let same_result msg (a : Montecarlo.result) (b : Montecarlo.result) =
  check_result (msg ^ ": trials") a.Montecarlo.trials b.Montecarlo.trials;
  check_result (msg ^ ": benign") a.Montecarlo.benign b.Montecarlo.benign;
  check_result (msg ^ ": detected") a.Montecarlo.detected b.Montecarlo.detected;
  check_result (msg ^ ": exceptions") a.Montecarlo.exceptions
    b.Montecarlo.exceptions;
  check_result (msg ^ ": corrupt") a.Montecarlo.corrupt b.Montecarlo.corrupt;
  check_result (msg ^ ": timeouts") a.Montecarlo.timeouts b.Montecarlo.timeouts;
  check_result (msg ^ ": golden_cycles") a.Montecarlo.golden_cycles
    b.Montecarlo.golden_cycles;
  check_result (msg ^ ": golden_dyn") a.Montecarlo.golden_dyn
    b.Montecarlo.golden_dyn;
  check_result (msg ^ ": population") a.Montecarlo.population
    b.Montecarlo.population;
  Alcotest.(check bool) (msg ^ ": model") true
    (a.Montecarlo.model = b.Montecarlo.model)

(* (a) A parallel campaign is bit-identical to the jobs=1 campaign and
   to the plain sequential Montecarlo.run, for the same seed. *)
let test_campaign_deterministic () =
  let trials = 60 and seed = 42 in
  let sequential =
    Engine.with_engine ~jobs:1 (fun e ->
        Engine.campaign e ~seed ~trials spec)
  in
  let parallel =
    Engine.with_engine ~jobs:4 (fun e ->
        Engine.campaign e ~seed ~trials spec)
  in
  same_result "jobs=4 vs jobs=1" parallel sequential;
  let direct =
    Engine.with_engine ~jobs:1 (fun e ->
        Montecarlo.run ~seed ~trials (Engine.compile e spec).Pipeline.schedule)
  in
  same_result "engine vs Montecarlo.run" parallel direct

(* Different seeds should not collapse onto the same trial stream. *)
let test_campaign_seed_sensitivity () =
  Engine.with_engine ~jobs:2 (fun e ->
      let a = Engine.campaign e ~seed:1 ~trials:80 spec in
      let b = Engine.campaign e ~seed:2 ~trials:80 spec in
      if
        a.Montecarlo.benign = b.Montecarlo.benign
        && a.Montecarlo.detected = b.Montecarlo.detected
        && a.Montecarlo.exceptions = b.Montecarlo.exceptions
        && a.Montecarlo.timeouts = b.Montecarlo.timeouts
      then
        Alcotest.fail "seeds 1 and 2 produced identical campaign breakdowns")

(* (b) The schedule cache returns the physically equal compile for a
   repeated key, and counts hits/misses. *)
let test_cache_physical_equality () =
  let cache = Cache.create () in
  let a = Cache.compile cache spec in
  let b = Cache.compile cache spec in
  Alcotest.(check bool) "same compile object" true (a == b);
  let other = { spec with Cache.issue_width = 3 } in
  let c = Cache.compile cache other in
  Alcotest.(check bool) "distinct keys distinct compiles" true (not (c == a));
  let s = Cache.stats cache in
  Alcotest.(check int) "misses" 2 s.Cache.misses;
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "entries" 2 s.Cache.entries

(* The decoded table keeps the compile's memo discipline: repeated
   lookups and pool workers see the physically equal decoded object. *)
let test_cache_decoded_physically_shared () =
  let cache = Cache.create () in
  let a = Cache.decoded cache spec in
  let b = Cache.decoded cache spec in
  Alcotest.(check bool) "same decoded object" true (a == b);
  Alcotest.(check bool) "decoded from the cached compile" true
    (a.Casted_sim.Decode.sched == (Cache.compile cache spec).Pipeline.schedule);
  let s = Cache.stats cache in
  Alcotest.(check int) "decoded misses" 1 s.Cache.decoded_misses;
  Alcotest.(check int) "decoded hits" 1 s.Cache.decoded_hits;
  Alcotest.(check int) "decoded entries" 1 s.Cache.decoded_entries;
  (* Decodes of one workload build share its pristine image (images are
     never written); a program with other data segments gets its own. *)
  let image (d : Casted_sim.Decode.t) = d.Casted_sim.Decode.image in
  let sibling = Cache.decoded cache { spec with Cache.issue_width = 3 } in
  Alcotest.(check bool) "sibling configuration shares the image" true
    (image sibling == image a);
  let dme = Cache.decoded cache { spec with Cache.scheme = Scheme.Dme } in
  Alcotest.(check bool) "DME renders its own image" false
    (image dme == image a);
  (* Pool workers resolving the same key within one campaign's engine
     must all see the same decoded program. *)
  Engine.with_engine ~jobs:4 (fun e ->
      let d0 = Cache.decoded (Engine.cache e) spec in
      let seen =
        Pool.map (Engine.pool e)
          (fun _ -> Cache.decoded (Engine.cache e) spec == d0)
          (Array.init 8 Fun.id)
      in
      Alcotest.(check bool) "shared across pool workers" true
        (Array.for_all Fun.id seen))

(* The engine shares one cache across experiments: a compile then a
   campaign on a shared configuration must not recompile it. *)
let test_engine_shares_cache () =
  Engine.with_engine ~jobs:2 (fun e ->
      let _ = Engine.compile e spec in
      let misses = (Cache.stats (Engine.cache e)).Cache.misses in
      let _ = Engine.campaign e ~trials:5 spec in
      Alcotest.(check int) "campaign reused the sweep compile" misses
        (Cache.stats (Engine.cache e)).Cache.misses)

(* The engine memoizes only the compile: a stored campaign, a sweep and
   a simulate each build their decoded program, stage-2 program and
   snapshot set for their own run and drop them, so the derived tables
   are never touched. *)
let test_engine_memoizes_only_compiles () =
  with_store (fun store ->
      Engine.with_engine ~jobs:2 (fun e ->
          let (_ : Engine.stored_campaign) =
            Engine.campaign_stored e ~store ~trials:10 spec
          in
          let (_ : Engine.sweep_point list) =
            Engine.sweep e ~size:Workload.Fault ~benchmarks:[ "cjpeg" ]
              ~issues:[ 2 ] ~delays:[ 2 ] ()
          in
          let _ = Engine.simulate e spec in
          let s = Cache.stats (Engine.cache e) in
          Alcotest.(check bool) "compile entries" true (s.Cache.entries > 0);
          Alcotest.(check (list int))
            "decoded, compiled and replay entries" [ 0; 0; 0 ]
            [ s.Cache.decoded_entries; s.Cache.compiled_entries;
              s.Cache.replay_entries ]))

(* The replay table: a capture builds the whole artifact chain once,
   and every later lookup of any table is a hit on the same value. *)
let test_cache_replay_counters () =
  let cache = Cache.create () in
  let a = Cache.replay cache spec in
  let b = Cache.replay cache spec in
  Alcotest.(check bool) "physically equal snapshot sets" true (a == b);
  ignore (Cache.compiled cache spec);
  ignore (Cache.decoded cache spec);
  ignore (Cache.compile cache spec);
  let s = Cache.stats cache in
  let table name (hits, misses, entries) =
    Alcotest.(check (list int))
      (name ^ ": hits, misses, entries") [ 1; 1; 1 ] [ hits; misses; entries ]
  in
  table "replay"
    (s.Cache.replay_hits, s.Cache.replay_misses, s.Cache.replay_entries);
  table "compiled"
    (s.Cache.compiled_hits, s.Cache.compiled_misses, s.Cache.compiled_entries);
  table "decoded"
    (s.Cache.decoded_hits, s.Cache.decoded_misses, s.Cache.decoded_entries);
  table "compile" (s.Cache.hits, s.Cache.misses, s.Cache.entries)

(* Every table under a same-key race on four domains: one physically
   equal value for every lookup, one build kept, and each losing
   racer counted as a hit. *)
let test_cache_same_key_races () =
  let lookups = 8 in
  let race name lookup counters =
    let cache = Cache.create () in
    let got =
      Pool.with_pool ~jobs:4 (fun pool ->
          Pool.map pool (fun () -> lookup cache spec) (Array.make lookups ()))
    in
    Alcotest.(check bool)
      (name ^ ": one physically equal value") true
      (Array.for_all (fun v -> v == got.(0)) got);
    let hits, misses = counters (Cache.stats cache) in
    Alcotest.(check int) (name ^ ": one miss") 1 misses;
    Alcotest.(check int) (name ^ ": hits + misses = lookups") lookups
      (hits + misses)
  in
  race "compile" Cache.compile (fun s -> (s.Cache.hits, s.Cache.misses));
  race "decoded" Cache.decoded (fun s ->
      (s.Cache.decoded_hits, s.Cache.decoded_misses));
  race "compiled" Cache.compiled (fun s ->
      (s.Cache.compiled_hits, s.Cache.compiled_misses));
  race "replay" Cache.replay (fun s ->
      (s.Cache.replay_hits, s.Cache.replay_misses))

(* (c) Pool shutdown drains cleanly: every mapped task ran exactly once,
   results are in input order, and nothing is lost across batches. *)
let test_pool_drains () =
  let pool = Pool.create ~jobs:4 () in
  let n = 200 in
  let doubled = Pool.map pool (fun i -> 2 * i) (Array.init n Fun.id) in
  Alcotest.(check int) "result count" n (Array.length doubled);
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (2 * i) v)
    doubled;
  let more = Pool.map pool String.length [| "a"; "bb"; "ccc" |] in
  Alcotest.(check (array int)) "second batch" [| 1; 2; 3 |] more;
  Pool.shutdown pool;
  let s = Pool.stats pool in
  Alcotest.(check int) "no lost or duplicated tasks" (n + 3) s.Pool.tasks;
  Pool.shutdown pool (* idempotent *)

let test_pool_rejects_use_after_shutdown () =
  let pool = Pool.create ~jobs:2 () in
  Pool.shutdown pool;
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Pool.map: pool is shut down") (fun () ->
      ignore (Pool.map pool Fun.id [| 1 |]))

let test_pool_propagates_exceptions () =
  Pool.with_pool ~jobs:3 (fun pool ->
      match
        Pool.map pool
          (fun i -> if i = 7 then failwith "boom" else i)
          (Array.init 16 Fun.id)
      with
      | _ -> Alcotest.fail "expected the task exception to re-raise"
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg)

(* Sweep points come back in grid order whatever the pool size. *)
let test_sweep_order_independent_of_jobs () =
  let sweep jobs =
    Engine.with_engine ~jobs (fun e ->
        List.map
          (fun (p : Engine.sweep_point) ->
            ( p.Engine.benchmark,
              Scheme.name p.Engine.scheme,
              p.Engine.issue,
              p.Engine.delay,
              p.Engine.run.Outcome.cycles ))
          (Engine.sweep e ~size:Workload.Fault ~benchmarks:[ "cjpeg" ]
             ~issues:[ 1; 2 ] ~delays:[ 1; 2 ] ()))
  in
  let seq = sweep 1 and par = sweep 4 in
  Alcotest.(check int) "point count" (2 * (2 + (2 * 2))) (List.length seq);
  List.iter2
    (fun (b, s, i, d, c) (b', s', i', d', c') ->
      Alcotest.(check string) "benchmark" b b';
      Alcotest.(check string) "scheme" s s';
      Alcotest.(check int) "issue" i i';
      Alcotest.(check int) "delay" d d';
      Alcotest.(check int) "cycles" c c')
    seq par

(* A compile then a campaign through one engine: the compile comes back
   physically shared from the cache and the campaign runs exactly the
   requested trials. *)
let test_job_model () =
  Engine.with_engine ~jobs:2 (fun e ->
      let c = Engine.compile e spec in
      let r = Engine.campaign e ~seed:7 ~trials:10 spec in
      Alcotest.(check bool) "compile cached" true (c == Engine.compile e spec);
      Alcotest.(check int) "campaign trials" 10 r.Montecarlo.trials)

let test_rng_derive () =
  let a = Casted_sim.Rng.derive ~seed:1 0 in
  let b = Casted_sim.Rng.derive ~seed:1 1 in
  let c = Casted_sim.Rng.derive ~seed:2 0 in
  Alcotest.(check bool) "indices differ" true (a <> b);
  Alcotest.(check bool) "seeds differ" true (a <> c);
  Alcotest.(check bool) "non-negative" true (a >= 0 && b >= 0 && c >= 0);
  Alcotest.(check int) "deterministic" a (Casted_sim.Rng.derive ~seed:1 0)

(* The per-trial seed derivation must behave like a hash: non-negative
   everywhere and collision-free across the index range a real campaign
   uses, for several campaign seeds (including adversarial ones). *)
let test_rng_derive_sweep () =
  let n = 100_000 in
  List.iter
    (fun seed ->
      let seen = Hashtbl.create (2 * n) in
      for index = 0 to n - 1 do
        let d = Casted_sim.Rng.derive ~seed index in
        if d < 0 then
          Alcotest.failf "derive ~seed:%d %d is negative (%d)" seed index d;
        match Hashtbl.find_opt seen d with
        | Some prev ->
            Alcotest.failf
              "derive ~seed:%d collides at indices %d and %d (both %d)" seed
              prev index d
        | None -> Hashtbl.add seen d index
      done)
    [ 0; 1; 42; 0xCA57ED; max_int; min_int ]

(* Parallel == sequential for every fault model, not just the default:
   each model draws a different shape from the per-trial RNG, so each
   exercises the derivation independently. *)
let test_campaign_deterministic_all_models () =
  let trials = 40 and seed = 9 in
  List.iter
    (fun model ->
      let run jobs =
        Engine.with_engine ~jobs (fun e ->
            Engine.campaign e ~seed ~model ~trials spec)
      in
      let seq = run 1 and par = run 4 in
      same_result
        (Printf.sprintf "%s: jobs=4 vs jobs=1"
           (Casted_sim.Fault.model_name model))
        par seq)
    Casted_sim.Fault.all_models

(* Golden pins for the identity strings the result store hashes into
   entry addresses. These literals are the on-disk compatibility
   contract: if one of these checks fails, the change orphans every
   persisted store entry, so it must be an explicit migration, never an
   accident. *)
let test_identity_golden_matrix () =
  let expected =
    List.concat_map
      (fun s ->
        List.map
          (fun m -> Printf.sprintf "cjpeg/fault/%s/i2/d2/%s" s m)
          [ "reg-bit"; "burst"; "mem"; "control"; "xcluster" ])
      [ "NOED"; "SCED"; "DCED"; "CASTED"; "DME"; "TMR"; "ROLLBACK" ]
  in
  let actual =
    List.concat_map
      (fun scheme ->
        List.map
          (fun model ->
            Engine.campaign_identity
              (Cache.key ~workload:"cjpeg" ~size:Workload.Fault ~scheme
                 ~issue_width:2 ~delay:2 ())
              model)
          Casted_sim.Fault.all_models)
      Scheme.all
  in
  Alcotest.(check (list string))
    "every scheme × fault model identity" expected actual

let test_identity_golden_configs () =
  let check msg expected key =
    Alcotest.(check string) msg expected (Cache.identity key)
  in
  check "default options, sample config" "h263dec/perf/DCED/i4/d1"
    (Cache.key ~workload:"h263dec" ~size:Workload.Perf ~scheme:Scheme.Dced
       ~issue_width:4 ~delay:1 ());
  (* Non-default knobs fold in as a pinned FNV-1a suffix. *)
  check "no-stores ablation" "cjpeg/fault/CASTED/i2/d2/xf5bb32206b43d266"
    (Cache.key
       ~options:{ Options.default with Options.check_stores = false }
       ~workload:"cjpeg" ~size:Workload.Fault ~scheme:Scheme.Casted
       ~issue_width:2 ~delay:2 ());
  check "store-slice scope" "cjpeg/fault/CASTED/i2/d2/xa580c2a3b24ae35c"
    (Cache.key
       ~options:{ Options.default with Options.scope = Options.Store_slice }
       ~workload:"cjpeg" ~size:Workload.Fault ~scheme:Scheme.Casted
       ~issue_width:2 ~delay:2 ());
  (* Distinct knob settings must not collide onto one suffix. *)
  let ids =
    List.map Cache.identity
      [
        Cache.key ~workload:"cjpeg" ~size:Workload.Fault ~scheme:Scheme.Casted
          ~issue_width:2 ~delay:2 ();
        Cache.key
          ~options:{ Options.default with Options.check_stores = false }
          ~workload:"cjpeg" ~size:Workload.Fault ~scheme:Scheme.Casted
          ~issue_width:2 ~delay:2 ();
        Cache.key
          ~options:{ Options.default with Options.check_branches = false }
          ~workload:"cjpeg" ~size:Workload.Fault ~scheme:Scheme.Casted
          ~issue_width:2 ~delay:2 ();
        Cache.key
          ~bug_options:
            {
              Casted_sched.Bug.tie_break =
                Casted_sched.Bug.Prefer_critical_pred;
            }
          ~workload:"cjpeg" ~size:Workload.Fault ~scheme:Scheme.Casted
          ~issue_width:2 ~delay:2 ();
      ]
  in
  Alcotest.(check int) "all distinct" (List.length ids)
    (List.length (List.sort_uniq String.compare ids))

(* The invariant the build memo rests on: the pipeline never writes its
   input program. Every registry workload at fault size, and one at perf
   size, is compiled under all seven schemes through one cache, and
   again with the optimizer pre-pass ([Pipeline.compile ~optimize:true])
   from the cache's build, so every compile of a (workload, size) starts
   from the one shared build. The build must still equal a fresh one,
   allocation counters included, and every schedule must equal the one
   compiled from a fresh build. *)
let test_pipeline_never_mutates_its_input () =
  let cache = Cache.create () in
  let check_pair workload size =
    let fresh () =
      match Casted_workloads.Registry.find workload with
      | Some w -> w.Workload.build size
      | None -> Alcotest.failf "unknown workload %s" workload
    in
    let keys =
      List.map
        (fun scheme ->
          Cache.key ~workload ~size ~scheme ~issue_width:2 ~delay:2 ())
        Scheme.all
    in
    List.iter
      (fun key ->
        let optimized program =
          (Pipeline.compile ~optimize:true ~scheme:key.Cache.scheme
             ~issue_width:2 ~delay:2 program)
            .Pipeline.schedule
        in
        let alone ~optimize =
          (Pipeline.compile ~optimize ~scheme:key.Cache.scheme ~issue_width:2
             ~delay:2 (fresh ()))
            .Pipeline.schedule
        in
        if
          compare (Cache.compile cache key).Pipeline.schedule
            (alone ~optimize:false)
          <> 0
        then
          Alcotest.failf "%a: schedule differs from a fresh build's"
            Cache.pp_key key;
        if
          compare (optimized (Cache.program cache key)) (alone ~optimize:true)
          <> 0
        then
          Alcotest.failf "%a: optimized schedule differs from a fresh build's"
            Cache.pp_key key)
      keys;
    let built = Cache.program cache (List.hd keys) in
    let pristine = fresh () in
    let name = workload ^ "/" ^ Workload.size_name size in
    List.iter2
      (fun (f : Func.t) (g : Func.t) ->
        Alcotest.(check int)
          (name ^ "/" ^ f.Func.name ^ ": next_id") g.Func.next_id f.Func.next_id;
        Alcotest.(check (array int))
          (name ^ "/" ^ f.Func.name ^ ": next_reg") g.Func.next_reg
          f.Func.next_reg)
      built.Program.funcs pristine.Program.funcs;
    Alcotest.(check bool) (name ^ ": build equals a fresh build") true
      (compare built pristine = 0)
  in
  List.iter
    (fun workload -> check_pair workload Workload.Fault)
    (Casted_workloads.Registry.names ());
  check_pair "cjpeg" Workload.Perf

(* The build memo: every key of one (workload, size) compiles from the
   physically equal program, a different size gets its own, a race on
   one pair keeps one build, and builds never count as compile hits or
   misses. *)
let test_cache_build_memo () =
  let cache = Cache.create () in
  let a = Cache.program cache spec in
  let b =
    Cache.program cache
      { spec with Cache.scheme = Scheme.Tmr; issue_width = 4 }
  in
  Alcotest.(check bool) "one program per (workload, size)" true (a == b);
  let perf = Cache.program cache { spec with Cache.size = Workload.Perf } in
  Alcotest.(check bool) "sizes build apart" false (perf == a);
  Alcotest.(check (list int)) "builds, compile hits, compile misses"
    [ 2; 0; 0 ]
    (let s = Cache.stats cache in
     [ s.Cache.builds; s.Cache.hits; s.Cache.misses ]);
  let cache = Cache.create () in
  let got =
    Pool.with_pool ~jobs:2 (fun pool ->
        Pool.map pool
          (fun issue_width ->
            Cache.program cache { spec with Cache.issue_width })
          [| 1; 2 |])
  in
  Alcotest.(check bool) "racers share one program" true (got.(0) == got.(1));
  Alcotest.(check int) "race keeps one build" 1 (Cache.stats cache).Cache.builds;
  (* A sweep counts compiles as before builds were memoized: one miss
     per grid point the first time, one hit per point after. *)
  Engine.with_engine ~jobs:2 (fun e ->
      let sweep () =
        ignore
          (Engine.sweep e ~size:Workload.Fault
             ~benchmarks:[ "cjpeg"; "181.mcf" ] ~issues:[ 1; 2 ]
             ~delays:[ 1; 2 ] ())
      in
      let counts () =
        let s = Cache.stats (Engine.cache e) in
        [ s.Cache.hits; s.Cache.misses; s.Cache.entries; s.Cache.builds ]
      in
      sweep ();
      Alcotest.(check (list int)) "first sweep" [ 0; 24; 24; 2 ] (counts ());
      sweep ();
      Alcotest.(check (list int)) "second sweep" [ 24; 24; 24; 2 ] (counts ()))

let suite =
  ( "engine",
    [
      case "parallel campaign deterministic" test_campaign_deterministic;
      case "campaign seed sensitivity" test_campaign_seed_sensitivity;
      case "cache physical equality" test_cache_physical_equality;
      case "decoded program physically shared"
        test_cache_decoded_physically_shared;
      case "engine shares cache across jobs" test_engine_shares_cache;
      case "engine memoizes only compiles" test_engine_memoizes_only_compiles;
      case "replay table counters" test_cache_replay_counters;
      case "same-key race on every cache table" test_cache_same_key_races;
      case "pool drains on shutdown" test_pool_drains;
      case "pool rejects use after shutdown" test_pool_rejects_use_after_shutdown;
      case "pool propagates exceptions" test_pool_propagates_exceptions;
      case "sweep order independent of jobs" test_sweep_order_independent_of_jobs;
      case "job model round-trip" test_job_model;
      case "rng derive" test_rng_derive;
      case "rng derive 100k sweep, no collisions" test_rng_derive_sweep;
      case "campaign deterministic for every model"
        test_campaign_deterministic_all_models;
      case "identity golden: scheme × model matrix"
        test_identity_golden_matrix;
      case "identity golden: config samples and knob suffixes"
        test_identity_golden_configs;
      case "pipeline never mutates its input program"
        test_pipeline_never_mutates_its_input;
      case "one workload build per (workload, size)" test_cache_build_memo;
    ] )
