module Workload = Casted_workloads.Workload
module Registry = Casted_workloads.Registry
module Scheme = Casted_detect.Scheme
module Options = Casted_detect.Options
module Pipeline = Casted_detect.Pipeline

type key = {
  workload : string;
  size : Workload.size;
  scheme : Scheme.t;
  issue_width : int;
  delay : int;
  options : Options.t;
  bug_options : Casted_sched.Bug.options option;
  optimize : bool;
}

let key ?(options = Options.default) ?bug_options ?(optimize = false)
    ~workload ~size ~scheme ~issue_width ~delay () =
  { workload; size; scheme; issue_width; delay; options; bug_options; optimize }

let pp_key ppf k =
  Format.fprintf ppf "%s/%s/%s/i%d/d%d" k.workload (Workload.size_name k.size)
    (Scheme.name k.scheme) k.issue_width k.delay

(* One line, stable across runs AND across casted/OCaml versions: what
   the on-disk result store hashes into entry addresses, so it can prove
   a tally belongs to the same (workload, scheme, config) point. Non-default knobs are folded in as
   an FNV-1a hash of an explicit canonical rendering — never
   [Hashtbl.hash], whose value is an implementation detail that may
   change between compiler releases and would silently orphan every
   persisted entry. The exact strings are pinned by golden unit
   tests. *)
let canonical_extras k =
  let scope =
    match k.options.Options.scope with
    | Options.Full -> "full"
    | Options.Store_slice -> "store-slice"
  in
  let bug =
    match k.bug_options with
    | None -> "default"
    | Some { Casted_sched.Bug.tie_break = Casted_sched.Bug.Prefer_lower } ->
        "prefer-lower"
    | Some { Casted_sched.Bug.tie_break = Casted_sched.Bug.Prefer_critical_pred
        } ->
        "prefer-critical-pred"
  in
  Printf.sprintf
    "stores=%b,branches=%b,calls=%b,params=%b,scope=%s,bug=%s,optimize=%b"
    k.options.Options.check_stores k.options.Options.check_branches
    k.options.Options.check_calls k.options.Options.shadow_params scope bug
    k.optimize

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001b3L)
    s;
  !h

let identity k =
  let extras =
    if
      k.options = Options.default && k.bug_options = None
      && not k.optimize
    then ""
    else Printf.sprintf "/x%016Lx" (fnv1a64 (canonical_extras k))
  in
  Format.asprintf "%a%s" pp_key k extras

(* The key is a flat record of immediates and small variant records, so
   polymorphic equality and hashing are exact. *)
type t = {
  table : (key, Pipeline.compiled) Hashtbl.t;
  decoded_table : (key, Casted_sim.Decode.t) Hashtbl.t;
  replay_table : (key, Casted_sim.Replay.t) Hashtbl.t;
  compiled_table : (key, Casted_sim.Compile.t) Hashtbl.t;
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable decoded_hits : int;
  mutable decoded_misses : int;
  mutable replay_hits : int;
  mutable replay_misses : int;
  mutable compiled_hits : int;
  mutable compiled_misses : int;
}

let create () =
  {
    table = Hashtbl.create 64;
    decoded_table = Hashtbl.create 64;
    replay_table = Hashtbl.create 64;
    compiled_table = Hashtbl.create 64;
    mutex = Mutex.create ();
    hits = 0;
    misses = 0;
    decoded_hits = 0;
    decoded_misses = 0;
    replay_hits = 0;
    replay_misses = 0;
    compiled_hits = 0;
    compiled_misses = 0;
  }

let build k =
  let w =
    match Registry.find k.workload with
    | Some w -> w
    | None -> invalid_arg ("Cache.compile: unknown workload " ^ k.workload)
  in
  let program = w.Workload.build k.size in
  Pipeline.compile ~options:k.options ?bug_options:k.bug_options
    ~optimize:k.optimize ~scheme:k.scheme ~issue_width:k.issue_width
    ~delay:k.delay program

let compile t k =
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.table k with
  | Some c ->
      t.hits <- t.hits + 1;
      Mutex.unlock t.mutex;
      Casted_obs.Metrics.incr "engine.cache.hits";
      c
  | None ->
      (* Compile outside the lock so distinct keys compile in parallel.
         On a same-key race the first insert wins, so every caller gets
         the physically equal compile. *)
      Mutex.unlock t.mutex;
      let c = build k in
      Mutex.lock t.mutex;
      let c, hit =
        match Hashtbl.find_opt t.table k with
        | Some prior ->
            t.hits <- t.hits + 1;
            (prior, true)
        | None ->
            t.misses <- t.misses + 1;
            Hashtbl.add t.table k c;
            (c, false)
      in
      Mutex.unlock t.mutex;
      Casted_obs.Metrics.incr
        (if hit then "engine.cache.hits" else "engine.cache.misses");
      c

(* Decoded programs are memoized separately from compiles: a campaign
   needs the execution-ready form, a report only the schedule. Same
   discipline as [compile] — decode outside the lock, first insert
   wins — so every trial of every campaign on one engine shares the
   physically equal decoded program. *)
let decoded t k =
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.decoded_table k with
  | Some d ->
      t.decoded_hits <- t.decoded_hits + 1;
      Mutex.unlock t.mutex;
      Casted_obs.Metrics.incr "engine.cache.decoded_hits";
      d
  | None ->
      Mutex.unlock t.mutex;
      let c = compile t k in
      let d = Casted_sim.Decode.of_schedule c.Pipeline.schedule in
      Mutex.lock t.mutex;
      let d, hit =
        match Hashtbl.find_opt t.decoded_table k with
        | Some prior ->
            t.decoded_hits <- t.decoded_hits + 1;
            (prior, true)
        | None ->
            t.decoded_misses <- t.decoded_misses + 1;
            Hashtbl.add t.decoded_table k d;
            (d, false)
      in
      Mutex.unlock t.mutex;
      Casted_obs.Metrics.incr
        (if hit then "engine.cache.decoded_hits"
         else "engine.cache.decoded_misses");
      d

(* Stage-2 compiled programs complete the per-key artifact chain:
   schedule -> decoded -> compiled. The compiled form holds no mutable
   state (a [cctx] is built per run), so one program is shared by every
   trial of every campaign and pool domain on the engine. Same
   discipline: compile outside the lock, first insert wins. *)
let compiled t k =
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.compiled_table k with
  | Some c ->
      t.compiled_hits <- t.compiled_hits + 1;
      Mutex.unlock t.mutex;
      Casted_obs.Metrics.incr "engine.cache.compiled_hits";
      c
  | None ->
      Mutex.unlock t.mutex;
      let d = decoded t k in
      let c = Casted_sim.Compile.of_decoded d in
      Mutex.lock t.mutex;
      let c, hit =
        match Hashtbl.find_opt t.compiled_table k with
        | Some prior ->
            t.compiled_hits <- t.compiled_hits + 1;
            (prior, true)
        | None ->
            t.compiled_misses <- t.compiled_misses + 1;
            Hashtbl.add t.compiled_table k c;
            (c, false)
      in
      Mutex.unlock t.mutex;
      Casted_obs.Metrics.incr
        (if hit then "engine.cache.compiled_hits"
         else "engine.cache.compiled_misses");
      c

(* Replay snapshot sets ride alongside the compiled program: captured
   once per key (one golden run on the memoized stage-2 program, so the
   capture costs no compile of its own), then shared read-only by every
   campaign and pool domain revisiting the configuration — a sweep
   re-running one point never re-captures. Same discipline: capture
   outside the lock, first insert wins. *)
let replay t k =
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.replay_table k with
  | Some r ->
      t.replay_hits <- t.replay_hits + 1;
      Mutex.unlock t.mutex;
      Casted_obs.Metrics.incr "engine.cache.replay_hits";
      r
  | None ->
      Mutex.unlock t.mutex;
      let p = compiled t k in
      let r =
        Casted_sim.Replay.capture (fun ~on_block ->
            Casted_sim.Compile.run ~on_block p)
      in
      Mutex.lock t.mutex;
      let r, hit =
        match Hashtbl.find_opt t.replay_table k with
        | Some prior ->
            t.replay_hits <- t.replay_hits + 1;
            (prior, true)
        | None ->
            t.replay_misses <- t.replay_misses + 1;
            Hashtbl.add t.replay_table k r;
            (r, false)
      in
      Mutex.unlock t.mutex;
      Casted_obs.Metrics.incr
        (if hit then "engine.cache.replay_hits"
         else "engine.cache.replay_misses");
      r

type stats = {
  hits : int;
  misses : int;
  entries : int;
  decoded_hits : int;
  decoded_misses : int;
  decoded_entries : int;
  replay_hits : int;
  replay_misses : int;
  replay_entries : int;
  compiled_hits : int;
  compiled_misses : int;
  compiled_entries : int;
}

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      entries = Hashtbl.length t.table;
      decoded_hits = t.decoded_hits;
      decoded_misses = t.decoded_misses;
      decoded_entries = Hashtbl.length t.decoded_table;
      replay_hits = t.replay_hits;
      replay_misses = t.replay_misses;
      replay_entries = Hashtbl.length t.replay_table;
      compiled_hits = t.compiled_hits;
      compiled_misses = t.compiled_misses;
      compiled_entries = Hashtbl.length t.compiled_table;
    }
  in
  Mutex.unlock t.mutex;
  s
