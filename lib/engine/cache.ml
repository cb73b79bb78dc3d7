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
}

let key ?(options = Options.default) ?bug_options ~workload ~size ~scheme
    ~issue_width ~delay () =
  { workload; size; scheme; issue_width; delay; options; bug_options }

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
   tests. The trailing [optimize=false] is a field keys no longer have;
   it stays so that existing addresses do not move. *)
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
    "stores=%b,branches=%b,calls=%b,params=%b,scope=%s,bug=%s,optimize=false"
    k.options.Options.check_stores k.options.Options.check_branches
    k.options.Options.check_calls k.options.Options.shadow_params scope bug

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
    if k.options = Options.default && k.bug_options = None then ""
    else Printf.sprintf "/x%016Lx" (fnv1a64 (canonical_extras k))
  in
  Format.asprintf "%a%s" pp_key k extras

(* One memo table per artifact. Every lookup follows one discipline:
   look up under the table's mutex; on a miss, build outside it so
   distinct keys build in parallel; on a same-key race the first insert
   wins, so every caller gets the physically equal value and the loser
   counts as a hit. Each lookup emits the table's hit or miss metric.
   Keys are flat records or pairs of immediates, strings and small
   variant records, so polymorphic equality and hashing are exact. *)
type ('k, 'v) memo = {
  table : ('k, 'v) Hashtbl.t;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  hit_metric : string;
  miss_metric : string;
}

let memo ~hit_metric ~miss_metric =
  {
    table = Hashtbl.create 64;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    hit_metric;
    miss_metric;
  }

let find m k ~build =
  let hit v =
    m.hits <- m.hits + 1;
    (v, true)
  in
  let v, was_hit =
    match
      Mutex.protect m.lock (fun () ->
          Option.map hit (Hashtbl.find_opt m.table k))
    with
    | Some found -> found
    | None ->
        let v = build k in
        Mutex.protect m.lock (fun () ->
            match Hashtbl.find_opt m.table k with
            | Some prior -> hit prior
            | None ->
                m.misses <- m.misses + 1;
                Hashtbl.add m.table k v;
                (v, false))
  in
  Casted_obs.Metrics.incr (if was_hit then m.hit_metric else m.miss_metric);
  v

(* The per-key artifact chain: workload program -> schedule -> decoded
   -> stage-2 compiled, plus the golden-run snapshot set captured on the
   compiled program. [builds] and [compiles] serve the library; the
   program is keyed by (workload, size) alone, since every compile of
   that pair starts from the same build and no pipeline pass writes its
   input. Campaigns, sweeps and simulations build the rest for their
   own run. The other three tables serve only the benchmark harness. *)
type t = {
  builds : (string * Workload.size, Casted_ir.Program.t) memo;
  compiles : (key, Pipeline.compiled) memo;
  decodes : (key, Casted_sim.Decode.t) memo;
  programs : (key, Casted_sim.Compile.t) memo;
  replays : (key, Casted_sim.Replay.t) memo;
}

let create () =
  {
    builds =
      memo ~hit_metric:"engine.cache.build_hits"
        ~miss_metric:"engine.cache.build_misses";
    compiles =
      memo ~hit_metric:"engine.cache.hits" ~miss_metric:"engine.cache.misses";
    decodes =
      memo ~hit_metric:"engine.cache.decoded_hits"
        ~miss_metric:"engine.cache.decoded_misses";
    programs =
      memo ~hit_metric:"engine.cache.compiled_hits"
        ~miss_metric:"engine.cache.compiled_misses";
    replays =
      memo ~hit_metric:"engine.cache.replay_hits"
        ~miss_metric:"engine.cache.replay_misses";
  }

let program t k =
  find t.builds (k.workload, k.size) ~build:(fun (name, size) ->
      match Registry.find name with
      | Some w -> w.Workload.build size
      | None -> invalid_arg ("Cache.compile: unknown workload " ^ name))

let compile t k =
  find t.compiles k ~build:(fun k ->
      Pipeline.compile ~options:k.options ?bug_options:k.bug_options
        ~scheme:k.scheme ~issue_width:k.issue_width ~delay:k.delay
        (program t k))

let decoded t k =
  find t.decodes k ~build:(fun k ->
      Casted_sim.Decode.of_schedule (compile t k).Pipeline.schedule)

let compiled t k =
  find t.programs k ~build:(fun k ->
      Casted_sim.Compile.of_decoded (decoded t k))

(* A capture is one golden run on the memoized stage-2 program, so it
   costs no compile of its own. *)
let replay t k =
  find t.replays k ~build:(fun k ->
      let p = compiled t k in
      Casted_sim.Replay.capture (fun ~on_block ->
          Casted_sim.Compile.run ~on_block p))

type stats = {
  hits : int;
  misses : int;
  entries : int;
  builds : int;
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
  let read (m : (_, _) memo) =
    Mutex.protect m.lock (fun () -> (m.hits, m.misses, Hashtbl.length m.table))
  in
  let hits, misses, entries = read t.compiles in
  let _, _, builds = read t.builds in
  let decoded_hits, decoded_misses, decoded_entries = read t.decodes in
  let replay_hits, replay_misses, replay_entries = read t.replays in
  let compiled_hits, compiled_misses, compiled_entries = read t.programs in
  {
    hits;
    misses;
    entries;
    builds;
    decoded_hits;
    decoded_misses;
    decoded_entries;
    replay_hits;
    replay_misses;
    replay_entries;
    compiled_hits;
    compiled_misses;
    compiled_entries;
  }
