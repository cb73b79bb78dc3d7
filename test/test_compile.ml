(* The stage-2 closure-threaded engine — the production engine — held
   to the reference interpreter: bit-identity fault-free and under every
   fault model, campaign tallies, and the block-top hook firing at the
   same program points (so replay capture takes the same snapshots).
   Plus one physically shared compiled program per cache key (across
   hits and pool domains) and pool-size-independent tallies. *)

open Helpers
module Montecarlo = Casted_sim.Montecarlo
module Compile = Casted_sim.Compile
module Decode = Casted_sim.Decode
module Fault = Casted_sim.Fault
module Rng = Casted_sim.Rng
module Replay = Casted_sim.Replay
module State = Casted_sim.State
module Cache = Casted_engine.Cache
module Engine = Casted_engine.Engine
module Pool = Casted_exec.Pool
module W = Casted_workloads.Workload

let cjpeg_key ?(scheme = Scheme.Casted) () =
  Cache.key ~workload:"cjpeg" ~size:W.Fault ~scheme ~issue_width:2 ~delay:2
    ()

let cjpeg_decoded ?scheme () =
  let program =
    match Casted_workloads.Registry.find "cjpeg" with
    | Some w -> w.W.build W.Fault
    | None -> Alcotest.fail "cjpeg not registered"
  in
  let scheme = Option.value scheme ~default:Scheme.Casted in
  let c = Pipeline.compile ~scheme ~issue_width:2 ~delay:2 program in
  Decode.of_schedule c.Pipeline.schedule

let same_run msg (a : Outcome.run) (b : Outcome.run) =
  let ck f x y = Alcotest.(check int) (msg ^ ": " ^ f) x y in
  ck "cycles" a.Outcome.cycles b.Outcome.cycles;
  ck "dyn_insns" a.Outcome.dyn_insns b.Outcome.dyn_insns;
  ck "dyn_defs" a.Outcome.dyn_defs b.Outcome.dyn_defs;
  ck "dyn_mem" a.Outcome.dyn_mem b.Outcome.dyn_mem;
  ck "dyn_branches" a.Outcome.dyn_branches b.Outcome.dyn_branches;
  ck "dyn_xreads" a.Outcome.dyn_xreads b.Outcome.dyn_xreads;
  ck "dyn_checks" a.Outcome.dyn_checks b.Outcome.dyn_checks;
  ck "slots_total" a.Outcome.slots_total b.Outcome.slots_total;
  ck "exit_code" a.Outcome.exit_code b.Outcome.exit_code;
  Alcotest.(check bool)
    (msg ^ ": termination") true
    (a.Outcome.termination = b.Outcome.termination);
  Alcotest.(check string) (msg ^ ": output") a.Outcome.output b.Outcome.output;
  Alcotest.(check string)
    (msg ^ ": mem_digest") a.Outcome.mem_digest b.Outcome.mem_digest

(* Fault-free: the compiled run must match the reference run field for
   field on every scheme, including the whole final memory image. *)
let test_fault_free_bit_identity () =
  List.iter
    (fun scheme ->
      let decoded = cjpeg_decoded ~scheme () in
      let a = Simulator.reference ~with_mem_digest:true decoded in
      let b =
        Simulator.run_compiled ~with_mem_digest:true
          (Compile.of_decoded decoded)
      in
      same_run (Scheme.name scheme) a b)
    Scheme.all

(* The reference interpreter's verdict on campaign trial [index]: the
   fault drawn exactly as a campaign draws it, started from the same
   replay snapshot when the golden carries a set. *)
let reference_trial ~model ~(golden : Montecarlo.golden) ~seed ~index d =
  if Fault.population_size model golden.Montecarlo.pop = 0 then
    Montecarlo.Benign
  else
    let rng = Rng.create ~seed:(Rng.derive ~seed index) in
    let fault = Fault.random model rng ~population:golden.Montecarlo.pop in
    let snapshot =
      Option.bind golden.Montecarlo.replay (fun r -> Replay.find r fault)
    in
    Montecarlo.classify_result ~golden:golden.Montecarlo.run
      (try
         Ok
           (Simulator.reference ~fault ~fuel:golden.Montecarlo.fuel ?snapshot
              d)
       with e -> Error e)

(* Faulty trials: the campaign's trial on the compiled engine lands in
   the reference interpreter's class for every fault model, on the
   full-length reference (a golden with no snapshot set) and with
   golden-prefix replay composed in. *)
let test_faulty_trials_every_model () =
  let decoded = cjpeg_decoded () in
  let compiled = Compile.of_decoded decoded in
  let check path golden =
    List.iter
      (fun model ->
        for index = 0 to 15 do
          let a = reference_trial ~model ~golden ~seed:42 ~index decoded in
          let b = Montecarlo.trial ~model ~golden ~seed:42 ~index compiled in
          Alcotest.(check string)
            (Printf.sprintf "%s trial %d (%s)" (Fault.model_name model) index
               path)
            (Montecarlo.class_name a) (Montecarlo.class_name b)
        done)
      Fault.all_models
  in
  check "full-length" (Montecarlo.golden_decoded decoded);
  check "replayed"
    (Montecarlo.golden_decoded ~replay_set:(capture decoded) decoded)

(* Every workload at Fault size, i2/d2, under a detection, a
   multi-version, a voting and a checkpointing scheme plus the
   unprotected baseline. *)
let hook_cells () =
  List.concat_map
    (fun name ->
      let w = Option.get (Casted_workloads.Registry.find name) in
      let program = w.W.build W.Fault in
      List.map
        (fun scheme ->
          let c = Pipeline.compile ~scheme ~issue_width:2 ~delay:2 program in
          ( Printf.sprintf "%s/%s" name (Scheme.name scheme),
            Decode.of_schedule c.Pipeline.schedule ))
        Scheme.[ Noed; Casted; Dme; Tmr; Rollback ])
    (Casted_workloads.Registry.names ())

(* The block-top hook is the compiled engine's only instrumentation
   point, and replay capture and rollback checkpoints depend on it
   firing exactly where the reference interpreter fires its own: same
   blocks, in the same order, at the same dynamic count and clock. *)
let test_hook_sequence_matches_reference () =
  List.iter
    (fun (cell, d) ->
      let seen run =
        let acc = ref [] in
        let (_ : Outcome.run) =
          run ~on_block:(fun st _ block ->
              acc := (block, st.State.dyn, st.State.time) :: !acc)
        in
        List.rev !acc
      in
      let reference = seen (fun ~on_block -> Simulator.reference ~on_block d) in
      let compiled =
        let p = Compile.of_decoded d in
        seen (fun ~on_block -> Compile.run ~on_block p)
      in
      Alcotest.(check bool) (cell ^ ": hook fired") true (reference <> []);
      Alcotest.(check int)
        (cell ^ ": block tops")
        (List.length reference) (List.length compiled);
      Alcotest.(check bool)
        (cell ^ ": (block, dyn, time) sequence")
        true (reference = compiled))
    (hook_cells ())

(* Replay.capture on either engine keeps the same snapshot set and
   reports the same golden run. *)
let test_capture_matches_reference () =
  List.iter
    (fun (cell, d) ->
      let p = Compile.of_decoded d in
      let a =
        Replay.capture (fun ~on_block -> Simulator.reference ~on_block d)
      in
      let b = Replay.capture (fun ~on_block -> Compile.run ~on_block p) in
      let ck what = Alcotest.(check int) (cell ^ ": " ^ what) in
      ck "count" (Replay.count a) (Replay.count b);
      ck "total_bytes" (Replay.total_bytes a) (Replay.total_bytes b);
      Array.iteri
        (fun i (x : State.snapshot) ->
          let y = (Replay.snapshots b).(i) in
          let at what = Printf.sprintf "snapshot %d %s" i what in
          ck (at "block") x.State.block y.State.block;
          ck (at "s_dyn") x.State.s_dyn y.State.s_dyn;
          ck (at "s_time") x.State.s_time y.State.s_time)
        (Replay.snapshots a);
      same_run (cell ^ ": golden") (Replay.golden a) (Replay.golden b))
    (hook_cells ())

(* Cache: repeated lookups return the physically equal program. *)
let test_cache_physical_sharing () =
  let cache = Cache.create () in
  let k = cjpeg_key () in
  let a = Cache.compiled cache k in
  let b = Cache.compiled cache k in
  Alcotest.(check bool) "physically equal" true (a == b);
  let s = Cache.stats cache in
  Alcotest.(check int) "one stage-2 compile" 1 s.Cache.compiled_misses;
  Alcotest.(check int) "one hit" 1 s.Cache.compiled_hits;
  Alcotest.(check int) "one entry" 1 s.Cache.compiled_entries

(* Cache under a pool: every domain racing on the same key receives the
   same program (first insert wins). *)
let test_cache_sharing_across_domains () =
  let cache = Cache.create () in
  let k = cjpeg_key () in
  let pool = Pool.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let programs =
        Pool.map pool (fun _ -> Cache.compiled cache k) [| 0; 1; 2; 3 |]
      in
      Array.iter
        (fun p ->
          Alcotest.(check bool)
            "same program on every domain" true
            (p == programs.(0)))
        programs;
      let s = Cache.stats cache in
      Alcotest.(check int) "one entry" 1 s.Cache.compiled_entries)

let same_result msg (a : Montecarlo.result) (b : Montecarlo.result) =
  let ck f x y = Alcotest.(check int) (msg ^ ": " ^ f) x y in
  ck "trials" a.Montecarlo.trials b.Montecarlo.trials;
  ck "benign" a.Montecarlo.benign b.Montecarlo.benign;
  ck "detected" a.Montecarlo.detected b.Montecarlo.detected;
  ck "exceptions" a.Montecarlo.exceptions b.Montecarlo.exceptions;
  ck "corrupt" a.Montecarlo.corrupt b.Montecarlo.corrupt;
  ck "timeouts" a.Montecarlo.timeouts b.Montecarlo.timeouts;
  ck "recovered" a.Montecarlo.recovered b.Montecarlo.recovered

(* Compiled campaigns are pool-size independent, and match the
   reference interpreter's tally bit for bit. *)
let test_campaign_jobs_bit_identity () =
  let k = cjpeg_key () in
  let trials = 256 in
  let campaign engine = Engine.campaign engine ~seed:7 ~trials k in
  let one = Engine.with_engine ~jobs:1 campaign in
  let four = Engine.with_engine ~jobs:4 campaign in
  same_result "jobs 1 vs 4 (compiled)" one four;
  let decoded = cjpeg_decoded () in
  let golden =
    Montecarlo.golden_decoded ~replay_set:(capture decoded) decoded
  in
  let reference =
    Montecarlo.tally ~golden
      (Array.init trials (fun index ->
           reference_trial ~model:Fault.Reg_bit ~golden ~seed:7 ~index
             decoded))
  in
  same_result "compiled vs reference interpreter" one reference

(* The per-instruction path allocates nothing: GP registers are
   unboxed bytes, ALU/compare/memory closures are specialised per
   opcode, condition and width, the cache model answers with a bool
   and callee frames are reused. What is left per run is the machine
   itself (counters, output) — well under half a word per dynamic
   instruction on every workload, in the -opaque dev build this suite
   runs in, where a single int64 crossing a module boundary boxes.

   ROLLBACK runs fault-free with its retry budget, as a rollback
   campaign's trials do: checkpoints stay lazy, counted at each region
   head and materialized only when a rollback is due. A snapshot at
   every checkpoint block top costs 3 (cjpeg) to 59 (181.mcf) words
   per instruction. *)
let test_allocation_budget () =
  let budget = 0.5 in
  List.iter
    (fun (w : W.t) ->
      let program = w.W.build W.Fault in
      List.iter
        (fun scheme ->
          let c = Pipeline.compile ~scheme ~issue_width:2 ~delay:2 program in
          let p = Compile.of_decoded (Decode.of_schedule c.Pipeline.schedule) in
          let retry_budget =
            if scheme = Scheme.Rollback then Some Engine.default_retry_budget
            else None
          in
          (* Warm the domain's scratch arena and hierarchy first. *)
          let (_ : Outcome.run) = Compile.run ?retry_budget p in
          let before = Gc.minor_words () in
          let r = Compile.run ?retry_budget p in
          let words = Gc.minor_words () -. before in
          let per_insn = words /. float_of_int r.Outcome.dyn_insns in
          if not (per_insn < budget) then
            Alcotest.failf "%s/%s: %.3f minor words per instruction (%d insns)"
              w.W.name (Scheme.name scheme) per_insn r.Outcome.dyn_insns)
        Scheme.[ Noed; Casted; Dme; Tmr; Rollback ])
    Casted_workloads.Registry.all

(* Words a run of [f] allocates straight into the major heap: blocks
   too large for the minor heap (over 256 words), which the minor
   allocation budget above does not see. The counters settle only at
   a major slice, so a full major collection precedes each reading. *)
let direct_major_words f =
  let direct () =
    Gc.full_major ();
    let s = Gc.quick_stat () in
    s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = direct () in
  f ();
  direct () -. before

(* A trial allocates nothing sizeable: the entry register file is the
   domain's, reset on a fresh run and overwritten on a restore, like
   the memory arena. A register file per run would put over a thousand
   words per trial straight into the major heap on a workload with
   hundreds of registers (cjpeg/CASTED's entry function has 380 GP),
   which sets the collector's pace for a whole campaign. Covers
   replayed trials, full-length trials and fault-free untimed runs on
   every workload. *)
let test_trials_skip_major_heap () =
  let budget = 64.0 in
  List.iter
    (fun (w : W.t) ->
      let c =
        Pipeline.compile ~scheme:Scheme.Casted ~issue_width:2 ~delay:2
          (w.W.build W.Fault)
      in
      let d = Decode.of_schedule c.Pipeline.schedule in
      let p = Compile.of_decoded d in
      let g = Montecarlo.golden_decoded ~replay_set:(capture d) d in
      let trials golden () =
        for index = 0 to 63 do
          let (_ : Montecarlo.classification) =
            Montecarlo.trial ~golden ~seed:5 ~index p
          in
          ()
        done
      in
      let check what n f =
        f ();
        let per_run = direct_major_words f /. float_of_int n in
        if not (per_run < budget) then
          Alcotest.failf "%s/CASTED %s: %.0f words per run straight into the \
             major heap"
            w.W.name what per_run
      in
      check "replayed trials" 64 (trials g);
      check "full-length trials" 64
        (trials { g with Montecarlo.replay = None });
      check "fault-free untimed runs" 8 (fun () ->
          for _ = 1 to 8 do
            let (_ : Outcome.run) = Compile.run ~timed:false p in
            ()
          done))
    Casted_workloads.Registry.all

(* Campaign trials run untimed, and an untimed run leaves the domain's
   timed scratch hierarchy exactly as the last timed run left it: after
   replayed and full-length faulty trials and a fault-free untimed run,
   the next timed run gets the same physical hierarchy back, in the same
   state. The untimed run reports zero cache statistics, counts the
   timed run's events, and stays inside the allocation budget above. *)
let test_untimed_leaves_timed_hierarchy () =
  let module H = Casted_cache.Hierarchy in
  let budget = 0.5 in
  List.iter
    (fun (w : W.t) ->
      let program = w.W.build W.Fault in
      List.iter
        (fun scheme ->
          let c = Pipeline.compile ~scheme ~issue_width:2 ~delay:2 program in
          let d = Decode.of_schedule c.Pipeline.schedule in
          let p = Compile.of_decoded d in
          let g = Montecarlo.golden_decoded ~replay_set:(capture d) d in
          let id = Printf.sprintf "%s/%s" w.W.name (Scheme.name scheme) in
          let hier = ref None in
          let on_block st _ _ = hier := Some st.State.hier in
          let timed = Compile.run ~on_block p in
          let h = Option.get !hier in
          let before = H.snapshot h in
          for index = 0 to 7 do
            let (_ : Montecarlo.classification) =
              Montecarlo.trial ~golden:g ~seed:3 ~index p
            in
            ()
          done;
          let (_ : Montecarlo.classification) =
            Montecarlo.trial ~golden:{ g with Montecarlo.replay = None }
              ~seed:3 ~index:0 p
          in
          let (_ : Outcome.run) = Compile.run ~timed:false p in
          let words = Gc.minor_words () in
          let r = Compile.run ~timed:false p in
          let per_insn =
            (Gc.minor_words () -. words) /. float_of_int r.Outcome.dyn_insns
          in
          if not (per_insn < budget) then
            Alcotest.failf "%s: untimed, %.3f minor words per instruction" id
              per_insn;
          Alcotest.(check bool)
            (id ^ ": timed hierarchy state untouched")
            true
            (H.snapshot h = before);
          let zero = H.stats (H.create d.Decode.config.Config.cache) in
          Alcotest.(check bool) (id ^ ": untimed cache stats read zero") true
            (r.Outcome.cache = zero);
          Alcotest.(check (list int))
            (id ^ ": untimed run counts the timed run's events")
            [ timed.Outcome.dyn_insns; timed.Outcome.dyn_defs;
              timed.Outcome.dyn_mem; timed.Outcome.dyn_branches;
              timed.Outcome.dyn_xreads; timed.Outcome.exit_code ]
            [ r.Outcome.dyn_insns; r.Outcome.dyn_defs; r.Outcome.dyn_mem;
              r.Outcome.dyn_branches; r.Outcome.dyn_xreads;
              r.Outcome.exit_code ];
          Alcotest.(check string) (id ^ ": untimed output")
            timed.Outcome.output r.Outcome.output;
          let (_ : Outcome.run) = Compile.run ~on_block p in
          Alcotest.(check bool)
            (id ^ ": timed runs keep their hierarchy")
            true
            (Option.get !hier == h))
        Scheme.[ Noed; Casted; Dme; Tmr ])
    Casted_workloads.Registry.all

let trap_parity_on_arena size =
  let data = [ (size - 8, "\x81\x82\x83\x84\x85\x86\x87\x88") ] in
  (* Loaded values go to the output region, so they are live. *)
  let out b = B.movi b 0x40L in
  let accesses =
    List.concat_map
      (fun (w, n) ->
        [
          ( Printf.sprintf "ld%d" n,
            n,
            fun b base imm ->
              let v = B.ld b w base imm in
              B.st b Opcode.W8 ~value:v ~base:(out b) 0L );
          ( Printf.sprintf "lds%d" n,
            n,
            fun b base imm ->
              let v = B.lds b w base imm in
              B.st b Opcode.W8 ~value:v ~base:(out b) 0L );
          ( Printf.sprintf "st%d" n,
            n,
            fun b base imm ->
              B.st b w ~value:(B.movi b 0x0102030405060708L) ~base imm );
        ])
      Opcode.[ (W1, 1); (W2, 2); (W4, 4); (W8, 8) ]
    @ [
        ( "fld",
          8,
          fun b base imm ->
            let v = B.fld b base imm in
            B.fst_ b ~value:v ~base:(out b) 0L );
        ("fst", 8, fun b base imm -> B.fst_ b ~value:(B.fmovi b 1.5) ~base imm);
      ]
  in
  let addresses n =
    let n64 = Int64.of_int n and s64 = Int64.of_int size in
    [
      (Int64.of_int ((size - n) / n * n), 0L);  (* last valid slot *)
      (s64, Int64.neg n64);  (* the last n bytes, reached through imm *)
      (Int64.sub s64 (Int64.of_int (max 1 (n / 2))), 0L);  (* straddles *)
      (s64, 0L);
      (0x101L, 0L);  (* misaligned unless byte-wide *)
      (-1L, 0L);
      (-8L, 0L);
      (Int64.min_int, 0L);
      (Int64.max_int, 0L);
      (Int64.max_int, 1L);  (* wraps to min_int *)
      (Int64.add Int64.min_int 8L, 0L);  (* low 63 bits are in range *)
      (Int64.add (Int64.shift_left 1L 62) 8L, 0L);
      (Int64.shift_left 1L 30, 0L);  (* cache index masks to 0 *)
      (Int64.add (Int64.shift_left 1L 30) 64L, 0L);
    ]
  in
  (* Memory's contract: bounds first, then alignment. *)
  let expected addr n =
    let s64 = Int64.of_int size in
    if Int64.compare addr 0L < 0 || Int64.compare addr s64 >= 0
       || Int64.compare (Int64.add addr (Int64.of_int n)) s64 > 0
    then Outcome.Trapped (Casted_sim.Trap.Out_of_bounds addr)
    else if Int64.rem addr (Int64.of_int n) <> 0L then
      Outcome.Trapped (Casted_sim.Trap.Misaligned addr)
    else Outcome.Exit 0
  in
  List.iter
    (fun (name, n, access) ->
      List.iter
        (fun (base, imm) ->
          let program =
            let b = B.create ~name:"main" () in
            access b (B.movi b base) imm;
            B.halt b ~code:(B.movi b 0L) ();
            Program.make ~funcs:[ B.finish b ] ~entry:"main" ~mem_size:size
              ~data ~output_base:0x40 ~output_len:8 ()
          in
          let c =
            Pipeline.compile ~scheme:Scheme.Noed ~issue_width:2 ~delay:1
              program
          in
          let d = Decode.of_schedule c.Pipeline.schedule in
          let a = Simulator.reference ~with_mem_digest:true d in
          let r = Compile.run ~with_mem_digest:true (Compile.of_decoded d) in
          let cell =
            Printf.sprintf "%s [%Ld%+Ld] in %d bytes" name base imm size
          in
          Alcotest.(check bool)
            (cell ^ ": expected termination")
            true
            (a.Outcome.termination = expected (Int64.add base imm) n);
          same_run cell a r;
          Alcotest.(check bool)
            (cell ^ ": cache traffic")
            true
            (a.Outcome.cache = r.Outcome.cache))
        (addresses n))
    accesses

(* Memory accesses at the arena edges: the compiled engine's in-range
   fast path must hand exactly the accesses Memory's checked path traps
   on back to it, so both engines stop with the same trap and address
   after the same memory events, clock and cache traffic. Two arenas:
   64 KiB, and one whose size is no multiple of 8, where an aligned
   address can still run past the end. *)
let test_trap_parity_at_arena_edges () =
  List.iter trap_parity_on_arena [ 1 lsl 16; (1 lsl 16) + 4 ]

let suite =
  ( "compile",
    [
      case "fault-free runs are bit-identical to reference, every scheme"
        test_fault_free_bit_identity;
      case "faulty trials match the interpreter on every model"
        test_faulty_trials_every_model;
      case "cache hits share one compiled program"
        test_cache_physical_sharing;
      case "pool domains share one compiled program"
        test_cache_sharing_across_domains;
      case "campaign tally is jobs- and engine-independent"
        test_campaign_jobs_bit_identity;
      case "block hook fires where the reference interpreter's does"
        test_hook_sequence_matches_reference;
      case "replay capture takes the same snapshots on both engines"
        test_capture_matches_reference;
      case "fault-free runs allocate < 0.5 words per instruction"
        test_allocation_budget;
      case "untimed runs leave the timed hierarchy untouched"
        test_untimed_leaves_timed_hierarchy;
      case "arena-edge accesses trap alike on both engines"
        test_trap_parity_at_arena_edges;
      case "trials allocate nothing straight into the major heap"
        test_trials_skip_major_heap;
    ] )
