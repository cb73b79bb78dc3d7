open Helpers
module Recover = Casted_detect.Recover
module Fault = Casted_sim.Fault
module Decode = Casted_sim.Decode
module Montecarlo = Casted_sim.Montecarlo
module Rng = Casted_sim.Rng
module W = Casted_workloads.Workload
module Registry = Casted_workloads.Registry

let schedule_recovered ?(issue_width = 2) ?(delay = 2) p =
  let hardened, stats = Recover.program Options.default p in
  Casted_ir.Validate.check_exn hardened;
  let config = Config.dual_core ~issue_width ~delay in
  let schedule =
    Casted_sched.List_scheduler.schedule_program config
      (Casted_sched.Assign.Adaptive Casted_sched.Bug.default_options)
      hardened
  in
  (schedule, stats)

(* A fully protected integer kernel (GP-only, so every operand of a
   non-replicated instruction is voted, not just checked). *)
let kernel () =
  program_of (fun b ->
      let base = B.movi b 0x100L in
      let acc = B.movi b 7L in
      B.counted_loop b ~from:0L ~until:24L (fun b i ->
          let x = B.mul b acc acc in
          let y = B.add b x i in
          let (_ : Reg.t) = B.andi b ~dst:acc y 0x1FFFL in
          B.st b Opcode.W8 ~value:acc ~base 0L);
      let out = B.movi b 0x40L in
      let v = B.ld b Opcode.W8 base 0L in
      B.st b Opcode.W8 ~value:v ~base:out 0L)

let test_semantics_preserved () =
  List.iter
    (fun w ->
      let p = w.W.build W.Fault in
      let plain = run_scheme Scheme.Noed p in
      let schedule, _ = schedule_recovered p in
      let r = Simulator.run schedule in
      (match r.Outcome.termination with
      | Outcome.Exit 0 -> ()
      | t -> Alcotest.failf "%s: %a" w.W.name Outcome.pp_termination t);
      Alcotest.(check string) (w.W.name ^ " output") plain.Outcome.output
        r.Outcome.output)
    Registry.all

let test_stats_shape () =
  let p = kernel () in
  let _, stats = schedule_recovered p in
  Alcotest.(check bool) "two replicas per original op" true
    (stats.Recover.replicas mod 2 = 0 && stats.Recover.replicas > 0);
  Alcotest.(check bool) "votes emitted" true (stats.Recover.votes > 0);
  (* GP operands are voted; only the loop branch predicate falls back
     to a detection check. *)
  Alcotest.(check bool) "votes dominate fallbacks" true
    (stats.Recover.votes > stats.Recover.fallback_checks)

let test_fallback_checks_for_float () =
  let p =
    program_of (fun b ->
        let x = B.fmovi b 1.5 in
        let y = B.fmul b x x in
        let base = B.movi b 0x100L in
        B.fst_ b ~value:y ~base 0L)
  in
  let _, stats = schedule_recovered p in
  Alcotest.(check bool) "float store operand falls back to a check" true
    (stats.Recover.fallback_checks > 0)

(* The headline property: single faults are *corrected*, not merely
   detected. Exhaustively inject into every defining instruction; the
   output must match the golden run in the overwhelming majority of
   trials, with zero detections (nothing traps) on GP faults. *)
let test_faults_are_recovered () =
  let p = kernel () in
  let schedule, _ = schedule_recovered p in
  let golden = Simulator.run schedule in
  let fuel = 10 * golden.Outcome.dyn_insns in
  let outcomes = Hashtbl.create 8 in
  let bump k =
    Hashtbl.replace outcomes k (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes k))
  in
  let population = golden.Outcome.dyn_defs in
  (* Sample every 7th def to keep the sweep fast but systematic. *)
  let injected = ref 0 in
  let recovered = ref 0 in
  let rec go def =
    if def < population then begin
      let fault = Fault.Reg_flip { target_slot = def; bit = 11 } in
      let r = Simulator.run ~fault ~fuel schedule in
      incr injected;
      let c = Montecarlo.classify ~golden r in
      bump (Montecarlo.class_name c);
      (* Benign = the flipped copy never mattered; Recovered = a vote
         actively repaired it. Both end bit-identical to golden. *)
      if c = Montecarlo.Benign || c = Montecarlo.Recovered then
        incr recovered;
      go (def + 7)
    end
  in
  go 0;
  (* Faults on the predicate path are detected (fail-stop), not
     corrected, so full recovery is not 100%; silent corruption must
     stay at zero and the large majority must be repaired. *)
  Alcotest.(check (option int)) "no silent corruption" None
    (Hashtbl.find_opt outcomes (Montecarlo.class_name Montecarlo.Data_corrupt));
  let rate = float_of_int !recovered /. float_of_int !injected in
  if rate < 0.70 then
    Alcotest.failf "only %.1f%% of faults recovered (%s)" (100.0 *. rate)
      (String.concat ", "
         (Hashtbl.fold
            (fun k v acc -> Printf.sprintf "%s=%d" k v :: acc)
            outcomes []))

let test_recovery_beats_detection_on_completion () =
  (* Under detection (CASTED), a fault usually stops the program; under
     recovery (CASTED-R), it usually completes with the right output. *)
  let p = kernel () in
  let det = Pipeline.compile ~scheme:Scheme.Casted ~issue_width:2 ~delay:2 p in
  let det_result = Montecarlo.run ~trials:150 det.Pipeline.schedule in
  let rec_schedule, _ = schedule_recovered p in
  let rec_result = Montecarlo.run ~trials:150 rec_schedule in
  Alcotest.(check bool) "detection detects" true
    (det_result.Montecarlo.detected > 0);
  Alcotest.(check bool) "recovery completes benignly far more often" true
    (Montecarlo.percent rec_result Montecarlo.Benign
     +. Montecarlo.percent rec_result Montecarlo.Recovered
    > Montecarlo.percent det_result Montecarlo.Benign +. 25.0);
  Alcotest.(check bool) "recovery (almost) never silently corrupts" true
    (Montecarlo.percent rec_result Montecarlo.Data_corrupt < 3.0)

(* TMR through the pipeline entry point (scheme dispatch, not the raw
   pass): a trial whose fault was voted out must be bit-identical to
   the golden run — same output bytes, same exit code — not merely
   "close". *)
let test_tmr_single_fault_bit_identity () =
  let p = kernel () in
  let c = Pipeline.compile ~scheme:Scheme.Tmr ~issue_width:2 ~delay:2 p in
  let s = c.Pipeline.schedule in
  let golden = Simulator.run s in
  let fuel = 10 * golden.Outcome.dyn_insns in
  let corrected = ref 0 in
  let rec go def =
    if def < golden.Outcome.dyn_defs && !corrected < 5 then begin
      let fault = Fault.Reg_flip { target_slot = def; bit = 11 } in
      let r = Simulator.run ~fault ~fuel s in
      if r.Outcome.dyn_corrections > 0 && r.Outcome.termination = Outcome.Exit 0
      then begin
        incr corrected;
        Alcotest.(check string)
          (Printf.sprintf "def %d: output bit-identical" def)
          golden.Outcome.output r.Outcome.output;
        Alcotest.(check int)
          (Printf.sprintf "def %d: exit code" def)
          golden.Outcome.exit_code r.Outcome.exit_code
      end;
      go (def + 3)
    end
  in
  go 0;
  Alcotest.(check bool) "some trials were actively corrected" true
    (!corrected > 0)

(* A program hardened under ROLLBACK (issue 2, delay 2), decoded. *)
let decode_rollback p =
  let c = Pipeline.compile ~scheme:Scheme.Rollback ~issue_width:2 ~delay:2 p in
  Decode.of_schedule c.Pipeline.schedule

(* Rollback retry budgets. A fault detected inside the region it
   corrupts is repaired by one restore (the re-execution runs with the
   fault disarmed). A fault that corrupts state *before* the next
   checkpoint and is detected *after* it poisons the snapshot itself:
   every retry restores the same corrupt state, the budget runs out,
   and the original detection is reported — raising the budget cannot
   help. *)
let test_rollback_budget_exhaustion () =
  let decoded = decode_rollback (kernel ()) in
  let golden = Simulator.run_decoded decoded in
  let fuel = 20 * golden.Outcome.dyn_insns in
  let exhausted = ref None in
  let recovered_retries = ref None in
  let rec go def =
    if
      def < golden.Outcome.dyn_defs
      && (!exhausted = None || !recovered_retries = None)
    then begin
      let fault = Fault.Reg_flip { target_slot = def; bit = 11 } in
      let r = Simulator.run_recovering ~fault ~fuel ~retry_budget:1 decoded in
      (match r.Outcome.termination with
      | Outcome.Detected _ when !exhausted = None -> exhausted := Some def
      | Outcome.Recovered { retries; _ } when !recovered_retries = None ->
          recovered_retries := Some retries
      | _ -> ());
      go (def + 1)
    end
  in
  go 0;
  (match !recovered_retries with
  | Some retries ->
      Alcotest.(check int) "recovery used exactly the one retry" 1 retries
  | None -> Alcotest.fail "no fault was recovered by a rollback");
  match !exhausted with
  | None -> Alcotest.fail "no fault exhausts a retry budget of 1"
  | Some def -> (
      let fault = Fault.Reg_flip { target_slot = def; bit = 11 } in
      let again =
        Simulator.run_recovering ~fault ~fuel ~retry_budget:4 decoded
      in
      match again.Outcome.termination with
      | Outcome.Detected _ -> ()
      | t ->
          Alcotest.failf
            "poisoned snapshot must stay detected under a larger budget: %a"
            Outcome.pp_termination t)

(* The acceptance bar of the recovery campaign: under reg-bit faults a
   strict majority of TMR trials on a real workload is classified
   Recovered (the tiny kernels above have too many dead values — most
   flips land benign), and the MWTF accessors are sane against a NOED
   baseline. *)
let test_tmr_majority_recovered () =
  let p =
    match Registry.find "cjpeg" with
    | Some w -> w.W.build W.Fault
    | None -> Alcotest.fail "cjpeg not registered"
  in
  let c = Pipeline.compile ~scheme:Scheme.Tmr ~issue_width:2 ~delay:2 p in
  let r = Montecarlo.run ~seed:3 ~trials:300 c.Pipeline.schedule in
  Alcotest.(check bool)
    (Printf.sprintf "strict majority recovered (%.1f%%)"
       (100.0 *. Montecarlo.recovered_fraction r))
    true
    (Montecarlo.recovered_fraction r > 0.5);
  let baseline = run_scheme Scheme.Noed p in
  let mwtf = Montecarlo.mwtf ~baseline_cycles:baseline.Outcome.cycles r in
  Alcotest.(check bool) "mwtf is positive" true (mwtf > 0.0)

let test_recovery_overhead_larger () =
  (* Triplication costs more than duplication: dynamic instruction count
     must sit clearly above the detection scheme's. *)
  let p = kernel () in
  let det = run_scheme Scheme.Casted p in
  let rec_schedule, _ = schedule_recovered p in
  let rec_run = Simulator.run rec_schedule in
  Alcotest.(check bool) "more dynamic work" true
    (rec_run.Outcome.dyn_insns > det.Outcome.dyn_insns)

(* --- Rollback outcome pins --------------------------------------------

   An explicit, stable rendering of every Outcome.run field a rollback
   trial reports (Marshal bytes are not a stable rendering). *)
let render_run (r : Outcome.run) =
  let c = r.Outcome.cache in
  let module H = Casted_cache.Hierarchy in
  Format.asprintf
    "%a|%d|%d|%d|%d|%d|%d|%d|%d|%s|%d|%d|%s|%s|%d,%d,%d,%d,%d,%d,%d"
    Outcome.pp_termination r.Outcome.termination r.Outcome.cycles
    r.Outcome.dyn_insns r.Outcome.dyn_defs r.Outcome.dyn_mem
    r.Outcome.dyn_branches r.Outcome.dyn_xreads r.Outcome.dyn_checks
    r.Outcome.dyn_corrections
    (String.concat ","
       (Array.to_list (Array.map string_of_int r.Outcome.dyn_by_role)))
    r.Outcome.slots_total r.Outcome.exit_code
    (Digest.to_hex (Digest.string r.Outcome.output))
    (if r.Outcome.mem_digest = "" then "-"
     else Digest.to_hex r.Outcome.mem_digest)
    c.H.l1_hits c.H.l1_misses c.H.l2_hits c.H.l2_misses c.H.l3_hits
    c.H.l3_misses c.H.writebacks

let rollback_decoded name =
  match Registry.find name with
  | Some w -> decode_rollback (w.W.build W.Fault)
  | None -> Alcotest.failf "%s not registered" name

(* MD5 over the rendered outcomes of 288 rollback trials (3 workloads x
   reg-bit/burst/mem x 32, campaign seed 0xCA57ED, faults drawn exactly
   as a campaign draws them). Computed with the eager-snapshot
   run_recovering, which took a State.snapshot at every checkpoint; the
   lazy rebuild must reproduce every field. 181.mcf passes ~3080
   checkpoints per fault-free run. *)
let pinned_rollback_outcomes = "8554a229ec6dfe130f090219ccff0e17"

let test_rollback_outcomes_pinned () =
  let seed = 0xCA57ED in
  let lines = Buffer.create 65536 in
  List.iter
    (fun name ->
      let d = rollback_decoded name in
      let g = Montecarlo.golden_decoded d in
      List.iter
        (fun model ->
          for index = 0 to 31 do
            let rng = Rng.create ~seed:(Rng.derive ~seed index) in
            let fault = Fault.random model rng ~population:g.Montecarlo.pop in
            let r =
              Simulator.run_recovering ~fault ~fuel:g.Montecarlo.fuel
                ~with_mem_digest:true ~retry_budget:3 d
            in
            Buffer.add_string lines
              (Printf.sprintf "%s/%s/%d %s\n" name (Fault.model_name model)
                 index (render_run r))
          done)
        [ Fault.Reg_bit; Fault.Burst; Fault.Mem ])
    [ "cjpeg"; "197.parser"; "181.mcf" ];
  Alcotest.(check string) "rollback outcomes digest" pinned_rollback_outcomes
    (Digest.to_hex (Digest.string (Buffer.contents lines)))

(* A poisoned checkpoint at budget 3: the fault corrupts state before
   the latest checkpoint and is detected after it, so every retry
   restores corrupt state and fails again. From the second rollback on,
   the checkpoint to rebuild was recorded by a retry attempt, whose
   start is itself a rebuilt snapshot. Pinned against the eager-snapshot
   implementation: the first poisoned reg-bit fault in the second half
   of the kernel's run and its whole-run cost (three wasted
   re-executions folded in). *)
let pinned_poisoned = (134, 140, 245)

let test_rollback_poisoned_retry_chain () =
  let d = decode_rollback (kernel ()) in
  let golden = Simulator.run_decoded d in
  let fuel = 20 * golden.Outcome.dyn_insns in
  let rec first def =
    if def >= golden.Outcome.dyn_defs then
      Alcotest.fail "no reg-bit fault poisons a checkpoint"
    else
      let fault = Fault.Reg_flip { target_slot = def; bit = 11 } in
      let r = Simulator.run_recovering ~fault ~fuel ~retry_budget:3 d in
      match r.Outcome.termination with
      | Outcome.Detected _ -> (def, r)
      | _ -> first (def + 1)
  in
  let def, r = first (golden.Outcome.dyn_defs / 2) in
  let once =
    Simulator.run_decoded
      ~fault:(Fault.Reg_flip { target_slot = def; bit = 11 })
      ~fuel d
  in
  Alcotest.(check bool) "retries re-executed work" true
    (r.Outcome.dyn_insns > once.Outcome.dyn_insns);
  Alcotest.(check (triple int int int)) "(def, cycles, dyn_insns)"
    pinned_poisoned
    (def, r.Outcome.cycles, r.Outcome.dyn_insns)

(* A fault detected before the run reaches its first checkpoint has
   nothing to roll back to: the original failure is reported, field for
   field the plain run's. The entry block's region head is cleared in
   the decoded form so the first checkpoint is the loop head. *)
let test_rollback_detected_before_first_checkpoint () =
  let p =
    program_of (fun b ->
        let base = B.movi b 0x100L in
        let v = B.movi b 5L in
        B.st b Opcode.W8 ~value:v ~base 0L;
        B.counted_loop b ~from:0L ~until:8L (fun b i ->
            B.st b Opcode.W8 ~value:i ~base 8L))
  in
  let d = decode_rollback p in
  let entry = d.Decode.funcs.(d.Decode.entry) in
  let blocks = Array.copy entry.Decode.blocks in
  blocks.(0) <- { (blocks.(0)) with Decode.checkpoint = false };
  let funcs = Array.copy d.Decode.funcs in
  funcs.(d.Decode.entry) <- { entry with Decode.blocks };
  let d = { d with Decode.funcs } in
  Alcotest.(check bool) "a later checkpoint remains" true
    (Array.exists (fun b -> b.Decode.checkpoint) blocks);
  let golden = Simulator.run_decoded d in
  let fuel = 20 * golden.Outcome.dyn_insns in
  (* Count checkpoint block tops passed before the run ends. *)
  let plain fault =
    let hits = ref 0 in
    let on_block _ _ cur = if blocks.(cur).Decode.checkpoint then incr hits in
    let r =
      Casted_sim.Compile.run ~fault ~fuel ~with_mem_digest:true ~on_block
        (Casted_sim.Compile.of_decoded d)
    in
    (r, !hits)
  in
  let rec find def =
    if def >= golden.Outcome.dyn_defs then
      Alcotest.fail "no fault is detected before the first checkpoint"
    else
      let fault = Fault.Reg_flip { target_slot = def; bit = 3 } in
      match plain fault with
      | ({ Outcome.termination = Outcome.Detected _; _ } as r), 0 -> (fault, r)
      | _ -> find (def + 1)
  in
  let fault, once = find 0 in
  let r =
    Simulator.run_recovering ~fault ~fuel ~with_mem_digest:true
      ~retry_budget:3 d
  in
  Alcotest.(check string) "original failure, no retries" (render_run once)
    (render_run r)

(* Fault-free, a checkpointed schedule runs exactly as without
   rollback support: checkpoints are counted, never materialized, and
   no work is folded in. *)
let test_rollback_fault_free_is_plain_run () =
  List.iter
    (fun name ->
      let d = rollback_decoded name in
      let plain = Simulator.run_decoded ~with_mem_digest:true d in
      let r =
        Simulator.run_recovering ~with_mem_digest:true ~retry_budget:3 d
      in
      Alcotest.(check string) (name ^ ": rendered") (render_run plain)
        (render_run r);
      Alcotest.(check bool) (name ^ ": field for field") true (plain = r))
    [ "cjpeg"; "181.mcf" ]

(* An entry function that returns instead of halting still owes its
   rollbacks to the tally: a repaired run is Recovered, not Exit 0. *)
let test_rollback_returning_entry_recovered () =
  let b = B.create ~name:"main" () in
  let base = B.movi b 0x100L in
  let acc = B.movi b 7L in
  B.counted_loop b ~from:0L ~until:16L (fun b i ->
      let x = B.mul b acc acc in
      let y = B.add b x i in
      let (_ : Reg.t) = B.andi b ~dst:acc y 0x1FFFL in
      B.st b Opcode.W8 ~value:acc ~base 0L);
  let out = B.movi b 0x40L in
  let v = B.ld b Opcode.W8 base 0L in
  B.st b Opcode.W8 ~value:v ~base:out 0L;
  B.ret b ();
  let p =
    Program.make ~funcs:[ B.finish b ] ~entry:"main" ~mem_size:(1 lsl 16)
      ~data:[] ~output_base:0x40 ~output_len:8 ()
  in
  Casted_ir.Validate.check_exn p;
  let d = decode_rollback p in
  let golden = Simulator.run_decoded d in
  Alcotest.(check bool) "entry returns" true
    (golden.Outcome.termination = Outcome.Exit 0);
  let fuel = 20 * golden.Outcome.dyn_insns in
  let rec find def =
    if def >= golden.Outcome.dyn_defs then
      Alcotest.fail "no detected fault is repaired by a rollback"
    else
      let fault = Fault.Reg_flip { target_slot = def; bit = 11 } in
      match (Simulator.run_decoded ~fault ~fuel d).Outcome.termination with
      | Outcome.Detected _ ->
          let r = Simulator.run_recovering ~fault ~fuel ~retry_budget:1 d in
          if r.Outcome.output = golden.Outcome.output then r
          else find (def + 1)
      | _ -> find (def + 1)
  in
  let r = find 0 in
  if r.Outcome.termination <> Outcome.Recovered { exit_code = 0; retries = 1 }
  then
    Alcotest.failf "repaired returning entry reported %a"
      Outcome.pp_termination r.Outcome.termination;
  Alcotest.(check string) "classified Recovered"
    (Montecarlo.class_name Montecarlo.Recovered)
    (Montecarlo.class_name (Montecarlo.classify ~golden r))

let suite =
  ( "recover",
    [
      case "semantics preserved on all workloads" test_semantics_preserved;
      case "triplication statistics" test_stats_shape;
      case "float operands fall back to checks"
        test_fallback_checks_for_float;
      case "single faults are corrected (systematic sweep)"
        test_faults_are_recovered;
      case "recovery completes where detection stops"
        test_recovery_beats_detection_on_completion;
      case "TMR single-fault trial is bit-identical to golden"
        test_tmr_single_fault_bit_identity;
      case "rollback retry budget exhausts on a poisoned snapshot"
        test_rollback_budget_exhaustion;
      case "TMR reg-bit campaign recovers a strict majority"
        test_tmr_majority_recovered;
      case "recovery costs more than detection" test_recovery_overhead_larger;
      case "rollback outcomes pinned (cjpeg, parser, mcf)"
        test_rollback_outcomes_pinned;
      case "rollback poisoned checkpoint rebuilt from a retry"
        test_rollback_poisoned_retry_chain;
      case "rollback detected before the first checkpoint"
        test_rollback_detected_before_first_checkpoint;
      case "rollback fault-free run equals the plain run"
        test_rollback_fault_free_is_plain_run;
      case "rollback returning entry reports Recovered"
        test_rollback_returning_entry_recovered;
    ] )
