module W = Casted_workloads.Workload
module Scheme = Casted_detect.Scheme
module Options = Casted_detect.Options
module Transform = Casted_detect.Transform
module Pipeline = Casted_detect.Pipeline
module Bug = Casted_sched.Bug
module Outcome = Casted_sim.Outcome
module Montecarlo = Casted_sim.Montecarlo
module Engine = Casted_engine.Engine
module Cache = Casted_engine.Cache

let seed = 0xCA57ED

(* Fault-free cycles of one fault-sized engine cell. *)
let cycles engine ?options ?bug_options workload scheme ~issue ~delay =
  let key =
    Cache.key ?options ?bug_options ~workload ~size:W.Fault ~scheme
      ~issue_width:issue ~delay ()
  in
  (snd (Engine.simulate engine key)).Outcome.cycles

(* Ablations of the design decisions called out in DESIGN.md SS5. *)

let tie_break engine =
  Table.render
    ~headers:[ "issue"; "delay"; "prefer-lower"; "prefer-critical-pred" ]
    (List.concat_map
       (fun issue ->
         List.map
           (fun delay ->
             let with_tie tie_break =
               string_of_int
                 (cycles engine ~bug_options:{ Bug.tie_break } "cjpeg"
                    Scheme.Casted ~issue ~delay)
             in
             [
               string_of_int issue; string_of_int delay;
               with_tie Bug.Prefer_lower; with_tie Bug.Prefer_critical_pred;
             ])
           [ 1; 4 ])
       [ 1; 2; 4 ])

let store_checks engine =
  let sced ?options () =
    cycles engine ?options "cjpeg" Scheme.Sced ~issue:2 ~delay:2
  in
  let with_checks = sced () in
  let without =
    sced ~options:{ Options.default with Options.check_stores = false } ()
  in
  Printf.sprintf
    "SCED with store checks: %d cycles; without: %d cycles (%.1f%% of \
     execution)\n"
    with_checks without
    (100.0 *. float_of_int (with_checks - without) /. float_of_int with_checks)

let perfect_cache engine =
  String.concat ""
    (List.map
       (fun scheme ->
         let key =
           Cache.key ~workload:"181.mcf" ~size:W.Fault ~scheme ~issue_width:2
             ~delay:2 ()
         in
         let compiled, real = Engine.simulate engine key in
         (* The perfect-cache mode exists on the reference interpreter. *)
         let ideal =
           Casted_sim.Simulator.reference ~perfect_cache:true
             (Casted_sim.Decode.of_schedule compiled.Pipeline.schedule)
         in
         Printf.sprintf "%-7s real cache %6d cycles, perfect L1 %6d cycles\n"
           (Scheme.name scheme) real.Outcome.cycles ideal.Outcome.cycles)
       Scheme.all)

(* A straight-line kernel: block-local value numbering can only merge
   the redundant stream into the original when no loop-carried
   registers separate them, which is the regime where GCC's global CSE
   operates on real code. *)
let cse_kernel () =
  let module B = Casted_ir.Builder in
  let b = B.create ~name:"main" () in
  let base = B.movi b 0x100L in
  let acc = ref (B.movi b 3L) in
  for i = 0 to 15 do
    let x = B.mul b !acc !acc in
    let y = B.addi b x (Int64.of_int i) in
    acc := B.andi b y 0xFFFL;
    B.st b Casted_ir.Opcode.W8 ~value:!acc ~base 0L
  done;
  let out = B.movi b 0x40L in
  let v = B.ld b Casted_ir.Opcode.W8 base 0L in
  B.st b Casted_ir.Opcode.W8 ~value:v ~base:out 0L;
  let zero = B.movi b 0L in
  B.halt b ~code:zero ();
  Casted_ir.Program.make ~funcs:[ B.finish b ] ~entry:"main"
    ~mem_size:(1 lsl 16) ~output_base:0x40 ~output_len:8 ()

(* The three campaigns of [cse_on_hardened] run on a hand-built kernel,
   not an engine cell, so every pass simulates them outside the store. *)
let unstored_trials ~trials = 3 * trials

let cse_on_hardened engine ~trials =
  let module Pass = Casted_opt.Pass in
  let hardened, _ = Transform.program Options.default (cse_kernel ()) in
  let config = Casted_machine.Config.single_core ~issue_width:2 in
  let measure label p =
    let s =
      Casted_sched.List_scheduler.schedule_program config
        Casted_sched.Assign.Single_cluster p
    in
    let mc = Montecarlo.run ~pool:(Engine.pool engine) ~seed ~trials s in
    Printf.sprintf "%-26s %6d insns, detected %5.1f%%, corrupt %5.1f%%\n" label
      (Casted_ir.Program.num_insns p)
      (Montecarlo.percent mc Montecarlo.Detected)
      (Montecarlo.percent mc Montecarlo.Data_corrupt)
  in
  let safe, _ =
    Pass.run_program ~preserve_detection:true Pass.standard hardened
  in
  let unsafe, _ =
    Pass.run_to_fixpoint ~preserve_detection:false ~max_rounds:50 Pass.standard
      hardened
  in
  String.concat ""
    (List.map
       (fun (label, p) -> measure label p)
       [
         ("no late passes", hardened); ("role-aware CSE/DCE", safe);
         ("role-blind CSE/DCE", unsafe);
       ])
  ^ "(role-blind value numbering merges each replica into its original, so\n\
    \ the checks become tautologies and coverage collapses to NOED levels\n\
    \ -- the reason the paper disables the late CSE/DCE, SS IV-A)\n"

(* Shoestring-style partial redundancy: SCED with every instruction
   replicated vs SCED replicating only the store-operand slice. *)
let selective engine ?store ~trials () =
  let row name =
    let base = Coverage.noed_cycles engine ~benchmark:name ~issue:2 in
    let measure options =
      let key =
        Cache.key ~options ~workload:name ~size:W.Fault ~scheme:Scheme.Sced
          ~issue_width:2 ~delay:2 ()
      in
      let stats = (Engine.compile engine key).Pipeline.stats in
      let mc = Engine.campaign engine ~seed ?store ~trials key in
      ( stats.Transform.replicas,
        float_of_int mc.Montecarlo.golden_cycles /. float_of_int base,
        Montecarlo.percent mc Montecarlo.Detected,
        Montecarlo.percent mc Montecarlo.Data_corrupt )
    in
    let freps, fslow, fdet, fsdc = measure Options.default in
    let sreps, sslow, sdet, ssdc =
      measure { Options.default with Options.scope = Options.Store_slice }
    in
    Printf.sprintf
      "%-10s full: %4d replicas, %.2fx, detected %5.1f%%, corrupt %4.1f%%  \
       ||  slice: %4d replicas, %.2fx, detected %5.1f%%, corrupt %4.1f%%\n"
      name freps fslow fdet fsdc sreps sslow sdet ssdc
  in
  String.concat "" (List.map row [ "cjpeg"; "h263enc"; "197.parser" ])

let run ~engine ?store ?benchmarks ~size ~trials () =
  let buf = Buffer.create 65536 in
  let section title body =
    Printf.bprintf buf "\n================ %s ================\n%s" title body
  in
  Printf.bprintf buf
    "CASTED reproduction: Tables I-III, Figs. 6-10, ablations and \
     extensions\n\
     seed 0x%X, %d trials per campaign, fault model reg-bit (DME: mem, \
     xcluster)\n\
     inputs: %s size for the Figs. 6-8 sweep, fault size for campaigns and \
     ablations\n"
    seed trials (W.size_name size);
  section "Table I: processor configuration"
    (Static_tables.table1
       (Casted_machine.Config.dual_core ~issue_width:2 ~delay:2));
  section "Table II: benchmarks" (Static_tables.table2 ());
  section "Table III: compiler-based error-detection schemes"
    (Static_tables.table3 ());
  let sweep = Perf_sweep.run ~engine ~size ?benchmarks () in
  section "Figs. 6-7: slowdown vs NOED (issue 1-4 x delay 1-4)"
    (Perf_sweep.render_all sweep);
  section "Headline (paper SS IV-B / VI)"
    (Perf_sweep.render_summary (Perf_sweep.summarize sweep));
  section "Fig. 8: ILP scaling (speedup vs issue 1, delay 1)"
    (Scaling.render_all sweep);
  section
    (Printf.sprintf "Fig. 9: fault coverage, issue 2 delay 2 (%d trials)"
       trials)
    (Coverage.render
       (Coverage.fig9 ~engine ~seed ?store ~trials ?benchmarks ()));
  section
    (Printf.sprintf
       "Fig. 10: h263dec fault coverage across configurations (%d trials)"
       trials)
    (Coverage.render
       (Coverage.fig10 ~engine ~seed ?store ~trials ~benchmark:"h263dec" ()));
  section "Ablation: BUG tie-breaking (CASTED cycles, cjpeg)"
    (tie_break engine);
  section "Ablation: store-operand checks (cjpeg, issue 2 delay 2)"
    (store_checks engine);
  section "Ablation: perfect cache (181.mcf, issue 2 delay 2)"
    (perfect_cache engine);
  let concat_map f xs = String.concat "" (List.map f xs) in
  section "Placement: where does the code go? (SS IV-B6, adaptivity)"
    (concat_map
       (fun benchmark ->
         Utilization.placement_table ~engine ~benchmark ~size:W.Fault
           ~issue_width:2 ~delays:[ 1; 2; 3; 4 ])
       [ "cjpeg"; "181.mcf" ]);
  section "Recovery: CASTED vs TMR vs ROLLBACK (issue 2 delay 2)"
    (concat_map
       (fun benchmark ->
         Coverage.recovery_table ~engine ~seed ?store ~trials ~benchmark
           ~issue:2 ~delay:2 ())
       [ "cjpeg"; "h263dec" ]);
  section "DME escape coverage: CASTED vs DME (cjpeg, issue 2 delay 2)"
    (Coverage.render_dme
       (Coverage.dme_coverage ~engine ~seed ?store ~trials ~benchmark:"cjpeg"
          ()));
  section "Ablation: late CSE/DCE on hardened code (SS IV-A)"
    (cse_on_hardened engine ~trials);
  section "Ablation: partial redundancy (Shoestring-style store slice)"
    (selective engine ?store ~trials ());
  Buffer.contents buf
