(* Golden-prefix replay: the whole point of the snapshotable state
   layer is that a trial restored from a snapshot is bit-identical to
   the same trial executed full-length — for every fault model, every
   snapshot stride, and every pool size. These tests pin that, plus the
   [Replay.find] search contract and the re-convergence early exit: the
   architectural-equality predicate it rests on, and per-trial classes
   identical to the watcher-free run over the whole workload matrix. *)

open Helpers
module Fault = Casted_sim.Fault
module Rng = Casted_sim.Rng
module Montecarlo = Casted_sim.Montecarlo
module Decode = Casted_sim.Decode
module Replay = Casted_sim.Replay
module State = Casted_sim.State
module Pool = Casted_exec.Pool
module Memory = Casted_sim.Memory
module Compile = Casted_sim.Compile
module W = Casted_workloads.Workload

(* Same shape as the campaign tests' kernel: loads, stores and
   conditional branches so every fault model has a non-empty population
   under CASTED (dual cluster: cross-cluster reads exist too). *)
let kernel () =
  program_of (fun b ->
      let base = B.movi b 0x100L in
      let acc = B.movi b 1L in
      B.counted_loop b ~from:0L ~until:12L (fun b i ->
          let x = B.mul b acc acc in
          let y = B.add b x i in
          let (_ : Reg.t) = B.andi b ~dst:acc y 0xFFFFL in
          B.st b Opcode.W8 ~value:acc ~base 0L);
      let out = B.movi b 0x40L in
      let v = B.ld b Opcode.W8 base 0L in
      B.st b Opcode.W8 ~value:v ~base:out 0L)

let schedule () =
  let c =
    Pipeline.compile ~scheme:Scheme.Casted ~issue_width:2 ~delay:2 (kernel ())
  in
  c.Pipeline.schedule

let decoded () = Decode.of_schedule (schedule ())

let same_counts msg (a : Montecarlo.result) (b : Montecarlo.result) =
  let ck field = Alcotest.(check int) (msg ^ ": " ^ field) in
  ck "trials" a.Montecarlo.trials b.Montecarlo.trials;
  ck "benign" a.Montecarlo.benign b.Montecarlo.benign;
  ck "detected" a.Montecarlo.detected b.Montecarlo.detected;
  ck "exceptions" a.Montecarlo.exceptions b.Montecarlo.exceptions;
  ck "corrupt" a.Montecarlo.corrupt b.Montecarlo.corrupt;
  ck "timeouts" a.Montecarlo.timeouts b.Montecarlo.timeouts

(* The capture pass's golden run is bit-identical to a plain decoded
   run: the snapshot hook only copies state. *)
let test_capture_golden_identical () =
  let d = decoded () in
  let plain = Simulator.run_decoded d in
  let r = capture ~init_stride:4 ~target:8 d in
  Alcotest.(check bool) "snapshots captured" true (Replay.count r > 0);
  Alcotest.(check bool) "golden identical" true (Replay.golden r = plain)

(* The core property: for every fault model and several snapshot
   strides, a trial replayed from the snapshot [Replay.find] picks is
   field-for-field identical (cycles, every counter, output, memory
   digest, cache stats) to the same fault executed from scratch. *)
let test_trials_bit_identical () =
  let d = decoded () in
  let p = Casted_sim.Compile.of_decoded d in
  let g = Montecarlo.golden_decoded d in
  let fuel = g.Montecarlo.fuel in
  let captures =
    List.map
      (fun (init_stride, target) -> capture ~init_stride ~target d)
      [ (1, 4); (4, 16); (32, 64) ]
  in
  let replayed_total = ref 0 in
  List.iter
    (fun model ->
      if Fault.population_size model g.Montecarlo.pop > 0 then
        for index = 0 to 39 do
          let rng = Rng.create ~seed:(Rng.derive ~seed:7 index) in
          let fault = Fault.random model rng ~population:g.Montecarlo.pop in
          let full =
            Simulator.run_decoded ~fault ~fuel ~with_mem_digest:true d
          in
          List.iter
            (fun r ->
              match Replay.find r fault with
              | None -> ()
              | Some snapshot ->
                  incr replayed_total;
                  let replayed =
                    Simulator.run_compiled_replayed ~fault ~fuel
                      ~with_mem_digest:true ~snapshot p
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s trial %d: replayed = full"
                       (Fault.model_name model) index)
                    true (replayed = full))
            captures
        done)
    Fault.all_models;
  Alcotest.(check bool) "replay path exercised" true (!replayed_total > 100)

(* Campaign invariance: the full-length reference (every trial tallied
   from a golden run with no snapshot set), the replaying campaign,
   sequential and pooled, all land on the same tally, for every fault
   model. The kernel is shorter than the default first stride, so the
   same trials also run, and are tallied, against a golden carrying a
   dense snapshot set, where trials both restore a snapshot and stop
   early at a later one. *)
let test_campaign_replay_invariant () =
  let sched = schedule () in
  let d = decoded () in
  let p = Compile.of_decoded d in
  let dense =
    Montecarlo.golden_decoded ~replay_set:(capture ~init_stride:4 ~target:8 d) d
  in
  let trials = 128 in
  List.iter
    (fun model ->
      let run ?pool () = Montecarlo.run ?pool ~seed:42 ~model ~trials sched in
      let run_dense ?pool () =
        let one index =
          Montecarlo.trial ~model ~golden:dense ~seed:42 ~index p
        in
        let indices = Array.init trials Fun.id in
        Montecarlo.tally ~model ~golden:dense
          (match pool with
          | Some pool -> Pool.map pool one indices
          | None -> Array.map one indices)
      in
      let off = full_length_tally ~model ~seed:42 ~trials d in
      let on_seq = run () in
      (* A trial that re-converges stops before its run finishes, so
         [sim.runs] does not count it. *)
      let dense_seq, finished =
        with_metrics (fun () ->
            let r = run_dense () in
            (r, counter "sim.runs"))
      in
      let name = Fault.model_name model in
      same_counts (name ^ ": replay vs full-length") off on_seq;
      same_counts (name ^ ": dense replay vs full-length") off dense_seq;
      (match on_seq.Montecarlo.replay with
        | None -> Alcotest.fail (name ^ ": replay stats missing")
        | Some s ->
            Alcotest.(check int)
              (name ^ ": every trial accounted")
              trials
              (s.Montecarlo.replayed + s.Montecarlo.full_runs);
            Alcotest.(check bool)
              (name ^ ": mean suffix within [0,1]")
              true
              (s.Montecarlo.mean_suffix >= 0.0
              && s.Montecarlo.mean_suffix <= 1.0);
            Alcotest.(check bool)
              (name ^ ": converged <= replayed + full runs")
              true
              (s.Montecarlo.converged
              <= s.Montecarlo.replayed + s.Montecarlo.full_runs));
      if model = Fault.Reg_bit then
        Alcotest.(check bool)
          (name ^ ": some dense trials re-converge early")
          true (finished < trials);
      Pool.with_pool ~jobs:4 (fun pool ->
          same_counts
            (name ^ ": replay pooled vs sequential full")
            off (run ~pool ());
          same_counts
            (name ^ ": dense replay pooled vs sequential full")
            off (run_dense ~pool ())))
    Fault.all_models

(* [Replay.find] returns the latest snapshot whose armed counter is
   still at or below the fault's target — and None only when even the
   first one is past it. *)
let test_find_latest_valid () =
  let d = decoded () in
  let r = capture ~init_stride:1 ~target:16 d in
  let cache = d.Decode.config.Casted_machine.Config.cache in
  let snaps = Replay.snapshots r in
  Alcotest.(check bool) "dense capture" true (Array.length snaps > 2);
  Array.iteri
    (fun i s ->
      if i > 0 then
        Alcotest.(check bool) "defs counter nondecreasing" true
          (snaps.(i - 1).State.s_defs <= s.State.s_defs))
    snaps;
  let max_defs = snaps.(Array.length snaps - 1).State.s_defs in
  for target_slot = 0 to max_defs + 2 do
    let fault = Fault.Reg_flip { target_slot; bit = 0 } in
    (* [fired] on the machine a snapshot restores: not yet at the
       chosen start, always by the snapshot after it. *)
    let fired i =
      let st, _ = State.restore ~cache snaps.(i) in
      Replay.fired fault st
    in
    (match Replay.find_index r fault with
    | Some i ->
        Alcotest.(check bool) "not fired at the start" false (fired i);
        if i + 1 < Array.length snaps then
          Alcotest.(check bool) "fired by the next snapshot" true
            (fired (i + 1))
    | None ->
        Alcotest.(check bool) "fired by the first snapshot" true (fired 0));
    match Replay.find r fault with
    | None ->
        Alcotest.(check bool) "none only before first snapshot" true
          (snaps.(0).State.s_defs > target_slot)
    | Some s ->
        Alcotest.(check bool) "chosen snapshot valid" true
          (s.State.s_defs <= target_slot);
        Array.iter
          (fun s' ->
            if s'.State.s_dyn > s.State.s_dyn then
              Alcotest.(check bool) "no later valid snapshot" true
                (s'.State.s_defs > target_slot))
          snaps
  done

(* ---- Re-convergence: State.matches and the early exit ---- *)

(* A restored golden snapshot is architecturally itself. *)
let test_restored_snapshot_matches () =
  let r = capture ~init_stride:4 ~target:8 (decoded ()) in
  let cache = (decoded ()).Decode.config.Casted_machine.Config.cache in
  Alcotest.(check bool) "snapshots captured" true (Replay.count r > 2);
  Array.iteri
    (fun i snap ->
      let st, regs = State.restore ~cache snap in
      Alcotest.(check bool)
        (Printf.sprintf "snapshot %d matches itself" i)
        true
        (State.matches st regs ~block:snap.State.block snap))
    (Replay.snapshots r)

(* Each single architectural difference breaks the match: a GP bit, FP
   zero signs, NaN payloads, a predicate, a memory byte, the block. The
   golden side is a snapshot of the restored machine itself, so every
   mutation below is the only difference. *)
let test_mismatch_mutants () =
  let d = decoded () in
  let r = capture ~init_stride:4 ~target:8 d in
  let cache = d.Decode.config.Casted_machine.Config.cache in
  let snaps = Replay.snapshots r in
  let snap = snaps.(Array.length snaps / 2) in
  let st, regs = State.restore ~cache snap in
  let block = snap.State.block in
  let matches golden = State.matches st regs ~block golden in
  let golden () = State.snapshot st ~regs ~block in
  let expect msg want golden =
    Alcotest.(check bool) msg want (matches golden)
  in
  (* GP: one flipped bit. *)
  let g = golden () in
  let b0 = Bytes.get regs.State.gp 0 in
  Bytes.set regs.State.gp 0 (Char.chr (Char.code b0 lxor 0x10));
  expect "flipped GP bit" false g;
  Bytes.set regs.State.gp 0 b0;
  expect "GP restored" true g;
  (* FP: 0.0 vs -0.0, then two NaNs with different payloads. *)
  regs.State.fpv.(0) <- 0.0;
  let g = golden () in
  regs.State.fpv.(0) <- -0.0;
  expect "FP -0.0 vs 0.0" false g;
  let nan1 = Int64.float_of_bits 0x7FF8_0000_0000_0001L in
  let nan2 = Int64.float_of_bits 0x7FF8_0000_0000_0002L in
  regs.State.fpv.(0) <- nan1;
  let g = golden () in
  expect "same NaN payload" true g;
  regs.State.fpv.(0) <- nan2;
  expect "different NaN payload" false g;
  regs.State.fpv.(0) <- nan1;
  (* Predicates. *)
  let g = golden () in
  regs.State.prv.(0) <- not regs.State.prv.(0);
  expect "flipped predicate" false g;
  regs.State.prv.(0) <- not regs.State.prv.(0);
  expect "predicate restored" true g;
  (* Memory: a byte in a page no one had dirtied. *)
  let g = golden () in
  let addr = Int64.of_int (Memory.size st.State.mem - 8) in
  let old = Memory.read st.State.mem ~addr ~width:Opcode.W1 ~signed:false in
  Memory.write st.State.mem ~addr ~width:Opcode.W1 (Int64.logxor old 1L);
  expect "byte in a page only the trial dirtied" false g;
  Memory.write st.State.mem ~addr ~width:Opcode.W1 old;
  expect "byte written back" true g;
  (* Same dynamic count, another block. *)
  Alcotest.(check bool) "same dyn, different block" false
    (State.matches st regs ~block:(block + 1) g);
  (* A later snapshot sits at another dynamic count. *)
  Alcotest.(check bool) "later snapshot" false
    (matches snaps.(Array.length snaps - 1))

(* Memory.matches page by page, on bare arenas: pages only the trial
   dirtied, only the golden run dirtied, both, and a ragged last page;
   the comparison leaves the journal as it found it. *)
let test_memory_matches () =
  let size = (2 * 4096) + 13 in
  let base = Memory.pristine ~size [ (0, "pristine") ] in
  let write m addr v =
    Memory.write m ~addr:(Int64.of_int addr) ~width:Opcode.W1 (Int64.of_int v)
  in
  let read m addr =
    Int64.to_int
      (Memory.read m ~addr:(Int64.of_int addr) ~width:Opcode.W1 ~signed:false)
  in
  let clean = Memory.delta (Memory.of_image base) in
  let check msg want m d =
    Alcotest.(check bool) msg want (Memory.matches m ~base d)
  in
  (* Trial-only page. *)
  let m = Memory.of_image base in
  check "untouched arena" true m clean;
  write m 5000 7;
  check "page only the trial dirtied" false m clean;
  write m 5000 0;
  check "page dirtied back to pristine" true m clean;
  (* Golden-only page: the golden run wrote the ragged last page. *)
  let g = Memory.of_image base in
  write g (size - 1) 9;
  let dg = Memory.delta g in
  let m = Memory.of_image base in
  check "page only the golden run dirtied" false m dg;
  Memory.apply_delta m dg;
  check "delta applied" true m dg;
  (* Both sides dirtied the page, one byte differs. *)
  write m (size - 2) 1;
  check "page both dirtied, a byte differs" false m dg;
  write m (size - 2) 0;
  check "page both dirtied, equal" true m dg;
  (* A trial-only page after a matching delta page. *)
  write m 10 1;
  check "journal-only page after delta pages" false m dg;
  (* The journal survived: undo restores the pristine image. *)
  Memory.undo_writes m base;
  Alcotest.(check int) "undo after matches: last page" 0 (read m (size - 1));
  Alcotest.(check int) "undo after matches: first page" (Char.code 'p')
    (read m 0);
  check "undone arena is pristine" true m clean

(* Every registry workload x NOED/SCED/DCED/CASTED/DME/TMR x every
   fault model: the campaign trial (restore, run, stop on
   re-convergence) lands in the class of the same fault run to the end
   from the same snapshot with no watcher. *)
let test_early_exit_classes_match () =
  let trials = 10 in
  List.iter
    (fun name ->
      let w = Option.get (Casted_workloads.Registry.find name) in
      let program = w.W.build W.Fault in
      List.iter
        (fun scheme ->
          let c = Pipeline.compile ~scheme ~issue_width:2 ~delay:2 program in
          let d = Decode.of_schedule c.Pipeline.schedule in
          let p = Compile.of_decoded d in
          let g = Montecarlo.golden_decoded ~replay_set:(capture d) d in
          let r = Option.get g.Montecarlo.replay in
          List.iter
            (fun model ->
              if Fault.population_size model g.Montecarlo.pop > 0 then
                for index = 0 to trials - 1 do
                  let rng = Rng.create ~seed:(Rng.derive ~seed:11 index) in
                  let fault =
                    Fault.random model rng ~population:g.Montecarlo.pop
                  in
                  let full =
                    Montecarlo.classify_result ~golden:g.Montecarlo.run
                      (try
                         Ok
                           (Compile.run ~fault ~fuel:g.Montecarlo.fuel
                              ?snapshot:(Replay.find r fault) p)
                       with e -> Error e)
                  in
                  let early =
                    Montecarlo.trial ~model ~golden:g ~seed:11 ~index p
                  in
                  Alcotest.(check string)
                    (Printf.sprintf "%s/%s %s trial %d" name
                       (Scheme.name scheme) (Fault.model_name model) index)
                    (Montecarlo.class_name full)
                    (Montecarlo.class_name early)
                done)
            Fault.all_models)
        Scheme.[ Noed; Sced; Dced; Casted; Dme; Tmr ])
    (Casted_workloads.Registry.names ())

(* Rollback trials run untimed as well, region checkpoints rebuilt and
   restored untimed included: over every workload and fault model, the
   class of [Montecarlo.trial ~retry_budget] is the class of the same
   fault under the timed [Compile.run ~retry_budget]. *)
let test_rollback_untimed_classes_match () =
  let trials = 6 and retry_budget = 3 in
  let recovered = ref 0 in
  List.iter
    (fun name ->
      let w = Option.get (Casted_workloads.Registry.find name) in
      let c =
        Pipeline.compile ~scheme:Scheme.Rollback ~issue_width:2 ~delay:2
          (w.W.build W.Fault)
      in
      let d = Decode.of_schedule c.Pipeline.schedule in
      let p = Compile.of_decoded d in
      let g = Montecarlo.golden_decoded d in
      List.iter
        (fun model ->
          if Fault.population_size model g.Montecarlo.pop > 0 then
            for index = 0 to trials - 1 do
              let rng = Rng.create ~seed:(Rng.derive ~seed:11 index) in
              let fault = Fault.random model rng ~population:g.Montecarlo.pop in
              let timed =
                Montecarlo.classify_result ~golden:g.Montecarlo.run
                  (try
                     Ok
                       (Compile.run ~fault ~fuel:g.Montecarlo.fuel
                          ~retry_budget p)
                   with e -> Error e)
              in
              let untimed =
                Montecarlo.trial ~retry_budget ~model ~golden:g ~seed:11 ~index
                  p
              in
              if untimed = Montecarlo.Recovered then incr recovered;
              Alcotest.(check string)
                (Printf.sprintf "%s/ROLLBACK %s trial %d" name
                   (Fault.model_name model) index)
                (Montecarlo.class_name timed)
                (Montecarlo.class_name untimed)
            done)
        Fault.all_models)
    (Casted_workloads.Registry.names ());
  (* Some trials rolled back, so the untimed rebuild-and-restore path
     ran. *)
  Alcotest.(check bool) "some trials recovered" true (!recovered > 0)

let suite =
  ( "replay",
    [
      Alcotest.test_case "capture golden = plain run" `Quick
        test_capture_golden_identical;
      Alcotest.test_case "all models/strides: replayed = full" `Slow
        test_trials_bit_identical;
      Alcotest.test_case "campaigns: replay/pool invariant" `Slow
        test_campaign_replay_invariant;
      Alcotest.test_case "find picks latest valid snapshot" `Quick
        test_find_latest_valid;
      Alcotest.test_case "restored snapshot matches itself" `Quick
        test_restored_snapshot_matches;
      Alcotest.test_case "single differences break the match" `Quick
        test_mismatch_mutants;
      Alcotest.test_case "memory match: trial, golden, both pages" `Quick
        test_memory_matches;
      Alcotest.test_case "early exit: classes = watcher-free run" `Slow
        test_early_exit_classes_match;
      Alcotest.test_case "rollback: untimed trial class = timed run" `Slow
        test_rollback_untimed_classes_match;
    ] )
