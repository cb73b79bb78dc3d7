(* Golden-prefix replay: the whole point of the snapshotable state
   layer is that a trial restored from a snapshot is bit-identical to
   the same trial executed full-length — for every fault model, every
   snapshot stride, and every pool size. These tests pin that, plus the
   [Replay.find] search contract. *)

open Helpers
module Fault = Casted_sim.Fault
module Rng = Casted_sim.Rng
module Montecarlo = Casted_sim.Montecarlo
module Decode = Casted_sim.Decode
module Replay = Casted_sim.Replay
module State = Casted_sim.State
module Pool = Casted_exec.Pool

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

(* Campaign invariance: replay on, replay off, sequential and pooled
   all land on the same tally, for every fault model. *)
let test_campaign_replay_invariant () =
  let sched = schedule () in
  List.iter
    (fun model ->
      let run ?pool ~replay () =
        Montecarlo.run ?pool ~seed:42 ~model ~trials:128 ~replay sched
      in
      let off = run ~replay:false () in
      let on_seq = run ~replay:true () in
      let name = Fault.model_name model in
      same_counts (name ^ ": replay on vs off") off on_seq;
      Alcotest.(check bool)
        (name ^ ": off reports no replay stats")
        true (off.Montecarlo.replay = None);
      (match on_seq.Montecarlo.replay with
      | None -> Alcotest.fail (name ^ ": replay stats missing")
      | Some s ->
          Alcotest.(check int)
            (name ^ ": every trial accounted")
            128
            (s.Montecarlo.replayed + s.Montecarlo.full_runs);
          Alcotest.(check bool)
            (name ^ ": mean suffix within [0,1]")
            true
            (s.Montecarlo.mean_suffix >= 0.0 && s.Montecarlo.mean_suffix <= 1.0));
      Pool.with_pool ~jobs:4 (fun pool ->
          same_counts
            (name ^ ": replay pooled vs sequential full")
            off
            (run ~pool ~replay:true ())))
    Fault.all_models

(* [Replay.find] returns the latest snapshot whose armed counter is
   still at or below the fault's target — and None only when even the
   first one is past it. *)
let test_find_latest_valid () =
  let d = decoded () in
  let r = capture ~init_stride:1 ~target:16 d in
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
    ] )
