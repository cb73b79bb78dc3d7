(* Golden-outcome regression suite: the simulator must reproduce the
   committed fixture (test/golden_fixture.ml) bit for bit, on both
   engines — the production closure-threaded engine and the reference
   interpreter.

   The fixture was generated before the pre-decoded interpreter core
   landed, so these tests are the proof that decoding and stage-2
   compilation are pure performance transformations: every cycle count,
   every dynamic counter an injection campaign sizes its population
   from, the exit code and the output bytes are compared against frozen
   values. A failure here means the simulator's semantics or timing
   changed — see tools/gen_golden for the (intentional-change-only)
   regeneration procedure. *)

module W = Casted_workloads.Workload
module Registry = Casted_workloads.Registry
module Scheme = Casted_detect.Scheme
module Pipeline = Casted_detect.Pipeline
module Simulator = Casted_sim.Simulator
module Decode = Casted_sim.Decode
module Compile = Casted_sim.Compile
module Replay = Casted_sim.Replay
module Outcome = Casted_sim.Outcome

let scheme_of_name name =
  match List.find_opt (fun s -> String.equal (Scheme.name s) name) Scheme.all with
  | Some s -> s
  | None -> Alcotest.failf "fixture names unknown scheme %S" name

let decoded_entry (e : Golden_fixture.entry) =
  let w =
    match Registry.find e.Golden_fixture.workload with
    | Some w -> w
    | None -> Alcotest.failf "fixture names unknown workload %S" e.workload
  in
  let program = w.W.build W.Fault in
  let compiled =
    Pipeline.compile
      ~scheme:(scheme_of_name e.Golden_fixture.scheme)
      ~issue_width:e.Golden_fixture.issue ~delay:e.Golden_fixture.delay
      program
  in
  Decode.of_schedule compiled.Pipeline.schedule

let check_pinned engine (e : Golden_fixture.entry) (r : Outcome.run) =
  let ck what = Alcotest.(check int) (engine ^ ": " ^ what) in
  ck "cycles" e.Golden_fixture.cycles r.Outcome.cycles;
  ck "dyn_insns" e.Golden_fixture.dyn_insns r.Outcome.dyn_insns;
  ck "dyn_defs" e.Golden_fixture.dyn_defs r.Outcome.dyn_defs;
  ck "dyn_mem" e.Golden_fixture.dyn_mem r.Outcome.dyn_mem;
  ck "dyn_branches" e.Golden_fixture.dyn_branches r.Outcome.dyn_branches;
  ck "dyn_xreads" e.Golden_fixture.dyn_xreads r.Outcome.dyn_xreads;
  ck "dyn_checks" e.Golden_fixture.dyn_checks r.Outcome.dyn_checks;
  ck "exit_code" e.Golden_fixture.exit_code r.Outcome.exit_code;
  Alcotest.(check string)
    (engine ^ ": output md5")
    e.Golden_fixture.output_md5
    (Digest.to_hex (Digest.string r.Outcome.output))

let check_entry (e : Golden_fixture.entry) () =
  let d = decoded_entry e in
  check_pinned "compiled" e (Simulator.run_decoded d);
  check_pinned "reference" e (Simulator.reference d)

(* Also pin that the convenience entry point is literally the decoded
   path: run and run_decoded-of-decode agree on a fixture entry. *)
let test_run_matches_run_decoded () =
  match Golden_fixture.entries with
  | [] -> Alcotest.fail "empty golden fixture"
  | e :: _ ->
      let w = Option.get (Registry.find e.Golden_fixture.workload) in
      let program = w.W.build W.Fault in
      let compiled =
        Pipeline.compile
          ~scheme:(scheme_of_name e.Golden_fixture.scheme)
          ~issue_width:e.Golden_fixture.issue ~delay:e.Golden_fixture.delay
          program
      in
      let sched = compiled.Pipeline.schedule in
      let a = Simulator.run sched in
      let b = Simulator.run_decoded (Decode.of_schedule sched) in
      Alcotest.(check bool) "identical outcomes" true (a = b)

(* The replay path must land on the same frozen fixture: capture a
   snapshot set on each entry (on the compiled engine, as campaigns
   do) and check that resuming from the LAST snapshot (the most state
   restored, the least re-executed) still reproduces every pinned
   field, on either engine. *)
let check_entry_replayed (e : Golden_fixture.entry) () =
  let d = decoded_entry e in
  let p = Compile.of_decoded d in
  let capture =
    Replay.capture ~init_stride:64 ~target:16 (fun ~on_block ->
        Compile.run ~on_block p)
  in
  let snaps = Replay.snapshots capture in
  if Array.length snaps = 0 then
    Alcotest.failf "no snapshots captured for %s" e.Golden_fixture.workload;
  let snapshot = snaps.(Array.length snaps - 1) in
  check_pinned "compiled" e (Compile.run ~snapshot p);
  check_pinned "reference" e (Simulator.reference ~snapshot d)

let suite =
  let case e =
    Alcotest.test_case
      (Printf.sprintf "%s %s issue=%d delay=%d" e.Golden_fixture.workload
         e.Golden_fixture.scheme e.Golden_fixture.issue
         e.Golden_fixture.delay)
      `Quick (check_entry e)
  in
  let replay_case e =
    Alcotest.test_case
      (Printf.sprintf "replayed: %s %s issue=%d delay=%d"
         e.Golden_fixture.workload e.Golden_fixture.scheme
         e.Golden_fixture.issue e.Golden_fixture.delay)
      `Quick
      (check_entry_replayed e)
  in
  ( "golden",
    (Alcotest.test_case "run = run_decoded . decode" `Quick
       test_run_matches_run_decoded
    :: List.map case Golden_fixture.entries)
    @ List.map replay_case Golden_fixture.entries )
