(* Shared test utilities. *)

module B = Casted_ir.Builder
module Reg = Casted_ir.Reg
module Cond = Casted_ir.Cond
module Opcode = Casted_ir.Opcode
module Insn = Casted_ir.Insn
module Block = Casted_ir.Block
module Func = Casted_ir.Func
module Program = Casted_ir.Program
module Config = Casted_machine.Config
module Latency = Casted_machine.Latency
module Scheme = Casted_detect.Scheme
module Pipeline = Casted_detect.Pipeline
module Options = Casted_detect.Options
module Simulator = Casted_sim.Simulator
module Outcome = Casted_sim.Outcome

(* Wrap a single-block body into a runnable program. The body receives
   the builder; the program halts with exit code 0. Memory is 64 KiB. *)
let program_of ?(data = []) ?(output_base = 0x40) ?(output_len = 8) body =
  let b = B.create ~name:"main" () in
  body b;
  let zero = B.movi b 0L in
  B.halt b ~code:zero ();
  let p =
    Program.make ~funcs:[ B.finish b ] ~entry:"main" ~mem_size:(1 lsl 16)
      ~data ~output_base ~output_len ()
  in
  Casted_ir.Validate.check_exn p;
  p

(* Run a program unhardened on a simple 1-cluster machine and return the
   result. *)
let run_noed ?(issue_width = 2) program =
  let c =
    Pipeline.compile ~scheme:Scheme.Noed ~issue_width ~delay:1 program
  in
  Simulator.run c.Pipeline.schedule

let run_scheme ?(issue_width = 2) ?(delay = 2) scheme program =
  let c = Pipeline.compile ~scheme ~issue_width ~delay program in
  Simulator.run c.Pipeline.schedule

(* Run [f] with metrics collection on, then turn it back off and clear
   the registry, so the rest of the suite runs unobserved. *)
let with_metrics f =
  Casted_obs.Metrics.reset ();
  Casted_obs.Metrics.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Casted_obs.Metrics.set_enabled false;
      Casted_obs.Metrics.reset ())

(* A counter's merged value so far (0 if never incremented). *)
let counter name =
  match List.assoc_opt name (Casted_obs.Metrics.snapshot ()) with
  | Some (Casted_obs.Metrics.Counter n) -> n
  | _ -> 0

(* The stage-2 program campaigns and trials run on. *)
let compiled_of sched =
  Casted_sim.Compile.of_decoded (Casted_sim.Decode.of_schedule sched)

(* A golden-prefix snapshot set, captured on the compiled engine as
   campaigns capture it. *)
let capture ?init_stride ?target decoded =
  let p = Casted_sim.Compile.of_decoded decoded in
  Casted_sim.Replay.capture ?init_stride ?target (fun ~on_block ->
      Casted_sim.Compile.run ~on_block p)

(* The full-length reference a replaying campaign must reproduce: every
   trial drawn and tallied one by one against a golden run with no
   snapshot set, so no trial restores a snapshot or stops early. A
   model with no injection sites tallies no trials, as a campaign
   clamps them. *)
let full_length_tally ?retry_budget ~model ~seed ~trials decoded =
  let module Montecarlo = Casted_sim.Montecarlo in
  let golden = Montecarlo.golden_decoded decoded in
  let p = Casted_sim.Compile.of_decoded decoded in
  let trials =
    if Casted_sim.Fault.population_size model golden.Montecarlo.pop = 0 then 0
    else trials
  in
  Montecarlo.tally ~model ~golden
    (Array.init trials (fun index ->
         Montecarlo.trial ?retry_budget ~model ~golden ~seed ~index p))

(* Read the first 8 output bytes as an int64. *)
let out64 (r : Outcome.run) =
  if String.length r.Outcome.output < 8 then
    Alcotest.fail "output region too small";
  String.get_int64_le r.Outcome.output 0

(* A program that stores the result of [body] (a Gp register) to the
   output region and halts. *)
let compute_program body =
  program_of (fun b ->
      let v = body b in
      let out = B.movi b 0x40L in
      B.st b Opcode.W8 ~value:v ~base:out 0L)

(* Assert that a computation yields the given int64. *)
let check_compute name expected body =
  let r = run_noed (compute_program body) in
  (match r.Outcome.termination with
  | Outcome.Exit 0 -> ()
  | t ->
      Alcotest.failf "%s: did not exit cleanly: %a" name
        Outcome.pp_termination t);
  Alcotest.(check int64) name expected (out64 r)

(* Expect the program to trap. *)
let check_traps name body =
  let r = run_noed (compute_program body) in
  match r.Outcome.termination with
  | Outcome.Trapped _ -> ()
  | t ->
      Alcotest.failf "%s: expected a trap, got %a" name Outcome.pp_termination
        t

(* Substring test, for asserting on error-message content. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.equal (String.sub haystack i nn) needle || go (i + 1)
  in
  nn = 0 || go 0

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

let case name f = Alcotest.test_case name `Quick f

(* Fresh result-store directory per test, removed afterwards. *)
let dir_counter = ref 0

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_store_dir f =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "casted-store-test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  if Sys.file_exists dir then rm_rf dir;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

let with_store f =
  with_store_dir (fun dir -> f (Casted_store.Store.open_exn ~create:true dir))
