module Scheme = Casted_detect.Scheme
module Options = Casted_detect.Options
module Pipeline = Casted_detect.Pipeline
module Simulator = Casted_sim.Simulator
module Compile = Casted_sim.Compile
module Decode = Casted_sim.Decode
module Outcome = Casted_sim.Outcome
module Replay = Casted_sim.Replay
module Pool = Casted_exec.Pool

type cell = { scheme : Scheme.t; issue_width : int; delay : int }

let pp_cell ppf c =
  Format.fprintf ppf "%s/i%d/d%d" (Scheme.name c.scheme) c.issue_width c.delay

let cells ?(issue_widths = [ 1; 2; 4 ]) ?(delays = [ 1; 2 ]) () =
  List.concat_map
    (fun issue_width ->
      { scheme = Scheme.Noed; issue_width; delay = 1 }
      :: { scheme = Scheme.Sced; issue_width; delay = 1 }
      :: List.concat_map
           (fun delay ->
             [
               { scheme = Scheme.Dced; issue_width; delay };
               { scheme = Scheme.Casted; issue_width; delay };
               { scheme = Scheme.Dme; issue_width; delay };
               { scheme = Scheme.Tmr; issue_width; delay };
               { scheme = Scheme.Rollback; issue_width; delay };
             ])
           delays)
    issue_widths

type divergence = {
  cell : cell;
  field : string;
  reference : string;
  got : string;
}

let pp_divergence ppf d =
  Format.fprintf ppf "%a: %s: expected %s, got %s" pp_cell d.cell d.field
    d.reference d.got

let divergence_to_json d =
  let module J = Casted_obs.Json in
  J.Obj
    [
      ("scheme", J.String (Scheme.name d.cell.scheme));
      ("issue_width", J.Int d.cell.issue_width);
      ("delay", J.Int d.cell.delay);
      ("field", J.String d.field);
      ("reference", J.String d.reference);
      ("got", J.String d.got);
    ]

let hex s = Digest.to_hex (Digest.string s)
let term_string t = Format.asprintf "%a" Outcome.pp_termination t

let compile ?options cell program =
  Pipeline.compile ?options ~scheme:cell.scheme ~issue_width:cell.issue_width
    ~delay:cell.delay program

let reference ?options ?fuel program =
  let c = compile ?options { scheme = Scheme.Noed; issue_width = 1; delay = 1 }
      program
  in
  Simulator.reference ?fuel ~with_mem_digest:true
    (Decode.of_schedule c.Pipeline.schedule)

(* Field-for-field comparison of two runs of the same cell: every
   production path promises the reference interpreter's result
   bit for bit, and a fault-free run is deterministic, so any
   difference is a simulator bug. [label] names the pair being
   compared, reference side first, e.g. ["reference vs run"]. *)
let cross_check_with ~label cell (a : Outcome.run) (b : Outcome.run) =
  let d field reference got = { cell; field; reference; got } in
  let int field x y acc =
    if x = y then acc
    else d (label ^ ": " ^ field) (string_of_int x) (string_of_int y) :: acc
  in
  []
  |> int "cycles" a.Outcome.cycles b.Outcome.cycles
  |> int "dyn_insns" a.Outcome.dyn_insns b.Outcome.dyn_insns
  |> int "dyn_defs" a.Outcome.dyn_defs b.Outcome.dyn_defs
  |> int "dyn_mem" a.Outcome.dyn_mem b.Outcome.dyn_mem
  |> int "dyn_branches" a.Outcome.dyn_branches b.Outcome.dyn_branches
  |> int "dyn_xreads" a.Outcome.dyn_xreads b.Outcome.dyn_xreads
  |> int "dyn_checks" a.Outcome.dyn_checks b.Outcome.dyn_checks
  |> int "slots_total" a.Outcome.slots_total b.Outcome.slots_total
  |> int "exit_code" a.Outcome.exit_code b.Outcome.exit_code
  |> fun acc ->
  let acc =
    if a.Outcome.termination = b.Outcome.termination then acc
    else
      d (label ^ ": termination")
        (term_string a.Outcome.termination)
        (term_string b.Outcome.termination)
      :: acc
  in
  let acc =
    if String.equal a.Outcome.output b.Outcome.output then acc
    else
      d (label ^ ": output") (hex a.Outcome.output) (hex b.Outcome.output)
      :: acc
  in
  let acc =
    if String.equal a.Outcome.mem_digest b.Outcome.mem_digest then acc
    else
      d (label ^ ": mem_digest")
        (Digest.to_hex a.Outcome.mem_digest)
        (Digest.to_hex b.Outcome.mem_digest)
      :: acc
  in
  List.rev acc

(* Every engine comparison of a cell has the reference interpreter on
   one side, so none can silently become compiled-vs-compiled:
   - [run]: the production entry point on the schedule (decode, stage-2
     compile, closure-threaded run);
   - [run_recovering]: the same program under region recovery, whose
     checkpoint-counting block hook must leave a fault-free run alone;
   - [capture golden]: the golden run of a dense replay capture on the
     compiled engine (stride small enough to exercise the thinning);
   - [reference_replayed] / [compiled_replayed]: the fault-free run
     resumed from EVERY captured snapshot on each engine. Each suffix
     must land on the reference field for field — cycles, every
     counter, output, cache stats, the whole memory image. A miss means
     State.snapshot/restore lost a piece of the machine, or the compiled
     hook fired somewhere the reference's does not. *)
let engine_cross_check ?fuel cell sched =
  let decoded = Decode.of_schedule sched in
  let reference = Simulator.reference ?fuel ~with_mem_digest:true decoded in
  let stage2 = Compile.of_decoded decoded in
  let versus label got = cross_check_with ~label cell reference got in
  let run = Simulator.run ?fuel ~with_mem_digest:true sched in
  let recovering =
    Compile.run ?fuel ~with_mem_digest:true ~retry_budget:1 stage2
  in
  let capture =
    Replay.capture ~init_stride:32 ~target:4 (fun ~on_block ->
        Compile.run ?fuel ~with_mem_digest:true ~on_block stage2)
  in
  let replayed snapshot =
    versus "reference vs reference_replayed"
      (Simulator.reference ?fuel ~with_mem_digest:true ~snapshot decoded)
    @ versus "reference vs compiled_replayed"
        (Compile.run ?fuel ~with_mem_digest:true ~snapshot stage2)
  in
  ( run,
    versus "reference vs run" run
    @ versus "reference vs run_recovering" recovering
    @ versus "reference vs capture golden" (Replay.golden capture)
    @ List.concat_map replayed (Array.to_list (Replay.snapshots capture)) )

let check_cell ?options ?fuel ~reference:(ref_run : Outcome.run) program cell
    =
  let compiled = compile ?options cell program in
  let diags =
    Lint.schedule ?options ~scheme:cell.scheme compiled.Pipeline.schedule
  in
  let run, engines = engine_cross_check ?fuel cell compiled.Pipeline.schedule in
  let d field reference got = { cell; field; reference; got } in
  let archi =
    (if run.Outcome.termination = ref_run.Outcome.termination then []
     else
       [
         d "termination"
           (term_string ref_run.Outcome.termination)
           (term_string run.Outcome.termination);
       ])
    @ (if run.Outcome.exit_code = ref_run.Outcome.exit_code then []
       else
         [
           d "exit_code"
             (string_of_int ref_run.Outcome.exit_code)
             (string_of_int run.Outcome.exit_code);
         ])
    @ (if String.equal run.Outcome.output ref_run.Outcome.output then []
       else
         [ d "output" (hex ref_run.Outcome.output) (hex run.Outcome.output) ])
    @
    if String.equal run.Outcome.mem_digest ref_run.Outcome.mem_digest then []
    else
      [
        d "mem_digest"
          (Digest.to_hex ref_run.Outcome.mem_digest)
          (Digest.to_hex run.Outcome.mem_digest);
      ]
  in
  (diags, archi @ engines)

let differential ?pool ?issue_widths ?delays ?options ?fuel program =
  let ref_run = reference ?options ?fuel program in
  let cs = Array.of_list (cells ?issue_widths ?delays ()) in
  let check cell =
    snd (check_cell ?options ?fuel ~reference:ref_run program cell)
  in
  let per_cell =
    match pool with
    | Some p -> Pool.map p check cs
    | None -> Array.map check cs
  in
  List.concat (Array.to_list per_cell)
