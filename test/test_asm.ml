open Helpers
module Asm = Casted_ir.Asm
module Transform = Casted_detect.Transform
module W = Casted_workloads.Workload
module Registry = Casted_workloads.Registry

(* Round-trip equivalence. Parsing renumbers instruction ids in listing
   order, so the first print->parse acts as a normalisation; from then
   on the text must be a fixed point. *)
let roundtrip_check name p =
  let parse_checked text =
    match Asm.parse text with
    | Error msg -> Alcotest.failf "%s: parse failed: %s" name msg
    | Ok p' ->
        (match Casted_ir.Validate.check_program p' with
        | [] -> ()
        | errs ->
            Alcotest.failf "%s: reparsed program invalid: %s" name
              (String.concat "; " errs));
        p'
  in
  let normalised = Asm.print (parse_checked (Asm.print p)) in
  Alcotest.(check string)
    (name ^ " round-trips")
    normalised
    (Asm.print (parse_checked normalised))

let test_roundtrip_workloads () =
  List.iter
    (fun w -> roundtrip_check w.W.name (w.W.build W.Fault))
    Registry.all

let test_roundtrip_hardened () =
  (* What [asm --emit] prints under every scheme must parse back:
     detection annotations (@repl/@chk/@shad and %id: prefixes), TMR
     votes, DME shadows and ROLLBACK's checkpoint markers. *)
  List.iter
    (fun name ->
      let w = Option.get (Registry.find name) in
      List.iter
        (fun scheme ->
          let compiled =
            Casted_detect.Pipeline.compile ~scheme ~issue_width:2 ~delay:2
              (w.W.build W.Fault)
          in
          roundtrip_check
            (name ^ "/" ^ Scheme.name scheme)
            compiled.Casted_detect.Pipeline.program)
        Scheme.all)
    [ "cjpeg"; "197.parser" ]

let test_reparsed_program_runs_identically () =
  List.iter
    (fun name ->
      let w = Option.get (Registry.find name) in
      let p = w.W.build W.Fault in
      let p' = Asm.parse_exn (Asm.print p) in
      let a = run_noed p and b = run_noed p' in
      Alcotest.(check string) (name ^ " same output") a.Outcome.output
        b.Outcome.output;
      Alcotest.(check int) (name ^ " same cycles") a.Outcome.cycles
        b.Outcome.cycles)
    [ "h263dec"; "181.mcf" ]

let test_hardened_roundtrip_still_detects () =
  (* The reparsed hardened program must keep its fault coverage: roles
     and protects references drive nothing at runtime, but the checks
     themselves must have survived textual round-tripping. *)
  let w = Option.get (Registry.find "cjpeg") in
  let hardened, _ = Transform.program Options.default (w.W.build W.Fault) in
  let reparsed = Asm.parse_exn (Asm.print hardened) in
  let config = Config.single_core ~issue_width:2 in
  let schedule =
    Casted_sched.List_scheduler.schedule_program config
      Casted_sched.Assign.Single_cluster reparsed
  in
  let mc = Casted_sim.Montecarlo.run ~trials:100 schedule in
  Alcotest.(check bool) "detects" true
    (Casted_sim.Montecarlo.percent mc Casted_sim.Montecarlo.Detected > 50.0)

let test_handwritten_program () =
  let text =
    {|
program entry=main mem=65536 output=64:8
data 256 hex:2A00000000000000

func main() {
entry:
  movi r0, 256
  ld8 r1, [r0+0]
  movi r2, -2
  mul r3, r1, r2
  call r4 = negate(r3)
  st8 r4, [r0-192]
  halt
}

func negate(r0) : gp unprotected {
entry:
  movi r1, 0
  sub r2, r1, r0
  ret r2
}
|}
  in
  let p = Asm.parse_exn text in
  Casted_ir.Validate.check_exn p;
  let r = run_noed p in
  (* 42 * -2 = -84, negated = 84, stored at 256 - 192 = 64 = output. *)
  Alcotest.(check int64) "computes through call" 84L (out64 r)

let test_handwritten_control_flow () =
  let text =
    {|
program entry=main mem=65536 output=64:8
func main() {
entry:
  movi r0, 0
  movi r1, 0
  br head
head:
  cmpi.lt p0, r1, 10
  brc.t p0, body, done
body:
  add r0, r0, r1
  addi r1, r1, 1
  br head
done:
  movi r2, 64
  st8 r0, [r2+0]
  halt
}
|}
  in
  let p = Asm.parse_exn text in
  Alcotest.(check int64) "sum 0..9" 45L (out64 (run_noed p))

let expect_error text fragment =
  match Asm.parse text with
  | Ok _ -> Alcotest.failf "expected a parse error mentioning %S" fragment
  | Error msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" msg fragment)
        true (contains msg fragment)

let test_parse_errors () =
  expect_error "program entry=main\nfunc main() {\nentry:\n  frobnicate r1\n}"
    "unknown mnemonic";
  expect_error "program entry=main\nfunc main() {\nentry:\n  movi r0, 1\n}"
    "terminator";
  expect_error "program entry=main\nfunc main() {\n  movi r0, 1\n}" "block";
  expect_error "program entry=main\nfunc main() {\nentry:\n  movi z9, 1\n  halt\n}"
    "register";
  expect_error "data 0 hex:ABC\nprogram entry=main" "hex"

let test_float_roundtrip () =
  (* Hex float literals keep full precision through the text form. *)
  let p =
    program_of (fun b ->
        let x = B.fmovi b 0.1 in
        let y = B.fmul b x x in
        let out = B.movi b 0x40L in
        B.fst_ b ~value:y ~base:out 0L)
  in
  let p' = Asm.parse_exn (Asm.print p) in
  Alcotest.(check string) "bit-identical float results"
    (run_noed p).Outcome.output
    (run_noed p').Outcome.output

let suite =
  ( "asm",
    [
      case "workloads round-trip" test_roundtrip_workloads;
      case "hardened programs round-trip (annotations)"
        test_roundtrip_hardened;
      case "reparsed programs run identically"
        test_reparsed_program_runs_identically;
      case "reparsed hardened code still detects"
        test_hardened_roundtrip_still_detects;
      case "hand-written program with a call" test_handwritten_program;
      case "hand-written control flow" test_handwritten_control_flow;
      case "parse errors are reported" test_parse_errors;
      case "float literals round-trip bit-exactly" test_float_roundtrip;
    ] )
