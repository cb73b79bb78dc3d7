open Helpers

let test_replicable_partition () =
  (* The paper's rule: replicate everything except stores, control flow
     and detection code; rollback checkpoint markers are recovery code
     and stay single too. *)
  List.iter
    (fun op ->
      let expected =
        (not (Opcode.is_store op))
        && (not (Opcode.is_control_flow op))
        && (not (Opcode.is_check op))
        && not (Opcode.is_checkpoint op)
      in
      Alcotest.(check bool) (Opcode.mnemonic op) expected (Opcode.replicable op))
    Opcode.all

let test_terminators_are_control_flow () =
  List.iter
    (fun op ->
      if Opcode.is_terminator op then
        Alcotest.(check bool)
          (Opcode.mnemonic op ^ " is control flow")
          true (Opcode.is_control_flow op))
    Opcode.all;
  (* Call is control flow but not a terminator. *)
  Alcotest.(check bool) "call not terminator" false
    (Opcode.is_terminator Opcode.Call);
  Alcotest.(check bool) "call is control flow" true
    (Opcode.is_control_flow Opcode.Call)

let test_mem_classification () =
  Alcotest.(check bool) "ld" true (Opcode.is_load (Opcode.Ld Opcode.W4));
  Alcotest.(check bool) "lds" true (Opcode.is_load (Opcode.Lds Opcode.W1));
  Alcotest.(check bool) "fld" true (Opcode.is_load Opcode.Fld);
  Alcotest.(check bool) "st" true (Opcode.is_store (Opcode.St Opcode.W8));
  Alcotest.(check bool) "fst" true (Opcode.is_store Opcode.Fst);
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Opcode.mnemonic op ^ " mem consistency")
        (Opcode.is_load op || Opcode.is_store op)
        (Opcode.is_mem op))
    Opcode.all

let test_mnemonics_unique () =
  let names = List.map Opcode.mnemonic Opcode.all in
  let uniq = List.sort_uniq String.compare names in
  Alcotest.(check int) "no duplicate mnemonics" (List.length names)
    (List.length uniq)

let test_signatures_well_formed () =
  List.iter
    (fun op ->
      match Opcode.signature op with
      | Some (defs, _) ->
          Alcotest.(check bool)
            (Opcode.mnemonic op ^ " at most one def")
            true
            (List.length defs <= 1)
      | None ->
          (* Only variable-signature instructions may lack one. *)
          Alcotest.(check bool)
            (Opcode.mnemonic op ^ " variable signature")
            true
            (match op with
            | Opcode.Call | Opcode.Ret | Opcode.Halt | Opcode.Chk -> true
            | _ -> false))
    Opcode.all

let test_side_effects () =
  List.iter
    (fun op ->
      let expected =
        Opcode.is_store op || Opcode.is_control_flow op || Opcode.is_check op
        || Opcode.is_checkpoint op
      in
      Alcotest.(check bool)
        (Opcode.mnemonic op ^ " side effect")
        expected
        (Opcode.has_side_effect op))
    Opcode.all

let test_width_bytes () =
  Alcotest.(check (list int)) "widths" [ 1; 2; 4; 8 ]
    (List.map Opcode.width_bytes [ Opcode.W1; Opcode.W2; Opcode.W4; Opcode.W8 ])

let suite =
  ( "opcode",
    [
      case "replicable partition (paper SS III-B)" test_replicable_partition;
      case "terminators vs control flow" test_terminators_are_control_flow;
      case "memory classification" test_mem_classification;
      case "mnemonics unique" test_mnemonics_unique;
      case "signatures well-formed" test_signatures_well_formed;
      case "side-effect classification" test_side_effects;
      case "width bytes" test_width_bytes;
    ] )
