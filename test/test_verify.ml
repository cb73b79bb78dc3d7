open Helpers
module Schedule = Casted_sched.Schedule
module Diag = Casted_verify.Diag
module Lint = Casted_verify.Lint
module Oracle = Casted_verify.Oracle
module Fuzz = Casted_verify.Fuzz
module Matrix = Casted_verify.Matrix

(* ---------- helpers ---------- *)

let compile ?(scheme = Scheme.Sced) ?(issue_width = 2) ?(delay = 1) program =
  Pipeline.compile ~scheme ~issue_width ~delay program

(* A small program exercising every invariant family: arithmetic
   (replicas), a store and a conditional branch (checks), a call into a
   protected callee (shadow copies for the result, parameter shadows,
   argument checks). *)
let mutation_program () =
  let callee =
    let x = Reg.gp 0 in
    let b = B.create ~name:"inc" ~params:[ x ] ~ret_cls:(Some Reg.Gp) () in
    let r = B.addi b x 1L in
    B.ret b ~value:r ();
    B.finish b
  in
  let b = B.create ~name:"main" () in
  let base = B.movi b 0x100L in
  let v = B.movi b 5L in
  let w = B.add b v v in
  let r = B.gp b in
  B.call b ~dst:r "inc" [ w ];
  B.st b Opcode.W8 ~value:r ~base 0L;
  let p = B.cmpi b Cond.Lt r 10L in
  B.if_ b p
    (fun b -> ignore (B.addi b r 2L))
    (fun b -> ignore (B.addi b r 3L));
  let zero = B.movi b 0L in
  B.halt b ~code:zero ();
  let p =
    Program.make
      ~funcs:[ B.finish b; callee ]
      ~entry:"main" ~mem_size:4096 ~output_base:0x40 ~output_len:8 ()
  in
  Casted_ir.Validate.check_exn p;
  p

(* Remove instruction [id] from function [fname]: from the IR block
   bodies and from the schedule's bundles and issue map, consistently —
   mutation tests must trigger exactly the semantic rule under test, not
   the structural schedule/IR agreement rules. *)
let drop_insn (s : Schedule.t) fname id =
  let fs = Schedule.find_func s fname in
  let f = fs.Schedule.func in
  List.iter
    (fun (b : Block.t) ->
      b.Block.body <- List.filter (fun i -> i.Insn.id <> id) b.Block.body)
    f.Func.blocks;
  Array.iter
    (fun (bs : Schedule.block_schedule) ->
      Hashtbl.remove bs.Schedule.issue_of id;
      Array.iter
        (fun bundle ->
          Array.iteri
            (fun cl slots ->
              if Array.exists (fun i -> i.Insn.id = id) slots then
                bundle.(cl) <-
                  Array.of_list
                    (List.filter
                       (fun i -> i.Insn.id <> id)
                       (Array.to_list slots)))
            bundle)
        bs.Schedule.bundles)
    fs.Schedule.blocks

(* Every instruction of [fname] satisfying [pred]. *)
let find_insns (s : Schedule.t) fname pred =
  let fs = Schedule.find_func s fname in
  let found = ref [] in
  Func.iter_insns fs.Schedule.func (fun _ i ->
      if pred i then found := i :: !found);
  List.rev !found

let only_diag ~rule diags =
  match diags with
  | [ d ] ->
      Alcotest.(check string)
        "diagnostic rule" (Diag.rule_name rule)
        (Diag.rule_name d.Diag.rule)
  | ds ->
      Alcotest.failf "expected exactly one %s diagnostic, got %d: %s"
        (Diag.rule_name rule) (List.length ds)
        (String.concat "; " (List.map Diag.to_string ds))

(* ---------- lint is clean on the real pipeline ---------- *)

let test_lint_clean_all_schemes () =
  let program = mutation_program () in
  List.iter
    (fun (scheme, issue_width, delay) ->
      let c = compile ~scheme ~issue_width ~delay program in
      let diags = Lint.schedule ~scheme c.Pipeline.schedule in
      Alcotest.(check int)
        (Printf.sprintf "%s/i%d/d%d clean" (Scheme.name scheme) issue_width
           delay)
        0 (List.length diags))
    [
      (Scheme.Noed, 1, 1); (Scheme.Noed, 4, 1); (Scheme.Sced, 1, 1);
      (Scheme.Sced, 2, 1); (Scheme.Dced, 2, 3); (Scheme.Casted, 1, 1);
      (Scheme.Casted, 2, 2); (Scheme.Casted, 4, 4); (Scheme.Tmr, 1, 1);
      (Scheme.Tmr, 2, 2); (Scheme.Rollback, 2, 2); (Scheme.Rollback, 4, 1);
      (Scheme.Dme, 1, 1); (Scheme.Dme, 2, 2); (Scheme.Dme, 4, 3);
    ]

let test_lint_clean_workload () =
  let w =
    match Casted_workloads.Registry.find "cjpeg" with
    | Some w -> w
    | None -> Alcotest.fail "cjpeg not registered"
  in
  let program = w.Casted_workloads.Workload.build Casted_workloads.Workload.Fault in
  List.iter
    (fun scheme ->
      let c = compile ~scheme ~issue_width:2 ~delay:2 program in
      let diags = Lint.schedule ~scheme c.Pipeline.schedule in
      Alcotest.(check int)
        (Scheme.name scheme ^ " clean")
        0 (List.length diags))
    [
      Scheme.Noed; Scheme.Sced; Scheme.Dced; Scheme.Casted; Scheme.Dme;
      Scheme.Tmr; Scheme.Rollback;
    ]

(* ---------- mutation self-tests: each dropped artifact produces
   exactly its diagnostic ---------- *)

let test_mutation_drop_check () =
  let c = compile (mutation_program ()) in
  let s = c.Pipeline.schedule in
  (* The store's value-operand check: its (protected insn, register)
     pair is unique, so dropping it uncovers exactly one read. *)
  let store =
    match
      find_insns s "main" (fun i ->
          i.Insn.role = Insn.Original && Opcode.is_store i.Insn.op)
    with
    | i :: _ -> i
    | [] -> Alcotest.fail "no store in the hardened main"
  in
  let check =
    match
      find_insns s "main" (fun i ->
          i.Insn.role = Insn.Check && i.Insn.protects = store.Insn.id)
    with
    | i :: _ -> i
    | [] -> Alcotest.fail "store has no check"
  in
  drop_insn s "main" check.Insn.id;
  only_diag ~rule:Diag.Missing_check (Lint.schedule ~scheme:Scheme.Sced s)

let test_mutation_drop_shadow_copy () =
  let c = compile (mutation_program ()) in
  let s = c.Pipeline.schedule in
  (* The call-result copy (replica_of >= 0; parameter copies carry -1). *)
  let copy =
    match
      find_insns s "main" (fun i ->
          i.Insn.role = Insn.Shadow_copy && i.Insn.replica_of >= 0)
    with
    | i :: _ -> i
    | [] -> Alcotest.fail "no call-result shadow copy in main"
  in
  drop_insn s "main" copy.Insn.id;
  only_diag ~rule:Diag.Missing_shadow_copy
    (Lint.schedule ~scheme:Scheme.Sced s)

let test_mutation_drop_replica () =
  let c = compile (mutation_program ()) in
  let s = c.Pipeline.schedule in
  (* The replica of the [add]: its value feeds the call, so the shadow
     map loses one entry but no other rule fires. *)
  let add =
    match
      find_insns s "main" (fun i ->
          i.Insn.role = Insn.Original && i.Insn.op = Opcode.Add)
    with
    | i :: _ -> i
    | [] -> Alcotest.fail "no add in main"
  in
  let replica =
    match
      find_insns s "main" (fun i ->
          i.Insn.role = Insn.Replica && i.Insn.replica_of = add.Insn.id)
    with
    | i :: _ -> i
    | [] -> Alcotest.fail "add has no replica"
  in
  drop_insn s "main" replica.Insn.id;
  only_diag ~rule:Diag.Missing_replica (Lint.schedule ~scheme:Scheme.Sced s)

(* ---------- mutation self-tests: recovery-scheme rules ---------- *)

(* The store's majority vote under TMR: a Check-role [Sel] protecting
   the store. Dropping it leaves the store reading a triplicated
   register with no vote. *)
let tmr_vote_of s ~protects =
  match
    find_insns s "main" (fun i ->
        i.Insn.role = Insn.Check && i.Insn.op = Opcode.Sel
        && i.Insn.protects = protects)
  with
  | i :: _ -> i
  | [] -> Alcotest.fail "protected insn has no majority vote"

let tmr_store s =
  match
    find_insns s "main" (fun i ->
        i.Insn.role = Insn.Original && Opcode.is_store i.Insn.op)
  with
  | i :: _ -> i
  | [] -> Alcotest.fail "no store in the hardened main"

let test_mutation_drop_vote () =
  let c = compile ~scheme:Scheme.Tmr (mutation_program ()) in
  let s = c.Pipeline.schedule in
  let store = tmr_store s in
  let vote = tmr_vote_of s ~protects:store.Insn.id in
  drop_insn s "main" vote.Insn.id;
  only_diag ~rule:Diag.Missing_vote (Lint.schedule ~scheme:Scheme.Tmr s)

let test_mutation_drop_vote_rewrite () =
  let c = compile ~scheme:Scheme.Tmr (mutation_program ()) in
  let s = c.Pipeline.schedule in
  let store = tmr_store s in
  let vote = tmr_vote_of s ~protects:store.Insn.id in
  (* The Mov writing the voted value back into the master copy
     (the vote's third operand). *)
  let voted = vote.Insn.defs.(0) and master = vote.Insn.uses.(2) in
  let rewrite =
    match
      find_insns s "main" (fun i ->
          i.Insn.role = Insn.Check && i.Insn.op = Opcode.Mov
          && Array.length i.Insn.defs = 1
          && Reg.equal i.Insn.defs.(0) master
          && Array.length i.Insn.uses = 1
          && Reg.equal i.Insn.uses.(0) voted)
    with
    | i :: _ -> i
    | [] -> Alcotest.fail "vote has no master write-back"
  in
  drop_insn s "main" rewrite.Insn.id;
  only_diag ~rule:Diag.Partial_vote_rewrite
    (Lint.schedule ~scheme:Scheme.Tmr s)

let test_mutation_drop_checkpoint () =
  let c = compile ~scheme:Scheme.Rollback (mutation_program ()) in
  let s = c.Pipeline.schedule in
  let cpt =
    match
      find_insns s "main" (fun i -> Opcode.is_checkpoint i.Insn.op)
    with
    | i :: _ -> i
    | [] -> Alcotest.fail "no checkpoint in the rollback main"
  in
  drop_insn s "main" cpt.Insn.id;
  only_diag ~rule:Diag.Missing_checkpoint
    (Lint.schedule ~scheme:Scheme.Rollback s)

let test_mutation_sink_checkpoint () =
  let c = compile ~scheme:Scheme.Rollback (mutation_program ()) in
  let s = c.Pipeline.schedule in
  (* Sink the entry block's checkpoint below its first neighbour: the
     marker survives but no longer covers the whole region. The lint
     reads IR body order, so the schedule needs no touch-up. *)
  let fs = Schedule.find_func s "main" in
  let entry = List.hd fs.Schedule.func.Func.blocks in
  (match entry.Block.body with
  | cpt :: next :: rest when Opcode.is_checkpoint cpt.Insn.op ->
      entry.Block.body <- next :: cpt :: rest
  | _ -> Alcotest.fail "entry block does not open with a checkpoint");
  only_diag ~rule:Diag.Misplaced_checkpoint
    (Lint.schedule ~scheme:Scheme.Rollback s)

let test_mutation_duplicate_checkpoint () =
  let c = compile ~scheme:Scheme.Rollback (mutation_program ()) in
  let s = c.Pipeline.schedule in
  (* A second marker in the helper function: checkpoints are only valid
     at entry-function block tops. Schedule and issue map are patched
     consistently so only the placement rule fires. *)
  let fs = Schedule.find_func s "inc" in
  let block = List.hd fs.Schedule.func.Func.blocks in
  let extra = Insn.make ~id:100_000 ~op:Opcode.Cpt () in
  block.Block.body <- extra :: block.Block.body;
  let bs = fs.Schedule.blocks.(0) in
  let width = s.Schedule.config.Config.issue_width in
  let placed = ref false in
  Array.iteri
    (fun cycle bundle ->
      Array.iteri
        (fun cl slots ->
          if (not !placed) && Array.length slots < width then begin
            bundle.(cl) <- Array.append slots [| extra |];
            Hashtbl.replace bs.Schedule.issue_of extra.Insn.id (cycle, cl);
            placed := true
          end)
        bundle)
    bs.Schedule.bundles;
  if not !placed then Alcotest.fail "no free issue slot for the marker";
  only_diag ~rule:Diag.Misplaced_checkpoint
    (Lint.schedule ~scheme:Scheme.Rollback s)

(* ---------- mutation self-tests: DME decorrelation rules ---------- *)

(* Swap instruction [id] of [fname] for [repl] in the IR block bodies
   and the schedule bundles consistently, so only the semantic rule
   under test fires (same discipline as [drop_insn]). *)
let replace_insn (s : Schedule.t) fname ~id repl =
  let fs = Schedule.find_func s fname in
  List.iter
    (fun (b : Block.t) ->
      b.Block.body <-
        List.map (fun i -> if i.Insn.id = id then repl else i) b.Block.body)
    fs.Schedule.func.Func.blocks;
  Array.iter
    (fun (bs : Schedule.block_schedule) ->
      Array.iter
        (fun bundle ->
          Array.iteri
            (fun cl slots ->
              bundle.(cl) <-
                Array.map (fun i -> if i.Insn.id = id then repl else i) slots)
            bundle)
        bs.Schedule.bundles)
    fs.Schedule.blocks

(* Pull a replica memory access back onto the master image: its
   immediate no longer leads the original's by shadow_base, so the
   replica re-shares a line with the master and the decorrelation rule
   fires. *)
let test_mutation_correlated_replica_imm () =
  let c =
    compile ~scheme:Scheme.Dme ~issue_width:2 ~delay:2 (mutation_program ())
  in
  let s = c.Pipeline.schedule in
  let replica_mem =
    match
      find_insns s "main" (fun i ->
          i.Insn.role = Insn.Replica && Opcode.is_mem i.Insn.op)
    with
    | i :: _ -> i
    | [] -> Alcotest.fail "no replica memory access in the DME main"
  in
  replace_insn s "main" ~id:replica_mem.Insn.id
    { replica_mem with Insn.imm = Int64.sub replica_mem.Insn.imm 8L };
  only_diag ~rule:Diag.Decorrelation_violation
    (Lint.schedule ~scheme:Scheme.Dme s)

(* Merge two shadow definitions onto one register: the reconstructed
   shadow map stops being injective, so one shadow register carries
   two protected values and the collision rule fires. *)
let test_mutation_shadow_collision () =
  let c =
    compile ~scheme:Scheme.Dme ~issue_width:2 ~delay:2 (mutation_program ())
  in
  let s = c.Pipeline.schedule in
  let replicas =
    find_insns s "main" (fun i ->
        i.Insn.role = Insn.Replica
        && Array.length i.Insn.defs = 1
        && Reg.cls_equal (Reg.cls i.Insn.defs.(0)) Reg.Gp)
  in
  match replicas with
  | a :: b :: _ ->
      (* The instruction is shared physically between the IR body and
         the schedule bundles, so mutating its defs array tampers both
         views at once. *)
      b.Insn.defs.(0) <- a.Insn.defs.(0);
      let diags = Lint.schedule ~scheme:Scheme.Dme s in
      Alcotest.(check bool) "shadow-collision fires" true
        (List.exists
           (fun d -> d.Diag.rule = Diag.Shadow_collision)
           diags)
  | _ -> Alcotest.fail "fewer than two gp replicas in the DME main"

(* ---------- hand-built schedules for the machine-shape rules ---------- *)

(* A two-cluster schedule built by hand: producer on cluster 0,
   consumer on cluster 1. [slack] positions the consumer relative to
   the earliest legal cycle (latency + inter-cluster delay); [slack =
   -1] models a delay cycle dropped from the schedule. *)
let cross_cluster_fixture ~slack =
  let r1 = Reg.gp 0 and r2 = Reg.gp 1 in
  let i_movi = Insn.make ~id:0 ~op:Opcode.Movi ~defs:[| r1 |] ~imm:7L () in
  let i_add =
    Insn.make ~id:1 ~op:Opcode.Add ~defs:[| r2 |] ~uses:[| r1; r1 |] ()
  in
  let i_halt = Insn.make ~id:2 ~op:Opcode.Halt () in
  let block =
    Block.make ~label:"entry" ~body:[ i_movi; i_add ] ~term:i_halt
  in
  let f = Func.make ~name:"main" () in
  f.Func.blocks <- [ block ];
  let program = Program.make ~funcs:[ f ] ~entry:"main" ~mem_size:256 () in
  let config = Config.make ~clusters:2 ~issue_width:1 ~delay:2 () in
  let lat = Latency.of_op config.Config.latencies Opcode.Movi in
  let add_cycle = lat + config.Config.delay + slack in
  let n = add_cycle + 2 in
  let bundles = Array.init n (fun _ -> Array.init 2 (fun _ -> [||])) in
  bundles.(0).(0) <- [| i_movi |];
  bundles.(add_cycle).(1) <- [| i_add |];
  bundles.(n - 1).(0) <- [| i_halt |];
  let issue_of = Hashtbl.create 4 in
  Hashtbl.replace issue_of 0 (0, 0);
  Hashtbl.replace issue_of 1 (add_cycle, 1);
  Hashtbl.replace issue_of 2 (n - 1, 0);
  {
    Schedule.program;
    config;
    funcs =
      [
        ( "main",
          {
            Schedule.func = f;
            blocks = [| { Schedule.label = "entry"; bundles; issue_of } |];
          } );
      ];
  }

let test_mutation_drop_delay_cycle () =
  (* At the legal cycle the fixture is clean; one cycle earlier it is
     exactly one delay violation. *)
  Alcotest.(check int)
    "legal cross-cluster read is clean" 0
    (List.length (Lint.schedule ~scheme:Scheme.Noed (cross_cluster_fixture ~slack:0)));
  only_diag ~rule:Diag.Delay_violation
    (Lint.schedule ~scheme:Scheme.Noed (cross_cluster_fixture ~slack:(-1)))

let test_bundle_overflow () =
  let s = cross_cluster_fixture ~slack:0 in
  (* Issue a second, independent instruction in an occupied
     width-1 slot. *)
  let extra = Insn.make ~id:3 ~op:Opcode.Movi ~defs:[| Reg.gp 2 |] ~imm:1L () in
  let fs = Schedule.find_func s "main" in
  let bs = fs.Schedule.blocks.(0) in
  bs.Schedule.bundles.(0).(0) <- [| bs.Schedule.bundles.(0).(0).(0); extra |];
  Hashtbl.replace bs.Schedule.issue_of 3 (0, 0);
  let block = List.hd fs.Schedule.func.Func.blocks in
  block.Block.body <- [ List.hd block.Block.body; extra; List.nth block.Block.body 1 ];
  only_diag ~rule:Diag.Bundle_overflow (Lint.schedule ~scheme:Scheme.Noed s)

let test_unresolved_target () =
  let s = cross_cluster_fixture ~slack:0 in
  let fs = Schedule.find_func s "main" in
  let block = List.hd fs.Schedule.func.Func.blocks in
  (* Retarget the terminator at a label no block carries. *)
  let bad_br = Insn.make ~id:2 ~op:Opcode.Br ~target:"nowhere" () in
  block.Block.term <- bad_br;
  let bs = fs.Schedule.blocks.(0) in
  let n = Array.length bs.Schedule.bundles in
  bs.Schedule.bundles.(n - 1).(0) <- [| bad_br |];
  only_diag ~rule:Diag.Unresolved_target (Lint.schedule ~scheme:Scheme.Noed s)

let test_replica_overlap () =
  (* A replica that clobbers its own original's register. *)
  let r0 = Reg.gp 0 in
  let orig = Insn.make ~id:0 ~op:Opcode.Movi ~defs:[| r0 |] ~imm:3L () in
  let replica =
    Insn.make ~id:1 ~op:Opcode.Movi ~defs:[| r0 |] ~imm:3L ~role:Insn.Replica
      ~replica_of:0 ()
  in
  let halt = Insn.make ~id:2 ~op:Opcode.Halt () in
  let block = Block.make ~label:"entry" ~body:[ orig; replica ] ~term:halt in
  let f = Func.make ~name:"main" () in
  f.Func.blocks <- [ block ];
  let program = Program.make ~funcs:[ f ] ~entry:"main" ~mem_size:256 () in
  let config = Config.make ~clusters:1 ~issue_width:1 ~delay:1 () in
  let bundles = Array.init 3 (fun _ -> Array.init 1 (fun _ -> [||])) in
  bundles.(0).(0) <- [| orig |];
  bundles.(1).(0) <- [| replica |];
  bundles.(2).(0) <- [| halt |];
  let issue_of = Hashtbl.create 4 in
  Hashtbl.replace issue_of 0 (0, 0);
  Hashtbl.replace issue_of 1 (1, 0);
  Hashtbl.replace issue_of 2 (2, 0);
  let s =
    {
      Schedule.program;
      config;
      funcs =
        [
          ( "main",
            {
              Schedule.func = f;
              blocks = [| { Schedule.label = "entry"; bundles; issue_of } |];
            } );
        ];
    }
  in
  match Lint.schedule ~scheme:Scheme.Sced s with
  | [ d ] ->
      Alcotest.(check string)
        "rule" "replica-overlap"
        (Diag.rule_name d.Diag.rule);
      Alcotest.(check bool)
        "message names the register" true
        (contains d.Diag.message "r0")
  | ds ->
      Alcotest.failf "expected one replica-overlap, got %d" (List.length ds)

(* ---------- differential oracle ---------- *)

let test_oracle_clean () =
  let program = mutation_program () in
  let divs = Oracle.differential program in
  Alcotest.(check int) "no divergences" 0 (List.length divs)

let test_oracle_matrix_shape () =
  let cells = Oracle.cells ~issue_widths:[ 1; 2 ] ~delays:[ 1; 3 ] () in
  (* Per issue width: NOED + SCED once; DCED, CASTED, DME, TMR and
     ROLLBACK per delay. *)
  Alcotest.(check int) "cell count" (2 * (2 + (5 * 2))) (List.length cells)

let test_oracle_detects_output_divergence () =
  (* Two different programs pushed through the same oracle must
     diverge: validates that the comparison actually bites. *)
  let p1 = compute_program (fun b -> B.movi b 1L) in
  let p2 = compute_program (fun b -> B.movi b 2L) in
  let reference = Oracle.reference p1 in
  let _, divs =
    Oracle.check_cell ~reference p2
      { Oracle.scheme = Scheme.Sced; issue_width = 2; delay = 1 }
  in
  Alcotest.(check bool) "diverges" true (divs <> []);
  Alcotest.(check bool)
    "output field named" true
    (List.exists (fun d -> d.Oracle.field = "output") divs)

(* ---------- matrix runner ---------- *)

let test_matrix_single_workload () =
  let cells = [ { Oracle.scheme = Scheme.Casted; issue_width = 2; delay = 2 } ] in
  let entries = Matrix.run ~benchmarks:[ "cjpeg" ] ~cells () in
  Alcotest.(check int) "one entry" 1 (List.length entries);
  Alcotest.(check bool) "clean" true (Matrix.clean entries)

let test_matrix_shares_workloads_in_order () =
  (* Each workload is built and referenced once and shared by all its
     cells; entries still come back in (workload, cell) order, every
     one linted and cross-checked clean. *)
  let cells =
    [
      { Oracle.scheme = Scheme.Sced; issue_width = 1; delay = 1 };
      { Oracle.scheme = Scheme.Tmr; issue_width = 2; delay = 2 };
    ]
  in
  let entries =
    Casted_exec.Pool.with_pool ~jobs:2 (fun pool ->
        Matrix.run ~pool ~benchmarks:[ "h263dec"; "cjpeg" ] ~cells ())
  in
  Alcotest.(check (list string))
    "matrix order"
    [ "h263dec SCED"; "h263dec TMR"; "cjpeg SCED"; "cjpeg TMR" ]
    (List.map
       (fun e ->
         e.Matrix.workload ^ " " ^ Scheme.name e.Matrix.cell.Oracle.scheme)
       entries);
  Alcotest.(check bool) "clean" true (Matrix.clean entries)

let test_matrix_rejects_unknown () =
  match Matrix.run ~benchmarks:[ "nonesuch" ] () with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the benchmark" true
        (contains msg "nonesuch")
  | _ -> Alcotest.fail "expected Invalid_argument"

(* ---------- fuzzer ---------- *)

let test_fuzz_deterministic () =
  let a = Fuzz.recipe ~seed:7 3 and b = Fuzz.recipe ~seed:7 3 in
  Alcotest.(check bool) "same recipe" true (a = b);
  let c = Fuzz.recipe ~seed:7 4 in
  Alcotest.(check bool) "different index, different recipe" true (a <> c);
  let pa = Casted_ir.Asm.print (Fuzz.emit_program a) in
  let pb = Casted_ir.Asm.print (Fuzz.emit_program b) in
  Alcotest.(check string) "same program text" pa pb

let test_fuzz_small_campaign_clean () =
  match Fuzz.run ~programs:5 ~seed:0xC457ED () with
  | None -> ()
  | Some f -> Alcotest.failf "fuzz failure: %a" Fuzz.pp_failure f

let test_fuzz_four_way_includes_compiled () =
  (* The oracle holds four production paths to the reference
     interpreter (run, run_recovering, the capture's golden run, and
     replay from every snapshot on both engines) — a fuzz-generated
     program must come back clean on a cell of each flavour, which
     fails if the compiled engine diverges from the reference on any
     field. *)
  let program = Fuzz.emit_program (Fuzz.recipe ~seed:0xC0DE 1) in
  let reference = Oracle.reference program in
  List.iter
    (fun cell ->
      match Oracle.check_cell ~reference program cell with
      | [], [] -> ()
      | diags, [] ->
          Alcotest.failf "%a: %d lint diagnostics, first: %a" Oracle.pp_cell
            cell (List.length diags) Diag.pp (List.hd diags)
      | _, divs ->
          Alcotest.failf "%a: %d divergences, first: %a" Oracle.pp_cell cell
            (List.length divs) Oracle.pp_divergence (List.hd divs))
    [
      { Oracle.scheme = Scheme.Casted; issue_width = 2; delay = 2 };
      { Oracle.scheme = Scheme.Tmr; issue_width = 2; delay = 1 };
      { Oracle.scheme = Scheme.Rollback; issue_width = 1; delay = 1 };
    ]

let test_fuzz_programs_run () =
  (* Generated programs execute to a clean exit under NOED. *)
  for index = 0 to 4 do
    let p = Fuzz.emit_program (Fuzz.recipe ~seed:99 index) in
    Casted_ir.Validate.check_exn p;
    let r = run_noed p in
    match r.Outcome.termination with
    | Outcome.Exit 0 -> ()
    | t ->
        Alcotest.failf "program %d did not exit cleanly: %a" index
          Outcome.pp_termination t
  done

(* Robustness of the assembly front end: a few hundred seeded
   mutations of fuzzer programs' assembly each end in a parse error, a
   validation error or a bounded CASTED run, never in an uncaught
   exception. All three ends must occur, so the pin cannot pass by
   rejecting everything. *)
let test_mutated_asm_never_raises () =
  let rng = Random.State.make [| 0xA5A5 |] in
  let sources =
    Array.init 6 (fun index ->
        Array.of_list
          (String.split_on_char '\n'
             (Casted_ir.Asm.print
                (Fuzz.emit_program (Fuzz.recipe ~seed:0xC457ED index)))))
  in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let mutate source =
    let lines = Array.copy source in
    let n = Array.length lines in
    let i = Random.State.int rng n and j = Random.State.int rng n in
    (match Random.State.int rng 5 with
    | 0 -> lines.(i) <- ""
    | 1 -> lines.(i) <- lines.(j)
    | 2 ->
        lines.(i) <- source.(j);
        lines.(j) <- source.(i)
    | 3 ->
        (* Swap one word for a word of another line. *)
        let words = Array.of_list (String.split_on_char ' ' lines.(i)) in
        words.(Random.State.int rng (Array.length words)) <-
          pick (Array.of_list (String.split_on_char ' ' lines.(j)));
        lines.(i) <- String.concat " " (Array.to_list words)
    | _ ->
        let line = Bytes.of_string lines.(i) in
        if Bytes.length line > 0 then
          Bytes.set line
            (Random.State.int rng (Bytes.length line))
            (pick [| '0'; '9'; '-'; ','; '.'; ':'; ' '; 'r'; 'f'; 'p'; '@' |]);
        lines.(i) <- Bytes.to_string line);
    String.concat "\n" (Array.to_list lines)
  in
  let parse_errors = ref 0 and invalid = ref 0 and ran = ref 0 in
  for k = 0 to 399 do
    let text = mutate sources.(k mod Array.length sources) in
    try
      match Casted_ir.Asm.parse text with
      | Error _ -> incr parse_errors
      | Ok p -> (
          match Casted_ir.Validate.check_program p with
          | _ :: _ -> incr invalid
          | [] ->
              let c =
                Pipeline.compile ~scheme:Scheme.Casted ~issue_width:2 ~delay:2 p
              in
              ignore (Simulator.run ~fuel:200_000 c.Pipeline.schedule);
              incr ran)
    with e ->
      Alcotest.failf "mutation %d raised %s on:\n%s" k (Printexc.to_string e)
        text
  done;
  Alcotest.(check bool)
    (Printf.sprintf "all three ends occur (%d parse, %d invalid, %d ran)"
       !parse_errors !invalid !ran)
    true
    (!parse_errors > 0 && !invalid > 0 && !ran > 0)

let suite =
  ( "verify",
    [
      case "lint: clean on every scheme and shape" test_lint_clean_all_schemes;
      case "lint: clean on a real workload" test_lint_clean_workload;
      case "mutation: dropped check -> missing-check"
        test_mutation_drop_check;
      case "mutation: dropped shadow copy -> missing-shadow-copy"
        test_mutation_drop_shadow_copy;
      case "mutation: dropped replica -> missing-replica"
        test_mutation_drop_replica;
      case "mutation: dropped delay cycle -> delay-violation"
        test_mutation_drop_delay_cycle;
      case "mutation: dropped vote -> missing-vote" test_mutation_drop_vote;
      case "mutation: dropped vote write-back -> partial-vote-rewrite"
        test_mutation_drop_vote_rewrite;
      case "mutation: dropped checkpoint -> missing-checkpoint"
        test_mutation_drop_checkpoint;
      case "mutation: sunk checkpoint -> misplaced-checkpoint"
        test_mutation_sink_checkpoint;
      case "mutation: checkpoint in a callee -> misplaced-checkpoint"
        test_mutation_duplicate_checkpoint;
      case "mutation: correlated replica imm -> decorrelation-violation"
        test_mutation_correlated_replica_imm;
      case "mutation: merged shadows -> shadow-collision"
        test_mutation_shadow_collision;
      case "lint: bundle overflow" test_bundle_overflow;
      case "lint: unresolved branch target" test_unresolved_target;
      case "lint: replica clobbering a master register" test_replica_overlap;
      case "oracle: clean on the mutation program" test_oracle_clean;
      case "oracle: matrix shape" test_oracle_matrix_shape;
      case "oracle: detects an output divergence"
        test_oracle_detects_output_divergence;
      case "matrix: single workload, single cell" test_matrix_single_workload;
      case "matrix: rejects unknown benchmarks" test_matrix_rejects_unknown;
      case "fuzz: generation is deterministic" test_fuzz_deterministic;
      case "fuzz: small campaign is clean" test_fuzz_small_campaign_clean;
      case "fuzz: four-way oracle includes the compiled engine"
        test_fuzz_four_way_includes_compiled;
      case "fuzz: generated programs exit cleanly" test_fuzz_programs_run;
      case "fuzz: mutated assembly never raises" test_mutated_asm_never_raises;
      case "matrix: workloads shared across cells, in order"
        test_matrix_shares_workloads_in_order;
    ] )
