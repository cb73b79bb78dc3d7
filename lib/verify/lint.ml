module Reg = Casted_ir.Reg
module Opcode = Casted_ir.Opcode
module Insn = Casted_ir.Insn
module Block = Casted_ir.Block
module Func = Casted_ir.Func
module Program = Casted_ir.Program
module Config = Casted_machine.Config
module Latency = Casted_machine.Latency
module Schedule = Casted_sched.Schedule
module Options = Casted_detect.Options
module Scheme = Casted_detect.Scheme

(* Diagnostics accumulate in order of discovery; [schedule] reverses
   once at the end. *)
type acc = { mutable diags : Diag.t list }

let add acc ?block ?insn ?cycle ~func rule message =
  acc.diags <- Diag.make ?block ?insn ?cycle ~func rule message :: acc.diags

(* The shadow map is reconstructed from the emitted artifacts rather
   than trusted from the pass — see {!Casted_sched.Shadow}. *)
module Shadow = Casted_sched.Shadow

(* Register isolation: the shadow stream's defs must never collide with
   a register the original stream defines or reads (or a parameter) —
   a collision lets a replica clobber master state, which is exactly
   the corruption the scheme claims to detect. *)
let lint_isolation acc ~fname (f : Func.t) =
  let masters = ref Reg.Set.empty in
  let master_site = Reg.Tbl.create 64 in
  let note_master insn r =
    if not (Reg.Set.mem r !masters) then begin
      masters := Reg.Set.add r !masters;
      Reg.Tbl.replace master_site r insn.Insn.id
    end
  in
  List.iter (fun r -> masters := Reg.Set.add r !masters) f.Func.params;
  Func.iter_insns f (fun _ i ->
      if i.Insn.role = Insn.Original then begin
        Array.iter (note_master i) i.Insn.defs;
        Array.iter (note_master i) i.Insn.uses
      end);
  Func.iter_insns f (fun block i ->
      match i.Insn.role with
      | Insn.Replica | Insn.Shadow_copy ->
          Array.iter
            (fun r ->
              if Reg.Set.mem r !masters then
                add acc ~block:block.Block.label ~insn:i.Insn.id ~func:fname
                  Diag.Replica_overlap
                  (Format.asprintf
                     "%s instruction defines %a, which the master stream \
                      also touches%s"
                     (Insn.role_to_string i.Insn.role)
                     Reg.pp r
                     (match Reg.Tbl.find_opt master_site r with
                     | Some id -> Printf.sprintf " (e.g. insn %d)" id
                     | None -> " (parameter)")))
            i.Insn.defs
      | Insn.Original | Insn.Check -> ())

(* Not [Options.wants_check] on purpose: the linter's independent reading. *)
let wants_check (options : Options.t) (i : Insn.t) =
  match i.Insn.op with
  | Opcode.St _ | Opcode.Fst -> options.Options.check_stores
  | Opcode.Brc _ -> options.Options.check_branches
  | Opcode.Call | Opcode.Ret | Opcode.Halt -> options.Options.check_calls
  | _ -> false

(* Replication, check and shadow-copy coverage of one hardened,
   protected function. All three rules work per block, because the
   transform emits replicas, checks and copies into the block of the
   instruction they serve. *)
let lint_coverage acc ~fname ~voting ~decorrelated (options : Options.t)
    (f : Func.t) shadow =
  let block_rules (b : Block.t) =
    let insns = Block.insns b in
    let replicas_of = Hashtbl.create 16 in
    let checks_of = Hashtbl.create 16 in
    let copies_of = Hashtbl.create 16 in
    List.iter
      (fun (i : Insn.t) ->
        match i.Insn.role with
        | Insn.Replica -> Hashtbl.add replicas_of i.Insn.replica_of i
        | Insn.Check -> Hashtbl.add checks_of i.Insn.protects i
        | Insn.Shadow_copy -> Hashtbl.add copies_of i.Insn.replica_of i
        | Insn.Original -> ())
      insns;
    List.iter
      (fun (i : Insn.t) ->
        if i.Insn.role = Insn.Original then begin
          (* Full scope: every replicable original has a replica —
             and under DME stores do too (the replica stream keeps its
             own memory image). *)
          if
            options.Options.scope = Options.Full
            && (Opcode.replicable i.Insn.op
               || (decorrelated && Opcode.is_store i.Insn.op))
            && not (Hashtbl.mem replicas_of i.Insn.id)
          then
            add acc ~block:b.Block.label ~insn:i.Insn.id ~func:fname
              Diag.Missing_replica
              (Format.asprintf "replicable instruction %a has no replica"
                 Insn.pp i);
          (* Non-replicated consumers: a check per shadowed operand —
             for a detection scheme a [Chk] against the shadow, for TMR
             a majority-vote [Sel] whose fallthrough operand is the
             protected register (GP operands; the rest keep the
             detection check as TMR's own fallback). *)
          if (not (Opcode.replicable i.Insn.op)) && wants_check options i
          then begin
            let seen = ref Reg.Set.empty in
            Array.iter
              (fun r ->
                if not (Reg.Set.mem r !seen) then begin
                  seen := Reg.Set.add r !seen;
                  match Reg.Tbl.find_opt shadow r with
                  | None -> () (* outside the replication scope *)
                  | Some r' ->
                      if voting && Reg.cls r = Reg.Gp then begin
                        let voted =
                          List.exists
                            (fun (c : Insn.t) ->
                              c.Insn.op = Opcode.Sel
                              && Array.length c.Insn.uses = 3
                              && Reg.equal c.Insn.uses.(1) r'
                              && Reg.equal c.Insn.uses.(2) r)
                            (Hashtbl.find_all checks_of i.Insn.id)
                        in
                        if not voted then
                          add acc ~block:b.Block.label ~insn:i.Insn.id
                            ~func:fname Diag.Missing_vote
                            (Format.asprintf
                               "%a reads %a but no majority vote covers it \
                                (expected a Sel over %a and its shadow %a)"
                               Insn.pp i Reg.pp r Reg.pp r Reg.pp r')
                      end
                      else
                        let covered =
                          List.exists
                            (fun (c : Insn.t) ->
                              Array.length c.Insn.uses = 2
                              && ((Reg.equal c.Insn.uses.(0) r
                                  && Reg.equal c.Insn.uses.(1) r')
                                 || (Reg.equal c.Insn.uses.(0) r'
                                    && Reg.equal c.Insn.uses.(1) r)))
                            (Hashtbl.find_all checks_of i.Insn.id)
                        in
                        if not covered then
                          add acc ~block:b.Block.label ~insn:i.Insn.id
                            ~func:fname Diag.Missing_check
                            (Format.asprintf
                               "%a reads %a but no check compares it against \
                                its shadow %a"
                               Insn.pp i Reg.pp r Reg.pp r')
                end)
              i.Insn.uses
          end;
          (* Values entering through non-replicated defs get copies. *)
          if
            Array.length i.Insn.defs > 0
            && not (Opcode.replicable i.Insn.op)
          then
            Array.iter
              (fun r ->
                if Reg.cls r <> Reg.Pr then
                  let copied =
                    List.exists
                      (fun (c : Insn.t) ->
                        Array.length c.Insn.uses >= 1
                        && Reg.equal c.Insn.uses.(0) r)
                      (Hashtbl.find_all copies_of i.Insn.id)
                  in
                  if not copied then
                    add acc ~block:b.Block.label ~insn:i.Insn.id ~func:fname
                      Diag.Missing_shadow_copy
                      (Format.asprintf
                         "%a defines %a with no shadow copy after it"
                         Insn.pp i Reg.pp r))
              i.Insn.defs
        end)
      insns
  in
  List.iter block_rules f.Func.blocks;
  (* Parameters enter the shadow space at function entry. *)
  if options.Options.shadow_params && f.Func.params <> [] then begin
    let entry = Func.entry f in
    let entry_copies =
      List.filter
        (fun (i : Insn.t) ->
          i.Insn.role = Insn.Shadow_copy && i.Insn.replica_of = -1)
        entry.Block.body
    in
    List.iter
      (fun p ->
        let copied =
          List.exists
            (fun (c : Insn.t) ->
              Array.length c.Insn.uses >= 1 && Reg.equal c.Insn.uses.(0) p)
            entry_copies
        in
        if not copied then
          add acc ~block:entry.Block.label ~func:fname
            Diag.Missing_shadow_copy
            (Format.asprintf "parameter %a has no shadow copy at entry"
               Reg.pp p))
      f.Func.params
  end

(* Decorrelation invariants under DME, recomputed from the emitted
   code: the artifact-derived shadow map must be injective (the
   register shuffle is a bijection of the shadow space — a collision
   means one shadow register carries two protected values), and every
   replica memory access must address the original's location shifted
   by exactly [shadow_base] (anything else either re-shares a line
   with the master or reads garbage). *)
let lint_decorrelation acc ~fname ~shadow_base (f : Func.t) by_id shadow =
  List.iter
    (fun (orig, other, sh) ->
      add acc ~func:fname Diag.Shadow_collision
        (Format.asprintf
           "shadow register %a covers both %a and %a: the decorrelated \
            shadow map must be injective"
           Reg.pp sh Reg.pp orig Reg.pp other))
    (Shadow.collisions shadow);
  let offset = Int64.of_int shadow_base in
  Func.iter_insns f (fun block i ->
      if i.Insn.role = Insn.Replica && Opcode.is_mem i.Insn.op then
        match Hashtbl.find_opt by_id i.Insn.replica_of with
        | None ->
            add acc ~block:block.Block.label ~insn:i.Insn.id ~func:fname
              Diag.Decorrelation_violation
              (Format.asprintf
                 "replica memory access %a has no original (replica_of %d)"
                 Insn.pp i i.Insn.replica_of)
        | Some (orig : Insn.t) ->
            let want = Int64.add orig.Insn.imm offset in
            if i.Insn.imm <> want then
              add acc ~block:block.Block.label ~insn:i.Insn.id ~func:fname
                Diag.Decorrelation_violation
                (Format.asprintf
                   "replica memory access %a offsets the original's \
                    immediate %Ld by %Ld, expected shadow base %d"
                   Insn.pp i orig.Insn.imm
                   (Int64.sub i.Insn.imm orig.Insn.imm)
                   shadow_base))

(* Vote integrity under TMR: every majority vote (a Check-role [Sel],
   emitted only by the recovery pass) must rewrite all three copies —
   master, both replicas — with the voted value, or a diverged copy
   stays live after the vote and a later vote can be outvoted by stale
   state. The replica pair is recovered from the vote's own compare
   ([Cmp Eq p <- s1, s2]), not trusted from the pass. *)
let lint_votes acc ~fname (f : Func.t) =
  let block_rules (b : Block.t) =
    let insns = Block.insns b in
    List.iter
      (fun (i : Insn.t) ->
        if
          i.Insn.role = Insn.Check
          && i.Insn.op = Opcode.Sel
          && Array.length i.Insn.uses = 3
          && Array.length i.Insn.defs = 1
        then begin
          let p = i.Insn.uses.(0) in
          let a = i.Insn.uses.(1) in
          let r = i.Insn.uses.(2) in
          let v = i.Insn.defs.(0) in
          let compare_b =
            List.find_map
              (fun (c : Insn.t) ->
                match c.Insn.op with
                | Opcode.Cmp _
                  when c.Insn.role = Insn.Check
                       && Array.length c.Insn.defs = 1
                       && Reg.equal c.Insn.defs.(0) p
                       && Array.length c.Insn.uses = 2
                       && Reg.equal c.Insn.uses.(0) a ->
                    Some c.Insn.uses.(1)
                | _ -> None)
              insns
          in
          match compare_b with
          | None ->
              add acc ~block:b.Block.label ~insn:i.Insn.id ~func:fname
                Diag.Partial_vote_rewrite
                (Format.asprintf
                   "vote %a has no compare defining its predicate %a over \
                    the replica pair"
                   Insn.pp i Reg.pp p)
          | Some breg ->
              List.iter
                (fun target ->
                  let rewritten =
                    List.exists
                      (fun (c : Insn.t) ->
                        c.Insn.role = Insn.Check
                        && c.Insn.op = Opcode.Mov
                        && Array.length c.Insn.defs = 1
                        && Reg.equal c.Insn.defs.(0) target
                        && Array.length c.Insn.uses = 1
                        && Reg.equal c.Insn.uses.(0) v)
                      insns
                  in
                  if not rewritten then
                    add acc ~block:b.Block.label ~insn:i.Insn.id ~func:fname
                      Diag.Partial_vote_rewrite
                      (Format.asprintf
                         "vote %a never rewrites copy %a with the voted \
                          value %a"
                         Insn.pp i Reg.pp target Reg.pp v))
                [ r; a; breg ]
        end)
      insns
  in
  List.iter block_rules f.Func.blocks

(* Checkpoint placement under Rollback, reconstructed from layout
   rather than trusted from the pass: every region head of the entry
   function — entry block, every target of a backward (or self) branch
   — must open with a [Cpt] marker (re-executing a region is only
   idempotent if its head really is snapshotted), checkpoints must sit
   first in their block's body and appear at most once, and no other
   function may carry one (snapshots are invalid below the entry
   frame). *)
let lint_checkpoints acc ~entry (funcs : (string * Func.t) list) =
  let is_cpt (i : Insn.t) = Opcode.is_checkpoint i.Insn.op in
  List.iter
    (fun (fname, (f : Func.t)) ->
      if not (String.equal fname entry) then
        Func.iter_insns f (fun block i ->
            if is_cpt i then
              add acc ~block:block.Block.label ~insn:i.Insn.id ~func:fname
                Diag.Misplaced_checkpoint
                "checkpoint outside the entry function: snapshots are only \
                 valid at entry-function block tops")
      else begin
        let blocks = Array.of_list f.Func.blocks in
        let index_of = Hashtbl.create (2 * Array.length blocks) in
        Array.iteri
          (fun idx b ->
            if not (Hashtbl.mem index_of b.Block.label) then
              Hashtbl.add index_of b.Block.label idx)
          blocks;
        let heads = Array.make (Array.length blocks) false in
        if Array.length heads > 0 then heads.(0) <- true;
        Array.iteri
          (fun idx b ->
            List.iter
              (fun label ->
                match Hashtbl.find_opt index_of label with
                | Some j when j <= idx -> heads.(j) <- true
                | _ -> ())
              (Block.successors b))
          blocks;
        Array.iteri
          (fun idx (b : Block.t) ->
            let cpts = List.filter is_cpt b.Block.body in
            (match (heads.(idx), cpts) with
            | true, [] ->
                add acc ~block:b.Block.label ~func:fname
                  Diag.Missing_checkpoint
                  "region head (entry block or backward-branch target) has \
                   no checkpoint marker"
            | _, _ :: _ :: _ ->
                List.iter
                  (fun (extra : Insn.t) ->
                    add acc ~block:b.Block.label ~insn:extra.Insn.id
                      ~func:fname Diag.Misplaced_checkpoint
                      "block carries more than one checkpoint marker")
                  (List.tl cpts)
            | _ -> ());
            match (b.Block.body, cpts) with
            | first :: _, c :: _ when not (is_cpt first) ->
                add acc ~block:b.Block.label ~insn:c.Insn.id ~func:fname
                  Diag.Misplaced_checkpoint
                  "checkpoint marker is not the first instruction of its \
                   block: the snapshot taken at the block top would not \
                   cover the instructions before it"
            | _ -> ())
          blocks
      end)
    funcs

(* Structure of one scheduled block against its IR block: same
   instruction set, once each, legal bundle shapes, consistent issue
   map. Returns the linear issue positions (insn id -> cycle, cluster)
   for the timing rules. *)
let lint_block_structure acc ~fname (config : Config.t) (ir : Block.t)
    (bs : Schedule.block_schedule) =
  let label = bs.Schedule.label in
  if not (String.equal label ir.Block.label) then
    add acc ~block:ir.Block.label ~func:fname Diag.Schedule_mismatch
      (Printf.sprintf "schedule block %S paired with IR block %S" label
         ir.Block.label);
  let position = Hashtbl.create 32 in
  Array.iteri
    (fun cycle bundle ->
      if Array.length bundle <> config.Config.clusters then
        add acc ~block:label ~cycle ~func:fname Diag.Bundle_overflow
          (Printf.sprintf "cycle has %d cluster slots, machine has %d"
             (Array.length bundle) config.Config.clusters);
      Array.iteri
        (fun cluster slots ->
          if Array.length slots > config.Config.issue_width then
            add acc ~block:label ~cycle ~func:fname Diag.Bundle_overflow
              (Printf.sprintf
                 "cluster %d issues %d instructions, issue width is %d"
                 cluster (Array.length slots) config.Config.issue_width);
          Array.iter
            (fun (i : Insn.t) ->
              if Hashtbl.mem position i.Insn.id then
                add acc ~block:label ~insn:i.Insn.id ~cycle ~func:fname
                  Diag.Schedule_mismatch "instruction scheduled twice"
              else Hashtbl.replace position i.Insn.id (cycle, cluster))
            slots)
        bundle)
    bs.Schedule.bundles;
  (* Exactly the IR's instructions, and an issue map that agrees with
     the bundles. *)
  let ir_ids = Hashtbl.create 32 in
  List.iter
    (fun (i : Insn.t) ->
      Hashtbl.replace ir_ids i.Insn.id ();
      match Hashtbl.find_opt position i.Insn.id with
      | None ->
          add acc ~block:label ~insn:i.Insn.id ~func:fname
            Diag.Schedule_mismatch
            (Format.asprintf "IR instruction %a is not scheduled" Insn.pp i)
      | Some (cycle, cluster) -> (
          match Hashtbl.find_opt bs.Schedule.issue_of i.Insn.id with
          | Some (c, cl) when c = cycle && cl = cluster -> ()
          | Some (c, cl) ->
              add acc ~block:label ~insn:i.Insn.id ~cycle ~func:fname
                Diag.Schedule_mismatch
                (Printf.sprintf
                   "issue map says cycle %d cluster %d, bundles say cycle \
                    %d cluster %d"
                   c cl cycle cluster)
          | None ->
              add acc ~block:label ~insn:i.Insn.id ~cycle ~func:fname
                Diag.Schedule_mismatch "instruction missing from issue map"))
    (Block.insns ir);
  Hashtbl.iter
    (fun id (cycle, _) ->
      if not (Hashtbl.mem ir_ids id) then
        add acc ~block:label ~insn:id ~cycle ~func:fname
          Diag.Schedule_mismatch "scheduled instruction is not in the IR block")
    position;
  position

(* Branch and callee targets must resolve: branch labels within the
   function, callees within the schedule. *)
let lint_targets acc ~fname (labels : (string, unit) Hashtbl.t)
    (callees : (string, unit) Hashtbl.t) (bs : Schedule.block_schedule) =
  let check_label (i : Insn.t) name =
    if name <> "" && not (Hashtbl.mem labels name) then
      add acc ~block:bs.Schedule.label ~insn:i.Insn.id ~func:fname
        Diag.Unresolved_target
        (Printf.sprintf "branch target %S is not a block of this function"
           name)
  in
  Array.iter
    (Array.iter
       (Array.iter (fun (i : Insn.t) ->
            match i.Insn.op with
            | Opcode.Br -> check_label i i.Insn.target
            | Opcode.Brc _ ->
                check_label i i.Insn.target;
                check_label i i.Insn.target2
            | Opcode.Call ->
                if not (Hashtbl.mem callees i.Insn.target) then
                  add acc ~block:bs.Schedule.label ~insn:i.Insn.id
                    ~func:fname Diag.Unresolved_target
                    (Printf.sprintf "callee %S is not in the schedule"
                       i.Insn.target)
            | _ -> ())))
    bs.Schedule.bundles

(* Operand timing within a block: walking the bundles in issue order
   (cycle, then cluster, then slot), every read of a register written
   earlier in the block must wait out the producer's latency — plus the
   inter-cluster delay when the producer sits on another cluster. The
   same bound applies between a check and the instruction it guards,
   which is how "a delay cycle dropped from the schedule" surfaces. *)
let lint_timing acc ~fname ~voting (config : Config.t)
    (bs : Schedule.block_schedule) position =
  let latency (i : Insn.t) = Latency.of_op config.Config.latencies i.Insn.op in
  let last_def = Reg.Tbl.create 32 in
  let walk f =
    Array.iteri
      (fun cycle bundle ->
        Array.iteri
          (fun cluster slots ->
            Array.iter (fun i -> f cycle cluster i) slots)
          bundle)
      bs.Schedule.bundles
  in
  walk (fun cycle cluster (i : Insn.t) ->
      let seen = ref Reg.Set.empty in
      Array.iter
        (fun r ->
          if Reg.Set.mem r !seen then ()
          else begin
            seen := Reg.Set.add r !seen;
            match Reg.Tbl.find_opt last_def r with
            | None -> ()
            | Some (dc, dcl, lat) ->
              let cross = if dcl <> cluster then config.Config.delay else 0 in
              let required = dc + lat + cross in
              if cycle < required then
                add acc ~block:bs.Schedule.label ~insn:i.Insn.id ~cycle
                  ~func:fname Diag.Delay_violation
                  (Format.asprintf
                     "%a reads %a at cycle %d, but its producer issues at \
                      cycle %d on cluster %d (latency %d%s): earliest legal \
                      read is cycle %d"
                     Insn.pp i Reg.pp r cycle dc dcl lat
                     (if cross > 0 then
                        Printf.sprintf " + delay %d" config.Config.delay
                      else "")
                     required)
          end)
        i.Insn.uses;
      Array.iter
        (fun r -> Reg.Tbl.replace last_def r (cycle, cluster, latency i))
        i.Insn.defs;
      (* A detection check must complete before the instruction it
         guards issues, or the fault window it guards is open. Under a
         voting scheme only the fallback [Chk]s are fail-stop: the vote
         chain feeds the guarded instruction through a data dependency
         on the repaired master (already covered by the operand-timing
         rule above), and the shadow rewrites may legally complete
         later. *)
      if
        i.Insn.role = Insn.Check
        && i.Insn.protects >= 0
        && ((not voting) || Opcode.is_check i.Insn.op)
      then
        match Hashtbl.find_opt position i.Insn.protects with
        | None -> ()
        | Some (pc, pcl) ->
            let cross = if pcl <> cluster then config.Config.delay else 0 in
            let required = cycle + latency i + cross in
            if pc < required then
              add acc ~block:bs.Schedule.label ~insn:i.Insn.id ~cycle
                ~func:fname Diag.Delay_violation
                (Printf.sprintf
                   "check completes at cycle %d but the instruction it \
                    guards (insn %d) issues at cycle %d"
                   required i.Insn.protects pc))

let lint_func acc ~options ~hardened ~voting ~decorrelated ~shadow_base
    (config : Config.t) (callees : (string, unit) Hashtbl.t) fname
    (fs : Schedule.func_schedule) =
  let f = fs.Schedule.func in
  let ir_blocks = Array.of_list f.Func.blocks in
  if Array.length ir_blocks <> Array.length fs.Schedule.blocks then
    add acc ~func:fname Diag.Schedule_mismatch
      (Printf.sprintf "IR has %d blocks, schedule has %d"
         (Array.length ir_blocks)
         (Array.length fs.Schedule.blocks));
  let labels = Hashtbl.create 8 in
  Array.iter
    (fun (b : Block.t) -> Hashtbl.replace labels b.Block.label ())
    ir_blocks;
  let n = min (Array.length ir_blocks) (Array.length fs.Schedule.blocks) in
  for k = 0 to n - 1 do
    let ir = ir_blocks.(k) and bs = fs.Schedule.blocks.(k) in
    let position = lint_block_structure acc ~fname config ir bs in
    lint_targets acc ~fname labels callees bs;
    lint_timing acc ~fname ~voting config bs position
  done;
  if hardened && f.Func.protect then begin
    let by_id, shadow = Shadow.reconstruct f in
    lint_isolation acc ~fname f;
    lint_coverage acc ~fname ~voting ~decorrelated options f shadow;
    if voting then lint_votes acc ~fname f;
    if decorrelated then
      lint_decorrelation acc ~fname ~shadow_base f by_id shadow
  end

let schedule ?(options = Options.default) ~scheme (s : Schedule.t) =
  let acc = { diags = [] } in
  let hardened = Scheme.hardened scheme in
  let voting = scheme = Scheme.Tmr in
  let decorrelated = scheme = Scheme.Dme in
  let shadow_base =
    match s.Schedule.program.Program.shadow_base with
    | Some b -> b
    | None -> 0
  in
  if decorrelated && s.Schedule.program.Program.shadow_base = None then
    add acc ~func:s.Schedule.program.Program.entry
      Diag.Decorrelation_violation
      "DME program carries no shadow base: the replica image boundary is \
       unrecoverable and the memory digest would cover the replica half";
  let config = s.Schedule.config in
  let callees = Hashtbl.create 8 in
  List.iter (fun (name, _) -> Hashtbl.replace callees name ()) s.Schedule.funcs;
  let entry = s.Schedule.program.Program.entry in
  if not (Hashtbl.mem callees entry) then
    add acc ~func:entry Diag.Unresolved_target
      (Printf.sprintf "entry function %S is not in the schedule" entry);
  List.iter
    (fun (f : Func.t) ->
      if not (Hashtbl.mem callees f.Func.name) then
        add acc ~func:f.Func.name Diag.Schedule_mismatch
          "program function has no schedule")
    s.Schedule.program.Program.funcs;
  List.iter
    (fun (fname, fs) ->
      lint_func acc ~options ~hardened ~voting ~decorrelated ~shadow_base
        config callees fname fs)
    s.Schedule.funcs;
  if scheme = Scheme.Rollback then
    lint_checkpoints acc ~entry
      (List.map
         (fun (fname, fs) -> (fname, fs.Schedule.func))
         s.Schedule.funcs);
  List.rev acc.diags
