(* Machinery shared by the two execution engines — the reference
   interpreter over the decoded form (Simulator) and the closure-threaded
   compiled engine (Compile). Both raise the same exceptions, assemble
   the same Outcome.run from a finished State.t and surface the same
   metrics, so the engines can only diverge through State itself — the
   property the verify oracle's reference-vs-production cross-check
   leans on. *)

module Insn = Casted_ir.Insn
module Config = Casted_machine.Config
module Hierarchy = Casted_cache.Hierarchy

exception Halted of int
exception Check_failed of int
exception Out_of_fuel

let max_call_depth = 10_000

let role_index = function
  | Insn.Original -> 0
  | Insn.Replica -> 1
  | Insn.Check -> 2
  | Insn.Shadow_copy -> 3

let addr_int addr =
  (* The cache model indexes by machine address; negative or huge
     addresses would have trapped in Memory first, but the cache access
     happens before the bounds check for loads, so clamp defensively. *)
  if Int64.compare addr 0L < 0 then 0
  else Int64.to_int (Int64.logand addr 0x3FFF_FFFFL)

(* Surface one finished run into the metrics registry. Runs entirely on
   the calling domain's metrics slot, after the simulation is done, so
   it can never perturb the simulation itself. An untimed run's cycles,
   slots and cache counts are not measurements, so it adds none. *)
let record_metrics ~timed (r : Outcome.run) =
  let module M = Casted_obs.Metrics in
  if M.enabled () then begin
    M.incr "sim.runs";
    M.incr ~by:r.Outcome.dyn_insns "sim.insns";
    M.incr ~by:r.Outcome.dyn_mem "sim.mem_accesses";
    M.incr ~by:r.Outcome.dyn_branches "sim.branches";
    M.incr ~by:r.Outcome.dyn_xreads "sim.xcluster_reads";
    M.incr ~by:r.Outcome.dyn_checks "sim.checks_executed";
    M.incr ~by:(Outcome.trapped r) "sim.traps";
    (match r.Outcome.termination with
    | Outcome.Detected _ -> M.incr "sim.detections"
    | _ -> ());
    if timed then begin
      M.incr ~by:r.Outcome.cycles "sim.cycles";
      M.incr ~by:r.Outcome.slots_total "sim.slots_offered";
      M.observe "sim.occupancy" (Outcome.occupancy r);
      let c = r.Outcome.cache in
      M.incr ~by:c.Casted_cache.Hierarchy.l1_hits "cache.l1.hits";
      M.incr ~by:c.Casted_cache.Hierarchy.l1_misses "cache.l1.misses";
      M.incr ~by:c.Casted_cache.Hierarchy.l2_hits "cache.l2.hits";
      M.incr ~by:c.Casted_cache.Hierarchy.l2_misses "cache.l2.misses";
      M.incr ~by:c.Casted_cache.Hierarchy.l3_hits "cache.l3.hits";
      M.incr ~by:c.Casted_cache.Hierarchy.l3_misses "cache.l3.misses";
      M.incr ~by:c.Casted_cache.Hierarchy.writebacks "cache.writebacks"
    end
  end

(* Assemble the Outcome.run from a finished (or trapped) machine. Shared
   by the full, replayed and compiled paths so they can only differ
   through State itself. *)
let finish ~config ~output_base ~output_len ~digest_len ~with_mem_digest
    ~timed (st : State.t) termination =
  let output = Memory.extract st.State.mem ~base:output_base ~len:output_len in
  let cycles = st.State.time + 1 in
  let r =
    {
      Outcome.termination;
      cycles;
      dyn_insns = st.State.dyn;
      dyn_defs = st.State.defs;
      dyn_mem = st.State.mems;
      dyn_branches = st.State.branches;
      dyn_xreads = st.State.xreads;
      dyn_checks = st.State.roles.(role_index Insn.Check);
      dyn_corrections = st.State.corrections;
      dyn_by_role = st.State.roles;
      slots_total =
        cycles * config.Config.clusters * config.Config.issue_width;
      output;
      exit_code =
        (match termination with
        | Outcome.Exit c | Outcome.Recovered { exit_code = c; _ } -> c
        | _ -> -1);
      cache = Hierarchy.stats st.State.hier;
      (* Digest only the architectural prefix: a DME program's replica
         image above [digest_len] differs from the golden layout by
         construction and must not count as corruption. *)
      mem_digest =
        (if with_mem_digest then
           Digest.string
             (Memory.extract st.State.mem ~base:0 ~len:digest_len)
         else "");
    }
  in
  record_metrics ~timed r;
  r

let termination_of f =
  try f () with
  | Halted code -> Outcome.Exit code
  | Check_failed id -> Outcome.Detected id
  | Trap.Trap t -> Outcome.Trapped t
  | Out_of_fuel -> Outcome.Timeout
