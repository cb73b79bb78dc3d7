(** Pre-decoded execution form of a schedule: decode once, simulate many.

    Monte-Carlo fault injection re-simulates the {e same} schedule
    thousands of times, so everything that can be resolved once per
    schedule is resolved here instead of per executed instruction:

    - branch targets become block {e indices} (no per-taken-branch
      linear label scan);
    - callees become function {e indices} (no [List.assoc] per dynamic
      call);
    - per-instruction issue latencies are precomputed (no
      [Latency.of_op] dispatch in the hot loop);
    - role indices are baked in (no per-instruction variant match for
      the role tally);
    - bundles with no instructions are stripped, keeping their cycle
      offset (an empty bundle is a real NOP cycle but executes nothing);
    - the initial memory image is rendered to one pristine byte string
      that each trial restores from (a [Bytes.blit], or only the pages
      the previous run dirtied when the arena was last reset from the
      same image). Programs a domain decodes in a row with equal data
      segments and memory size share one image.

    Decoding only changes {e how} the simulator executes, never what the
    machine does: both engines that execute a decoded program (the
    reference interpreter {!Casted_sim.Simulator.reference} and the
    stage-2 compiled engine {!Casted_sim.Compile}) produce bit-identical
    {!Outcome.run}s to the pre-decode interpreter the golden fixture
    froze. Decode also validates every branch label and callee name
    up front, so a malformed schedule fails loudly at decode time
    instead of mid-run. *)

(** One decoded instruction: the IR fields the interpreter reads, plus
    everything resolvable at decode time. *)
type dinsn = {
  op : Casted_ir.Opcode.t;
  uses : Casted_ir.Reg.t array;  (** shared with the source [Insn.t] *)
  defs : Casted_ir.Reg.t array;
  imm : int64;
  fimm : float;
  id : int;  (** source instruction id (check reporting) *)
  latency : int;  (** issue latency under the schedule's config *)
  role : int;  (** {!Casted_ir.Insn.role} as a dense index 0..3 *)
  target : int;
      (** [Br]/[Brc]: taken-branch block index; [Call]: callee function
          index; -1 otherwise *)
  target2 : int;  (** [Brc]: fall-through block index; -1 otherwise *)
}

type dbundle = {
  at : int;
      (** static cycle offset of this bundle within its block — kept
          through empty-bundle stripping so NOP cycles still gate issue
          time *)
  slots : dinsn array array;  (** [slots.(cluster)], at least one insn *)
}

type dblock = {
  label : string;  (** for profiling only *)
  bundles : dbundle array;  (** empty cycles stripped *)
  checkpoint : bool;
      (** the block carries a [Cpt] marker: its loop top is a
          rollback-region boundary, a checkpoint
          region recovery ({!Compile.run} [~retry_budget]) counts and can
          roll back to *)
}

type dfunc = {
  func : Casted_ir.Func.t;
  params : Casted_ir.Reg.t array;
      (** [func.params] as an array, so call-argument binding is an
          index loop instead of a [List.iter2] *)
  blocks : dblock array;  (** same order as the schedule's blocks *)
}

type t = {
  sched : Casted_sched.Schedule.t;  (** provenance *)
  config : Casted_machine.Config.t;
  funcs : dfunc array;
  entry : int;  (** index of the entry function in [funcs] *)
  image : Bytes.t;
      (** pristine initial memory ([mem_size] bytes, data segments
          loaded) — read-only, shared across trials and domains, and
          with the previous program decoded on the same domain when its
          segments and size are equal *)
  output_base : int;
  output_len : int;
  digest_len : int;
      (** prefix of the arena covered by the architectural memory
          digest: [shadow_base] for DME programs (the replica image
          above it is intentionally divergent layout, not architectural
          state), [mem_size] otherwise *)
}

(** [of_schedule sched] compiles the schedule into its execution-ready
    form. Raises [Invalid_argument] for an unknown branch label, callee
    or entry function, or an out-of-bounds data segment. Traced as a
    [sim.decode] span; counted by the [sim.decodes] metric. *)
val of_schedule : Casted_sched.Schedule.t -> t
