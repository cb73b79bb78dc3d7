(** Common benchmark interface.

    Each workload mirrors one of the paper's seven benchmarks (Table II):
    a deterministic kernel with the published character of the original —
    ILP profile, branch/store density, cache footprint — built as an IR
    program. [Fault] inputs are small (fault campaigns run hundreds of
    executions); [Perf] inputs are larger for stable timing. *)

type size = Perf | Fault

type t = {
  name : string;
  suite : string;  (** "MediaBench II" or "SPEC CINT2000" *)
  description : string;
  build : size -> Casted_ir.Program.t;
}

val size_name : size -> string

(** Inverse of {!size_name}; [None] for any other string. *)
val size_of_name : string -> size option
