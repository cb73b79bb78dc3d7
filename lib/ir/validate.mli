(** Structural validation of IR programs.

    Every workload and every compiler pass output is validated in the test
    suite; the checks catch malformed register classes, dangling branch
    targets, call signature mismatches and out-of-bounds data segments
    before they turn into confusing simulator failures. *)

(** [check_program p] returns the list of violations ([] if well formed). *)
val check_program : Program.t -> string list

(** Raises [Invalid_argument] listing the violations, if any. *)
val check_exn : Program.t -> unit
