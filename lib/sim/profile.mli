(** Per-block execution profiling.

    When handed to {!Simulator.reference}, collects how often every basic block
    executes and how many cycles it accounts for (inclusive of callees
    invoked from the block). Useful to see where the detection overhead
    lands — e.g. the check-dense loop bodies dominating h263enc. *)

type entry = { mutable visits : int; mutable cycles : int }

type t

val create : unit -> t

(** Used by the simulator. *)
val record : t -> func:string -> label:string -> cycles:int -> unit

(** All entries as [((func, label), entry)], hottest (most cycles)
    first; ties broken by name so the order is deterministic. *)
val entries : t -> ((string * string) * entry) list

val total_cycles : t -> int

(** One profile line in structured form; [share] is the fraction of
    {!total_cycles} in [0, 1]. *)
type row = {
  func : string;
  label : string;
  visits : int;
  cycles : int;
  share : float;
}

(** The [n] hottest blocks (default 10), structured — the data behind
    {!render_top}, for machine-readable export. *)
val top : ?n:int -> t -> row list

(** Render the [n] hottest blocks (default 10) as a table. *)
val render_top : ?n:int -> t -> string
