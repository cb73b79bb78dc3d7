(* Golden-prefix replay: checkpoint the golden run, start each faulty
   trial from the snapshot nearest its injection event.

   A faulty trial is bit-identical to the golden run until its trigger
   event fires (every fault model is armed by one monotone dynamic
   counter), so any snapshot whose counter has not yet reached the
   fault's target is a valid starting point — restoring it and running
   the suffix with the fault armed is exactly the full run. The mean
   trial cost drops from the whole program to the mean suffix length. *)

module Trace = Casted_obs.Trace
module M = Casted_obs.Metrics

type t = {
  golden : Outcome.run;
  snaps : State.snapshot array;  (* chronological, counters nondecreasing *)
  stride : int;
  bytes : int;
}

let golden t = t.golden
let snapshots t = t.snaps
let count t = Array.length t.snaps
let total_bytes t = t.bytes
let stride t = t.stride

let default_target = 48
let default_init_stride = 512

let capture ?(init_stride = default_init_stride) ?(target = default_target)
    ?(at = fun (_ : int) -> true) (run : on_block:(State.t -> State.regfile -> int -> unit) -> Outcome.run)
    =
  if init_stride < 1 then invalid_arg "Replay.capture: init_stride < 1";
  if target < 1 then invalid_arg "Replay.capture: target < 1";
  Trace.with_span ~cat:"sim" "sim.replay"
    ~args:[ ("target", Casted_obs.Json.Int target) ]
  @@ fun () ->
  (* Single-pass capture with stride doubling: the golden dynamic
     length is unknown until the run ends, so start snapshotting every
     [init_stride] dynamic instructions and, whenever 2*[target]
     snapshots have accumulated, drop every other one and double the
     stride. Deterministic, one golden run, bounded live snapshots. *)
  let acc = ref [] in
  (* newest first *)
  let n = ref 0 in
  let stride = ref init_stride in
  let next_at = ref init_stride in
  let on_block st regs block =
    if st.State.dyn >= !next_at && at block then begin
      acc := State.snapshot st ~regs ~block :: !acc;
      incr n;
      if !n >= 2 * target then begin
        (* Keep chronological odd indices — the snapshots sitting near
           multiples of the doubled stride. *)
        let kept = List.filteri (fun i _ -> i land 1 = 1) (List.rev !acc) in
        acc := List.rev kept;
        n := List.length kept;
        stride := !stride * 2
      end;
      next_at :=
        (match !acc with
        | s :: _ -> s.State.s_dyn + !stride
        | [] -> !stride)
    end
  in
  (* The hook only copies state, so this golden run is bit-identical to
     a plain run — campaigns reuse it as their reference. *)
  let golden = run ~on_block in
  let snaps = Array.of_list (List.rev !acc) in
  let bytes =
    Array.fold_left (fun a s -> a + State.snapshot_bytes s) 0 snaps
  in
  if M.enabled () then begin
    M.incr ~by:(Array.length snaps) "replay.snapshots";
    M.incr ~by:bytes "replay.snapshot_bytes"
  end;
  { golden; snaps; stride = !stride; bytes }

(* The counter arming the fault, as captured in a snapshot, and the
   event index the fault targets. A snapshot is a valid starting point
   iff counter <= target: the trigger fires when the counter goes from
   target to target+1, which then still lies in the suffix. *)
let counter_of fault (s : State.snapshot) =
  match fault with
  | Fault.Reg_flip _ | Fault.Burst_flip _ -> s.State.s_defs
  | Fault.Mem_flip _ -> s.State.s_mems
  | Fault.Branch_flip _ -> s.State.s_branches
  | Fault.Xcluster_flip _ -> s.State.s_xreads

let target_of = function
  | Fault.Reg_flip { target_slot; _ } | Fault.Burst_flip { target_slot; _ } ->
      target_slot
  | Fault.Mem_flip { target_access; _ } -> target_access
  | Fault.Branch_flip { target_branch } -> target_branch
  | Fault.Xcluster_flip { target_read; _ } -> target_read

let find_index t fault =
  let target = target_of fault in
  let n = Array.length t.snaps in
  if n = 0 || counter_of fault t.snaps.(0) > target then None
  else begin
    (* Greatest snapshot whose armed counter is still <= target; the
       counters are nondecreasing in chronological order. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if counter_of fault t.snaps.(mid) <= target then lo := mid
      else hi := mid - 1
    done;
    Some !lo
  end

let find t fault = Option.map (Array.get t.snaps) (find_index t fault)

let fired fault (st : State.t) =
  let counter =
    match fault with
    | Fault.Reg_flip _ | Fault.Burst_flip _ -> st.State.defs
    | Fault.Mem_flip _ -> st.State.mems
    | Fault.Branch_flip _ -> st.State.branches
    | Fault.Xcluster_flip _ -> st.State.xreads
  in
  counter > target_of fault

let suffix_fraction t (snap : State.snapshot) =
  let g = t.golden.Outcome.dyn_insns in
  if g <= 0 then 1.0
  else float_of_int (g - snap.State.s_dyn) /. float_of_int g
