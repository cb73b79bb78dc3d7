type t = {
  levels : Level.t array;  (* innermost first *)
  latencies : int array;  (* latency of a hit in [levels.(i)] *)
  mem_latency : int;
  perfect : bool;
  l1_latency : int;
}

type stats = {
  l1_hits : int;
  l1_misses : int;
  l2_hits : int;
  l2_misses : int;
  l3_hits : int;
  l3_misses : int;
  writebacks : int;
}

let create (c : Casted_machine.Config.cache_config) =
  let open Casted_machine.Config in
  {
    levels =
      [| Level.of_config c.l1; Level.of_config c.l2; Level.of_config c.l3 |];
    latencies = [| c.l1.latency; c.l2.latency; c.l3.latency |];
    mem_latency = c.mem_latency;
    perfect = false;
    l1_latency = c.l1.latency;
  }

let perfect (c : Casted_machine.Config.cache_config) =
  { (create c) with perfect = true }

let access t ~addr ~write =
  if t.perfect then t.l1_latency
  else begin
    (* Walk outwards until a level hits; every traversed level allocates
       the block (inclusive hierarchy). *)
    let levels = t.levels in
    let n = Array.length levels in
    let i = ref 0 and latency = ref t.mem_latency in
    while !i < n do
      if Level.access (Array.unsafe_get levels !i) ~addr ~write then begin
        latency := Array.unsafe_get t.latencies !i;
        i := n
      end
      else incr i
    done;
    !latency
  end

let stats t =
  let h i = Level.hits t.levels.(i) in
  let m i = Level.misses t.levels.(i) in
  let wb =
    Array.fold_left (fun acc l -> acc + Level.writebacks l) 0 t.levels
  in
  {
    l1_hits = h 0;
    l1_misses = m 0;
    l2_hits = h 1;
    l2_misses = m 1;
    l3_hits = h 2;
    l3_misses = m 2;
    writebacks = wb;
  }

let reset t = Array.iter Level.clear t.levels

type snapshot = { levels : Level.snapshot array; snap_perfect : bool }

let snapshot (t : t) =
  { levels = Array.map Level.snapshot t.levels;
    snap_perfect = t.perfect }

let restore (t : t) snap =
  if t.perfect <> snap.snap_perfect then
    invalid_arg "Hierarchy.restore: perfect-cache mode mismatch";
  if Array.length snap.levels <> Array.length t.levels then
    invalid_arg "Hierarchy.restore: level count mismatch";
  Array.iteri (fun i l -> Level.restore l snap.levels.(i)) t.levels

let snapshot_perfect snap = snap.snap_perfect

let snapshot_bytes snap =
  Array.fold_left (fun acc l -> acc + Level.snapshot_bytes l) 0 snap.levels

let pp_stats ppf s =
  Format.fprintf ppf
    "L1 %d/%d L2 %d/%d L3 %d/%d (hits/misses), %d writebacks" s.l1_hits
    s.l1_misses s.l2_hits s.l2_misses s.l3_hits s.l3_misses s.writebacks
