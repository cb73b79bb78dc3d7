(* Way state lives in flat arrays indexed [set * assoc + way], so an
   access is two loops over one contiguous stretch and allocates
   nothing. tag = -1 encodes an invalid way. *)
type t = {
  tags : int array;
  stamps : int array;  (* LRU clock of the last touch; 0 = never *)
  dirty : Bytes.t;  (* '\001' = dirty *)
  assoc : int;
  block_bytes : int;
  block_shift : int;
  n_sets : int;
  set_shift : int;  (* log2 n_sets, or -1 when n_sets is not a power of 2 *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
  (* Journal of sets mutated since the last [clear]: large levels see a
     handful of distinct sets per short run, so clearing, snapshotting
     and restoring walk the journal instead of the whole array —
     O(touched), not O(capacity). Every way mutation goes through
     [touch]. *)
  touched : int array;  (* stack of touched set indices *)
  touched_flag : Bytes.t;  (* per-set membership bit for the stack *)
  mutable n_touched : int;
  (* The block of the last access and the way that holds it: an access
     always leaves its block resident, and only another access (which
     overwrites the memo) or [clear] can evict it, so a repeat of the
     same block is a hit on [last_way]. Its set is already journalled.
     -1 = no memo (blocks are never negative). *)
  mutable last_block : int;
  mutable last_way : int;
}

let log2_exact n =
  let rec go k = if 1 lsl k = n then k else if 1 lsl k > n then -1 else go (k + 1) in
  go 0

let create ~size_bytes ~block_bytes ~assoc =
  if size_bytes <= 0 || block_bytes <= 0 || assoc <= 0 then
    invalid_arg "Level.create: non-positive parameter";
  if size_bytes mod (block_bytes * assoc) <> 0 then
    invalid_arg "Level.create: size not divisible by block * assoc";
  let block_shift = log2_exact block_bytes in
  if block_shift < 0 then invalid_arg "Level.create: block size not a power of 2";
  let n_sets = size_bytes / (block_bytes * assoc) in
  let n_ways = n_sets * assoc in
  {
    tags = Array.make n_ways (-1);
    stamps = Array.make n_ways 0;
    dirty = Bytes.make n_ways '\000';
    assoc;
    block_bytes;
    block_shift;
    n_sets;
    set_shift = log2_exact n_sets;
    clock = 0;
    hits = 0;
    misses = 0;
    writebacks = 0;
    touched = Array.make n_sets 0;
    touched_flag = Bytes.make n_sets '\000';
    n_touched = 0;
    last_block = -1;
    last_way = 0;
  }

let of_config (c : Casted_machine.Config.cache_level) =
  create ~size_bytes:c.Casted_machine.Config.size_bytes
    ~block_bytes:c.Casted_machine.Config.block_bytes
    ~assoc:c.Casted_machine.Config.assoc

let set_of t block =
  if t.set_shift >= 0 then block land (t.n_sets - 1) else block mod t.n_sets

let tag_of t block =
  if t.set_shift >= 0 then block lsr t.set_shift else block / t.n_sets

(* Index of the way holding [tag] in the set starting at [base], or -1. *)
let find t base tag =
  let w = ref (-1) and i = ref base in
  let lim = base + t.assoc in
  while !w < 0 && !i < lim do
    if Array.unsafe_get t.tags !i = tag then w := !i;
    incr i
  done;
  !w

let touch t set_idx =
  if Bytes.unsafe_get t.touched_flag set_idx = '\000' then begin
    Bytes.unsafe_set t.touched_flag set_idx '\001';
    t.touched.(t.n_touched) <- set_idx;
    t.n_touched <- t.n_touched + 1
  end

let access t ~addr ~write =
  if addr < 0 then invalid_arg "Level.access: negative address";
  t.clock <- t.clock + 1;
  let block = addr lsr t.block_shift in
  if block = t.last_block then begin
    let w = t.last_way in
    Array.unsafe_set t.stamps w t.clock;
    if write then Bytes.unsafe_set t.dirty w '\001';
    t.hits <- t.hits + 1;
    true
  end
  else begin
    let set_idx = set_of t block in
    let tag = tag_of t block in
    touch t set_idx;
    let base = set_idx * t.assoc in
    let w = find t base tag in
    t.last_block <- block;
    if w >= 0 then begin
      t.last_way <- w;
      Array.unsafe_set t.stamps w t.clock;
      if write then Bytes.unsafe_set t.dirty w '\001';
      t.hits <- t.hits + 1;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      (* Evict the first least-recently-used way (invalid ways have
         stamp 0, the oldest). *)
      let victim = ref base in
      for i = base + 1 to base + t.assoc - 1 do
        if Array.unsafe_get t.stamps i < Array.unsafe_get t.stamps !victim
        then victim := i
      done;
      let v = !victim in
      if Array.unsafe_get t.tags v >= 0 && Bytes.unsafe_get t.dirty v <> '\000'
      then t.writebacks <- t.writebacks + 1;
      Array.unsafe_set t.tags v tag;
      Bytes.unsafe_set t.dirty v (if write then '\001' else '\000');
      Array.unsafe_set t.stamps v t.clock;
      t.last_way <- v;
      false
    end
  end

let probe t ~addr =
  let block = addr lsr t.block_shift in
  find t (set_of t block * t.assoc) (tag_of t block) >= 0

let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.writebacks <- 0

(* O(touched): only sets in the journal can differ from the pristine
   all-invalid state, because every way mutation records its set. *)
let clear t =
  for k = 0 to t.n_touched - 1 do
    let s = t.touched.(k) in
    Bytes.unsafe_set t.touched_flag s '\000';
    let base = s * t.assoc in
    Array.fill t.tags base t.assoc (-1);
    Array.fill t.stamps base t.assoc 0;
    Bytes.fill t.dirty base t.assoc '\000'
  done;
  t.n_touched <- 0;
  t.last_block <- -1;
  t.clock <- 0;
  reset_stats t

let num_sets t = t.n_sets
let block_bytes t = t.block_bytes

(* Sparse snapshot: only the touched sets (everything else is in the
   pristine all-invalid state a [clear] re-establishes). [set_idx.(k)]
   names the k-th captured set; its ways live at [k * assoc ..] in the
   flat arrays. Never mutated after capture — safe to share read-only
   across domains. *)
type snapshot = {
  snap_sets : int;  (* geometry guard: n_sets *)
  snap_assoc : int;
  set_idx : int array;
  snap_tags : int array;  (* length = |set_idx| * assoc *)
  snap_stamps : int array;
  snap_dirty : Bytes.t;
  snap_clock : int;
  s_hits : int;
  s_misses : int;
  s_writebacks : int;
}

let snapshot t =
  let assoc = t.assoc in
  let n = t.n_touched * assoc in
  let set_idx = Array.sub t.touched 0 t.n_touched in
  let tags = Array.make (max n 1) (-1) in
  let stamps = Array.make (max n 1) 0 in
  let dirty = Bytes.make (max n 1) '\000' in
  Array.iteri
    (fun k s ->
      Array.blit t.tags (s * assoc) tags (k * assoc) assoc;
      Array.blit t.stamps (s * assoc) stamps (k * assoc) assoc;
      Bytes.blit t.dirty (s * assoc) dirty (k * assoc) assoc)
    set_idx;
  {
    snap_sets = t.n_sets;
    snap_assoc = assoc;
    set_idx;
    snap_tags = tags;
    snap_stamps = stamps;
    snap_dirty = dirty;
    snap_clock = t.clock;
    s_hits = t.hits;
    s_misses = t.misses;
    s_writebacks = t.writebacks;
  }

(* O(touched of t + touched of snap): clear the level back to pristine,
   then write the snapshot's sets (re-journalling them, so a later
   [clear] undoes the restore too). *)
let restore t snap =
  let assoc = t.assoc in
  if snap.snap_sets <> t.n_sets || snap.snap_assoc <> assoc then
    invalid_arg "Level.restore: geometry mismatch";
  clear t;
  Array.iteri
    (fun k s ->
      touch t s;
      Array.blit snap.snap_tags (k * assoc) t.tags (s * assoc) assoc;
      Array.blit snap.snap_stamps (k * assoc) t.stamps (s * assoc) assoc;
      Bytes.blit snap.snap_dirty (k * assoc) t.dirty (s * assoc) assoc)
    snap.set_idx;
  t.clock <- snap.snap_clock;
  t.hits <- snap.s_hits;
  t.misses <- snap.s_misses;
  t.writebacks <- snap.s_writebacks

(* Rough heap footprint of one snapshot, for observability. *)
let snapshot_bytes snap =
  let words =
    (2 * Array.length snap.snap_tags) + Array.length snap.set_idx + 8
  in
  (words * Sys.word_size / 8) + Bytes.length snap.snap_dirty
