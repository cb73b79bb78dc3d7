module Opcode = Casted_ir.Opcode

(* Dirty pages are journalled so per-trial reset and state snapshots
   cost O(pages written), not O(arena size): a trial touches a few
   pages of stack and output, the arena is megabytes. *)
let page_shift = 12
let page_size = 1 lsl page_shift

type t = {
  bytes : Bytes.t;
  size : int;
  dirty : int array;  (* stack of dirtied page indices *)
  dirty_flag : Bytes.t;  (* per-page membership bit for the stack *)
  mutable n_dirty : int;
}

let n_pages size = (size + page_size - 1) lsr page_shift

let create ~size =
  if size <= 0 then invalid_arg "Memory.create: non-positive size";
  let np = n_pages size in
  {
    bytes = Bytes.make size '\000';
    size;
    dirty = Array.make np 0;
    dirty_flag = Bytes.make np '\000';
    n_dirty = 0;
  }

let size t = t.size

(* Every mutation of [t.bytes] journals the pages it touches; [a] and
   [len] are already bounds-checked by the caller. *)
let mark t a len =
  let p1 = (a + len - 1) lsr page_shift in
  let p = ref (a lsr page_shift) in
  while !p <= p1 do
    if Bytes.unsafe_get t.dirty_flag !p = '\000' then begin
      Bytes.unsafe_set t.dirty_flag !p '\001';
      t.dirty.(t.n_dirty) <- !p;
      t.n_dirty <- t.n_dirty + 1
    end;
    incr p
  done

let unsafe_bytes t = t.bytes

let note_write t addr len = mark t addr len

let load_image t segments =
  List.iter
    (fun (addr, s) ->
      if addr < 0 || addr + String.length s > t.size then
        invalid_arg "Memory.load_image: segment out of bounds";
      if String.length s > 0 then begin
        Bytes.blit_string s 0 t.bytes addr (String.length s);
        mark t addr (String.length s)
      end)
    segments

let pristine ~size segments =
  let t = create ~size in
  load_image t segments;
  t.bytes

let of_image image =
  let size = Bytes.length image in
  let np = n_pages size in
  {
    bytes = Bytes.copy image;
    size;
    dirty = Array.make np 0;
    dirty_flag = Bytes.make np '\000';
    n_dirty = 0;
  }

let clear_journal t =
  for k = 0 to t.n_dirty - 1 do
    Bytes.unsafe_set t.dirty_flag t.dirty.(k) '\000'
  done;
  t.n_dirty <- 0

let reset t image =
  if Bytes.length image <> t.size then
    invalid_arg "Memory.reset: image size mismatch";
  Bytes.blit image 0 t.bytes 0 t.size;
  clear_journal t

let page_len t p =
  let base = p lsl page_shift in
  min page_size (t.size - base)

(* O(dirty pages): blit only the journalled pages back from [base].
   Correct because the journal covers every byte written since the last
   [reset]/[undo_writes] against the same [base] — everywhere else the
   arena already equals it. *)
let undo_writes t base =
  if Bytes.length base <> t.size then
    invalid_arg "Memory.undo_writes: image size mismatch";
  for k = 0 to t.n_dirty - 1 do
    let p = t.dirty.(k) in
    Bytes.unsafe_set t.dirty_flag p '\000';
    let a = p lsl page_shift in
    Bytes.blit base a t.bytes a (page_len t p)
  done;
  t.n_dirty <- 0

(* Sparse snapshot of everything written since the last reset: the
   dirty pages, packed. Immutable after capture. *)
type delta = { d_size : int; pages : int array; data : Bytes.t }

let delta t =
  let pages = Array.sub t.dirty 0 t.n_dirty in
  let data = Bytes.create (t.n_dirty * page_size) in
  Array.iteri
    (fun k p ->
      Bytes.blit t.bytes (p lsl page_shift) data (k * page_size)
        (page_len t p))
    pages;
  { d_size = t.size; pages; data }

let apply_delta t d =
  if d.d_size <> t.size then
    invalid_arg "Memory.apply_delta: arena size mismatch";
  Array.iteri
    (fun k p ->
      let a = p lsl page_shift in
      let len = page_len t p in
      Bytes.blit d.data (k * page_size) t.bytes a len;
      mark t a len)
    d.pages

let delta_bytes d = Bytes.length d.data + (Array.length d.pages * 8) + 32

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* [len] bytes of [a] at [ao] equal those of [b] at [bo]; a word at a
   time, then the tail. *)
let same_bytes a ao b bo len =
  let words = len lsr 3 in
  let i = ref 0 in
  while
    !i < words
    && Int64.equal (get64u a (ao + (!i lsl 3))) (get64u b (bo + (!i lsl 3)))
  do
    incr i
  done;
  if !i < words then false
  else begin
    let j = ref (words lsl 3) in
    while
      !j < len && Bytes.unsafe_get a (ao + !j) = Bytes.unsafe_get b (bo + !j)
    do
      incr j
    done;
    !j = len
  end

(* A page outside the journal equals [base] on the arena's side, and a
   page outside the delta equals [base] on the other side, so only the
   union of the two page sets needs a look: delta pages against the
   delta's data, journal-only pages against [base]. The delta pass
   tags the journal pages it covers ('\002' in [dirty_flag]) so the
   journal pass can skip them without a lookup; the tags are cleared
   before returning. *)
let matches t ~base d =
  if d.d_size <> t.size || Bytes.length base <> t.size then
    invalid_arg "Memory.matches: arena size mismatch";
  let ok = ref true and k = ref 0 in
  while !ok && !k < Array.length d.pages do
    let p = d.pages.(!k) in
    if same_bytes t.bytes (p lsl page_shift) d.data (!k * page_size)
        (page_len t p)
    then begin
      if Bytes.unsafe_get t.dirty_flag p = '\001' then
        Bytes.unsafe_set t.dirty_flag p '\002';
      incr k
    end
    else ok := false
  done;
  let j = ref 0 in
  while !ok && !j < t.n_dirty do
    let p = t.dirty.(!j) in
    if Bytes.unsafe_get t.dirty_flag p = '\001' then begin
      let a = p lsl page_shift in
      ok := same_bytes t.bytes a base a (page_len t p)
    end;
    incr j
  done;
  for i = 0 to !k - 1 do
    let p = Array.unsafe_get d.pages i in
    if Bytes.unsafe_get t.dirty_flag p = '\002' then
      Bytes.unsafe_set t.dirty_flag p '\001'
  done;
  !ok

let check t ~addr ~bytes =
  if Int64.compare addr 0L < 0 || Int64.compare addr (Int64.of_int t.size) >= 0
  then raise (Trap.Trap (Trap.Out_of_bounds addr));
  let a = Int64.to_int addr in
  if a + bytes > t.size then raise (Trap.Trap (Trap.Out_of_bounds addr));
  if a mod bytes <> 0 then raise (Trap.Trap (Trap.Misaligned addr));
  a

let read t ~addr ~width ~signed =
  let bytes = Opcode.width_bytes width in
  let a = check t ~addr ~bytes in
  match (width, signed) with
  | Opcode.W1, false -> Int64.of_int (Bytes.get_uint8 t.bytes a)
  | Opcode.W1, true -> Int64.of_int (Bytes.get_int8 t.bytes a)
  | Opcode.W2, false -> Int64.of_int (Bytes.get_uint16_le t.bytes a)
  | Opcode.W2, true -> Int64.of_int (Bytes.get_int16_le t.bytes a)
  | Opcode.W4, false ->
      Int64.logand (Int64.of_int32 (Bytes.get_int32_le t.bytes a)) 0xFFFF_FFFFL
  | Opcode.W4, true -> Int64.of_int32 (Bytes.get_int32_le t.bytes a)
  | Opcode.W8, _ -> Bytes.get_int64_le t.bytes a

let write t ~addr ~width v =
  let bytes = Opcode.width_bytes width in
  let a = check t ~addr ~bytes in
  mark t a bytes;
  match width with
  | Opcode.W1 -> Bytes.set_uint8 t.bytes a (Int64.to_int v land 0xFF)
  | Opcode.W2 -> Bytes.set_uint16_le t.bytes a (Int64.to_int v land 0xFFFF)
  | Opcode.W4 -> Bytes.set_int32_le t.bytes a (Int64.to_int32 v)
  | Opcode.W8 -> Bytes.set_int64_le t.bytes a v

let read_float t ~addr =
  Int64.float_of_bits (read t ~addr ~width:Opcode.W8 ~signed:false)

let write_float t ~addr v =
  write t ~addr ~width:Opcode.W8 (Int64.bits_of_float v)

let flip_bit t ~addr ~bit =
  (* Fault injection: silently skip targets outside the arena (a line
     straddling the memory end has no backing bytes there). *)
  if Int64.compare addr 0L >= 0 && Int64.compare addr (Int64.of_int t.size) < 0
  then begin
    let a = Int64.to_int addr in
    mark t a 1;
    let b = Bytes.get_uint8 t.bytes a in
    Bytes.set_uint8 t.bytes a (b lxor (1 lsl (bit land 7)))
  end

let image t = Bytes.copy t.bytes

let extract t ~base ~len =
  if base < 0 || len < 0 || base + len > t.size then
    invalid_arg "Memory.extract: out of bounds";
  Bytes.sub_string t.bytes base len
