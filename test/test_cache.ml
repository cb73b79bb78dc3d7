open Helpers
module Level = Casted_cache.Level
module Hierarchy = Casted_cache.Hierarchy

let test_cold_miss_then_hit () =
  let c = Level.create ~size_bytes:1024 ~block_bytes:64 ~assoc:2 in
  Alcotest.(check bool) "cold access misses" false
    (Level.access c ~addr:0 ~write:false);
  Alcotest.(check bool) "same block hits" true
    (Level.access c ~addr:32 ~write:false);
  Alcotest.(check int) "hits" 1 (Level.hits c);
  Alcotest.(check int) "misses" 1 (Level.misses c)

let test_lru_eviction () =
  (* 2-way set: fill both ways, touch the first, insert a third; the
     second (least recently used) must be evicted. *)
  let c = Level.create ~size_bytes:128 ~block_bytes:64 ~assoc:2 in
  (* One set only: 128 / (64*2) = 1. *)
  Alcotest.(check int) "one set" 1 (Level.num_sets c);
  let a = 0 and b = 64 and d = 128 in
  ignore (Level.access c ~addr:a ~write:false);
  ignore (Level.access c ~addr:b ~write:false);
  ignore (Level.access c ~addr:a ~write:false);
  (* refresh a *)
  ignore (Level.access c ~addr:d ~write:false);
  (* evicts b *)
  Alcotest.(check bool) "a still present" true (Level.probe c ~addr:a);
  Alcotest.(check bool) "b evicted" false (Level.probe c ~addr:b);
  Alcotest.(check bool) "d present" true (Level.probe c ~addr:d)

let test_dirty_writeback () =
  let c = Level.create ~size_bytes:128 ~block_bytes:64 ~assoc:1 in
  ignore (Level.access c ~addr:0 ~write:true);
  (* dirty *)
  Alcotest.(check bool) "conflict misses" false
    (Level.access c ~addr:128 ~write:false);
  Alcotest.(check int) "evicting a dirty block counts a writeback" 1
    (Level.writebacks c);
  (* A clean eviction adds none. *)
  Alcotest.(check bool) "conflict misses (2)" false
    (Level.access c ~addr:256 ~write:false);
  Alcotest.(check int) "clean eviction counts no writeback" 1
    (Level.writebacks c)

let test_bad_geometry_rejected () =
  (match Level.create ~size_bytes:100 ~block_bytes:64 ~assoc:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-divisible size");
  match Level.create ~size_bytes:120 ~block_bytes:60 ~assoc:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-power-of-2 block"

(* A naive write-back, write-allocate LRU level: per set, a list of
   (tag, dirty) lines, most recent first. Returns whether the access
   hit; [wb] counts dirty evictions. [naive_model] also returns the
   table, so a test can clear, save and restore the whole state. *)
let naive_model ~sets ~assoc ~block =
  let table = Array.make sets [] in
  let hits = ref 0 and misses = ref 0 and wb = ref 0 in
  let access ~addr ~write =
    let b = addr / block in
    let set = b mod sets and tag = b / sets in
    let line = table.(set) in
    match List.assoc_opt tag line with
    | Some dirty ->
        incr hits;
        table.(set) <- (tag, dirty || write) :: List.remove_assoc tag line;
        true
    | None ->
        incr misses;
        let kept =
          if List.length line < assoc then line
          else begin
            let victim_dirty = snd (List.nth line (assoc - 1)) in
            if victim_dirty then incr wb;
            List.filteri (fun i _ -> i < assoc - 1) line
          end
        in
        table.(set) <- (tag, write) :: kept;
        false
  in
  (table, access, hits, misses, wb)

let naive_level ~sets ~assoc ~block =
  let _, access, hits, misses, wb = naive_model ~sets ~assoc ~block in
  (access, hits, misses, wb)

let prop_matches_reference =
  let gen =
    QCheck2.Gen.(list_size (int_bound 300) (pair (int_bound 3) (int_bound 7)))
  in
  qcheck ~count:100 "level matches a reference LRU model" gen
    (fun accesses ->
      let sets = 4 and assoc = 2 and block = 64 in
      let c =
        Level.create ~size_bytes:(sets * assoc * block) ~block_bytes:block
          ~assoc
      in
      let model, _, _, _ = naive_level ~sets ~assoc ~block in
      List.for_all
        (fun (set, tag) ->
          let addr = ((tag * sets) + set) * block in
          Level.access c ~addr ~write:false = model ~addr ~write:false)
        accesses)

(* The array-and-loop Level against the naive model: identical hit/miss
   sequences and hit, miss and writeback counts over seeded random
   read/write streams, on power-of-2 and odd set counts, direct-mapped
   and fully associative geometries. *)
let test_level_matches_naive_model () =
  List.iter
    (fun (sets, assoc, block) ->
      let c =
        Level.create ~size_bytes:(sets * assoc * block) ~block_bytes:block
          ~assoc
      in
      let access, hits, misses, wb = naive_level ~sets ~assoc ~block in
      let rng = Random.State.make [| sets; assoc; block |] in
      let span = 4 * sets * assoc * block in
      let geometry =
        Printf.sprintf "%d sets x %d ways x %d B" sets assoc block
      in
      for i = 1 to 5000 do
        let addr =
          if Random.State.int rng 50 = 0 then Random.State.bits rng
          else Random.State.int rng span
        in
        let write = Random.State.bool rng in
        let expected = access ~addr ~write in
        if Level.access c ~addr ~write <> expected then
          Alcotest.failf "%s: access %d (addr %d, write %b) should %s" geometry
            i addr write
            (if expected then "hit" else "miss")
      done;
      let ck what = Alcotest.(check int) (geometry ^ ": " ^ what) in
      ck "hits" !hits (Level.hits c);
      ck "misses" !misses (Level.misses c);
      ck "writebacks" !wb (Level.writebacks c))
    [
      (4, 2, 64); (64, 4, 64); (12, 2, 32); (5, 1, 64); (1, 8, 128); (3, 3, 16);
    ]

(* The last-block fast path against the naive model. Uniform random
   streams almost never repeat a block, so these streams are runs of
   accesses within one block and interleavings that alternate two or
   three blocks (each access moves the memo off the block the next one
   touches). A [clear] or a snapshot -> restore round trip lands at
   random points, and the access after one often repeats the block
   accessed before it, so a memo that outlived either would hit where
   the model misses. Every access, and the totals after each clear or
   restore and at the end, must agree. *)
let test_level_fast_path_matches_naive_model () =
  List.iter
    (fun (sets, assoc, block) ->
      let c =
        Level.create ~size_bytes:(sets * assoc * block) ~block_bytes:block
          ~assoc
      in
      let table, access, hits, misses, wb = naive_model ~sets ~assoc ~block in
      let rng = Random.State.make [| 0xfa57; sets; assoc; block |] in
      let blocks = 4 * sets * assoc in
      let geometry =
        Printf.sprintf "%d sets x %d ways x %d B" sets assoc block
      in
      let ck what = Alcotest.(check int) (geometry ^ ": " ^ what) in
      let totals when_ =
        ck ("hits " ^ when_) !hits (Level.hits c);
        ck ("misses " ^ when_) !misses (Level.misses c);
        ck ("writebacks " ^ when_) !wb (Level.writebacks c)
      in
      let n = ref 0 and last = ref 0 in
      let check addr =
        incr n;
        last := addr / block;
        let write = Random.State.bool rng in
        let expected = access ~addr ~write in
        if Level.access c ~addr ~write <> expected then
          Alcotest.failf "%s: access %d (addr %d, write %b) should %s" geometry
            !n addr write
            (if expected then "hit" else "miss")
      in
      let in_block b = (b * block) + Random.State.int rng block in
      let pick () =
        if Random.State.bool rng then !last else Random.State.int rng blocks
      in
      let saved = ref None in
      for _ = 1 to 800 do
        (match Random.State.int rng 10 with
        | 0 ->
            Level.clear c;
            Array.fill table 0 sets [];
            hits := 0;
            misses := 0;
            wb := 0;
            totals "after clear"
        | 1 ->
            saved :=
              Some (Level.snapshot c, (Array.copy table, !hits, !misses, !wb))
        | 2 -> (
            match !saved with
            | Some (snap, (t, h, m, w)) ->
                Level.restore c snap;
                Array.blit t 0 table 0 sets;
                hits := h;
                misses := m;
                wb := w;
                totals "after restore"
            | None -> ())
        | _ -> ());
        if Random.State.bool rng then begin
          let b = pick () in
          for _ = 0 to Random.State.int rng 8 do
            check (in_block b)
          done
        end
        else begin
          let bs = Array.init (2 + Random.State.int rng 2) (fun _ -> pick ()) in
          for k = 0 to 4 + Random.State.int rng 12 do
            check (in_block bs.(k mod Array.length bs))
          done
        end
      done;
      totals "at the end")
    [ (4, 2, 64); (64, 4, 64); (12, 2, 32); (1, 1, 64); (1, 8, 128); (3, 3, 16) ]

let test_hierarchy_latencies () =
  let h = Hierarchy.create Config.itanium2_cache in
  (* Cold: full miss -> memory latency. *)
  Alcotest.(check int) "cold miss" 150
    (Hierarchy.access h ~addr:0 ~write:false);
  (* Immediately after: L1 hit. *)
  Alcotest.(check int) "l1 hit" 1 (Hierarchy.access h ~addr:0 ~write:false);
  let s = Hierarchy.stats h in
  Alcotest.(check int) "l1 hits" 1 s.Hierarchy.l1_hits;
  Alcotest.(check int) "l1 misses" 1 s.Hierarchy.l1_misses;
  Alcotest.(check int) "l3 misses" 1 s.Hierarchy.l3_misses

let test_hierarchy_l2_hit () =
  let h = Hierarchy.create Config.itanium2_cache in
  (* Load enough distinct L1 sets to evict address 0 from L1 but not
     from L2 (L1 = 16K/64B/4-way = 64 sets). Touch 5 conflicting blocks
     in set 0: stride = 64 sets * 64 B = 4096. *)
  ignore (Hierarchy.access h ~addr:0 ~write:false);
  for i = 1 to 5 do
    ignore (Hierarchy.access h ~addr:(i * 4096) ~write:false)
  done;
  let lat = Hierarchy.access h ~addr:0 ~write:false in
  Alcotest.(check int) "served by L2" 5 lat

let test_perfect_hierarchy () =
  let h = Hierarchy.perfect Config.itanium2_cache in
  Alcotest.(check int) "always l1" 1 (Hierarchy.access h ~addr:0 ~write:false);
  Alcotest.(check int) "always l1 (2)" 1
    (Hierarchy.access h ~addr:999936 ~write:false)

let suite =
  ( "cache",
    [
      case "cold miss then hit" test_cold_miss_then_hit;
      case "LRU eviction order" test_lru_eviction;
      case "dirty writeback" test_dirty_writeback;
      case "bad geometry rejected" test_bad_geometry_rejected;
      prop_matches_reference;
      case "level matches a naive LRU model with writebacks"
        test_level_matches_naive_model;
      case "hierarchy latencies (Table I)" test_hierarchy_latencies;
      case "L2 hit after L1 eviction" test_hierarchy_l2_hit;
      case "perfect cache ablation" test_perfect_hierarchy;
      case "level fast path matches the naive model across clear and restore"
        test_level_fast_path_matches_naive_model;
    ] )
