(* The persistent result store: content addressing, atomic writes,
   corruption refusal, incremental campaigns, entries of older versions
   and the work queue. *)

open Helpers
module Store = Casted_store.Store
module Work = Casted_store.Work
module Engine = Casted_engine.Engine
module Cache = Casted_engine.Cache
module Montecarlo = Casted_sim.Montecarlo
module Fault = Casted_sim.Fault
module Workload = Casted_workloads.Workload

let spec =
  Cache.key ~workload:"cjpeg" ~size:Workload.Fault ~scheme:Scheme.Casted
    ~issue_width:2 ~delay:2 ()

let same_result msg (a : Montecarlo.result) (b : Montecarlo.result) =
  Alcotest.(check (array int))
    (msg ^ ": counts") (Montecarlo.counts a) (Montecarlo.counts b);
  Alcotest.(check int) (msg ^ ": trials") a.Montecarlo.trials
    b.Montecarlo.trials;
  Alcotest.(check int)
    (msg ^ ": golden_cycles") a.Montecarlo.golden_cycles
    b.Montecarlo.golden_cycles;
  Alcotest.(check int)
    (msg ^ ": golden_dyn") a.Montecarlo.golden_dyn b.Montecarlo.golden_dyn;
  Alcotest.(check int)
    (msg ^ ": population") a.Montecarlo.population b.Montecarlo.population

(* Golden pins for the on-disk address shapes (the content-addressing
   contract: changing these orphans every store on disk). *)
let test_address_golden () =
  let full =
    Store.key ~retry_budget:(-1)
      ~identity:"cjpeg/fault/CASTED/i2/d2/reg-bit" ~seed:7 ~fuel_factor:10
      ~trials:256 ()
  in
  Alcotest.(check string)
    "full entry address" "cjpeg/fault/CASTED/i2/d2/reg-bit|seed=7|fuel=10|retry=-1"
    (Store.address full);
  Alcotest.(check string)
    "early-stop cell address"
    "cjpeg/fault/CASTED/i2/d2/reg-bit|seed=7|fuel=10|retry=-1|trials=256|ci=0.1"
    (Store.address (Store.early_stop ~ci_halfwidth:0.1 full));
  Alcotest.(check string)
    "early-stop cell address, integral target"
    "cjpeg/fault/CASTED/i2/d2/reg-bit|seed=7|fuel=10|retry=-1|trials=256|ci=2"
    (Store.address (Store.early_stop ~ci_halfwidth:2.0 full));
  Alcotest.(check string)
    "work unit address"
    "cjpeg/fault/CASTED/i2/d2/reg-bit|seed=7|trials=256|fuel=10|retry=-1"
    (Work.address
       {
         Work.workload = "cjpeg";
         size = "fault";
         scheme = "CASTED";
         issue = 2;
         delay = 2;
         model = "reg-bit";
         seed = 7;
         trials = 256;
         fuel_factor = 10;
         retry_budget = -1;
       })

let sample_entry ?(identity = "cjpeg/fault/CASTED/i2/d2/reg-bit")
    ?(trials = 100) ?(counts = [| 10; 85; 3; 1; 1; 0 |]) () =
  let key =
    Store.key ~retry_budget:(-1) ~identity ~seed:7 ~fuel_factor:10 ~trials ()
  in
  {
    Store.key;
    trials_done = Array.fold_left ( + ) 0 counts;
    counts;
    golden_cycles = 4242;
    golden_dyn = 1234;
    population = 9999;
    model = "reg-bit";
    spec =
      Some
        {
          Store.workload = "cjpeg";
          size = "fault";
          scheme = "CASTED";
          issue = 2;
          delay = 2;
          model = "reg-bit";
        };
  }

let test_roundtrip () =
  with_store (fun s ->
      let e = sample_entry () in
      (match Store.find s e.Store.key with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "found an entry in a fresh store"
      | Error msg -> Alcotest.fail msg);
      Store.put s e;
      (match Store.find s e.Store.key with
      | Ok (Some got) ->
          Alcotest.(check string)
            "address" (Store.address e.Store.key)
            (Store.address got.Store.key);
          Alcotest.(check (array int)) "counts" e.Store.counts got.Store.counts;
          Alcotest.(check int) "trials_done" e.Store.trials_done
            got.Store.trials_done;
          Alcotest.(check int) "golden_cycles" e.Store.golden_cycles
            got.Store.golden_cycles;
          Alcotest.(check bool) "spec survived" true (got.Store.spec <> None)
      | Ok None -> Alcotest.fail "entry vanished"
      | Error msg -> Alcotest.fail msg);
      let st = Store.stats s in
      Alcotest.(check int) "one miss" 1 st.Store.misses;
      Alcotest.(check int) "one hit" 1 st.Store.hits;
      Alcotest.(check int) "one write" 1 st.Store.writes;
      Alcotest.(check bool) "bytes flowed" true
        (st.Store.bytes_written > 0 && st.Store.bytes_read > 0))

let test_reopen_persists () =
  with_store_dir (fun dir ->
      let e = sample_entry () in
      Store.put (Store.open_exn ~create:true dir) e;
      match Store.find (Store.open_exn ~create:false dir) e.Store.key with
      | Ok (Some got) ->
          Alcotest.(check (array int)) "counts survive reopen" e.Store.counts
            got.Store.counts
      | Ok None -> Alcotest.fail "entry lost across reopen"
      | Error msg -> Alcotest.fail msg)

(* gc sweeps only orphan tmp files past the age threshold: a SIGKILLed
   writer's aged debris goes, a writer's fresh tmp file and the real
   entries stay. *)
let test_gc_tmp_sweeps_only_aged () =
  with_store_dir (fun dir ->
      let s = Store.open_exn ~create:true dir in
      let e = sample_entry () in
      Store.put s e;
      let tmp pid =
        let path =
          Filename.concat (Filename.concat dir "entries")
            (Printf.sprintf "0123abcd.entry.tmp.%d" pid)
        in
        Out_channel.with_open_bin path (fun oc ->
            output_string oc "half-written");
        path
      in
      let aged = tmp 4242 and fresh = tmp 4243 in
      let two_minutes_ago = Unix.gettimeofday () -. 120.0 in
      Unix.utimes aged two_minutes_ago two_minutes_ago;
      Alcotest.(check int) "one tmp file removed" 1 (Store.gc_tmp s);
      Alcotest.(check bool) "aged tmp file gone" false (Sys.file_exists aged);
      Alcotest.(check bool) "fresh tmp file kept" true (Sys.file_exists fresh);
      match Store.list s with
      | Ok [ Ok got ] ->
          Alcotest.(check (array int)) "entry still reads" e.Store.counts
            got.Store.counts
      | Ok _ -> Alcotest.fail "expected exactly the one entry"
      | Error msg -> Alcotest.fail msg)

let expect_error msg = function
  | Error _ -> ()
  | Ok _ -> Alcotest.fail msg

let test_corruption_refused () =
  with_store_dir (fun dir ->
      let s = Store.open_exn ~create:true dir in
      let e = sample_entry () in
      Store.put s e;
      let entries = Filename.concat dir "entries" in
      let path =
        Filename.concat entries (Store.hash e.Store.key ^ ".entry")
      in
      (* Tamper with a tally digit: the counts/trials consistency check
         must refuse the entry. *)
      let content =
        let ic = open_in_bin path in
        let c = really_input_string ic (in_channel_length ic) in
        close_in ic;
        c
      in
      let tampered =
        let sub = "trials_done=100" and by = "trials_done=199" in
        match String.index_opt content 't' with
        | None -> Alcotest.fail "entry has no tally field"
        | Some _ ->
            let rec find i =
              if i + String.length sub > String.length content then
                Alcotest.fail "entry has no trials_done=100 field"
              else if String.sub content i (String.length sub) = sub then
                String.sub content 0 i
                ^ by
                ^ String.sub content
                    (i + String.length sub)
                    (String.length content - i - String.length sub)
              else find (i + 1)
            in
            find 0
      in
      let oc = open_out_bin path in
      output_string oc tampered;
      close_out oc;
      expect_error "tampered tally accepted" (Store.find s e.Store.key);
      (* A mis-addressed (renamed) entry must be refused too: the
         filename no longer matches the content's own address. *)
      let oc = open_out_bin path in
      output_string oc content;
      close_out oc;
      let misplaced = Filename.concat entries (String.make 32 'a' ^ ".entry")
      in
      Sys.rename path misplaced;
      (match Store.list s with
      | Ok [ Error _ ] -> ()
      | Ok _ -> Alcotest.fail "misplaced entry accepted"
      | Error msg -> Alcotest.fail msg);
      Sys.remove misplaced;
      (* An unknown version sentinel refuses the whole store. *)
      let oc = open_out (Filename.concat dir "MANIFEST") in
      output_string oc "casted-store v999\n";
      close_out oc;
      expect_error "unknown store version opened"
        (Store.open_dir ~create:false dir))

let test_open_refuses_non_store () =
  with_store_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let oc = open_out (Filename.concat dir "README") in
      output_string oc "not a store\n";
      close_out oc;
      expect_error "non-store directory adopted"
        (Store.open_dir ~create:true dir))

(* The tentpole regression: a campaign run twice against the same store
   simulates zero trials the second time and returns the bit-identical
   tally — at jobs=1 and jobs=4. *)
let test_campaign_twice_zero_resim () =
  List.iter
    (fun jobs ->
      with_store (fun s ->
          let trials = 96 and seed = 11 in
          let cold, warm =
            Engine.with_engine ~jobs (fun e ->
                let cold =
                  Engine.campaign_stored e ~seed ~store:s ~trials spec
                in
                let warm =
                  Engine.campaign_stored e ~seed ~store:s ~trials spec
                in
                (cold, warm))
          in
          Alcotest.(check int) "cold run simulated everything" trials
            cold.Engine.simulated;
          Alcotest.(check int) "warm run simulated nothing" 0
            warm.Engine.simulated;
          Alcotest.(check int) "warm run served everything" trials
            warm.Engine.served;
          Alcotest.(check (pair int int)) "both tally every trial"
            (trials, trials)
            (cold.Engine.result.Montecarlo.trials,
             warm.Engine.result.Montecarlo.trials);
          same_result
            (Printf.sprintf "jobs=%d warm vs cold" jobs)
            warm.Engine.result cold.Engine.result;
          (* A separate process (fresh engine, fresh caches) over the
             same directory is served too. *)
          let other =
            Engine.with_engine ~jobs:1 (fun e ->
                Engine.campaign_stored e ~seed ~store:s ~trials spec)
          in
          Alcotest.(check int) "fresh engine simulated nothing" 0
            other.Engine.simulated;
          same_result "fresh engine tally" other.Engine.result
            cold.Engine.result))
    [ 1; 4 ]

(* Incremental fill: extending a banked 64-trial cell to 128 simulates
   only the delta and matches a cold 128-trial run bit for bit. *)
let test_incremental_extend () =
  with_store (fun s ->
      let seed = 5 in
      Engine.with_engine ~jobs:2 (fun e ->
          let first = Engine.campaign_stored e ~seed ~store:s ~trials:64 spec in
          Alcotest.(check int) "first fill" 64 first.Engine.simulated;
          let second =
            Engine.campaign_stored e ~seed ~store:s ~trials:128 spec
          in
          Alcotest.(check int) "extension simulated the delta" 64
            second.Engine.simulated;
          Alcotest.(check int) "extension served the prefix" 64
            second.Engine.served;
          let cold = Engine.campaign e ~seed ~trials:128 spec in
          same_result "extended vs cold" second.Engine.result cold;
          (* The cell is now banked at 128: asking for the original 64
             again must not clobber the richer entry. *)
          let smaller =
            Engine.campaign_stored e ~seed ~store:s ~trials:64 spec
          in
          Alcotest.(check int) "oversized entry bypassed" 64
            smaller.Engine.simulated;
          let again =
            Engine.campaign_stored e ~seed ~store:s ~trials:128 spec
          in
          Alcotest.(check int) "128-trial entry still banked" 0
            again.Engine.simulated))

(* Early-stop cells: a store campaign with a stop target stops exactly
   where the storeless campaign does, re-serves with zero simulation,
   and resumes a banked prefix to the same stopping point. *)
let test_early_stop_cells () =
  let seed = 4 and trials = 2000 and ci_halfwidth = 8.0 in
  let reference =
    Engine.with_engine ~jobs:1 (fun e ->
        Engine.campaign e ~seed ~ci_halfwidth ~trials spec)
  in
  Alcotest.(check bool) "reference stops early, after the first chunk" true
    (reference.Montecarlo.trials < trials
    && reference.Montecarlo.trials > Montecarlo.chunk_trials);
  List.iter
    (fun jobs ->
      with_store (fun s ->
          Engine.with_engine ~jobs (fun e ->
              let run () =
                Engine.campaign_stored e ~seed ~ci_halfwidth ~store:s ~trials
                  spec
              in
              let cold = run () in
              let label = Printf.sprintf "jobs=%d" jobs in
              same_result (label ^ " cold vs storeless") cold.Engine.result
                reference;
              Alcotest.(check int) (label ^ " cold simulated the stop point")
                reference.Montecarlo.trials cold.Engine.simulated;
              let warm = run () in
              Alcotest.(check int) (label ^ " warm simulated nothing") 0
                warm.Engine.simulated;
              Alcotest.(check int) (label ^ " warm is a full hit") 1
                (Engine.store_counters e).Engine.full_hits;
              Alcotest.(check int) (label ^ " warm served the stop point")
                reference.Montecarlo.trials warm.Engine.served;
              same_result (label ^ " warm vs storeless") warm.Engine.result
                reference)))
    [ 1; 4 ];
  (* A campaign killed after its first chunk left that chunk banked. *)
  with_store (fun s ->
      Engine.with_engine ~jobs:2 (fun e ->
          let prefix = Engine.campaign e ~seed ~trials:64 spec in
          let key =
            Store.early_stop ~ci_halfwidth
              (Store.key ~identity:(Engine.campaign_identity spec Fault.Reg_bit)
                 ~seed ~fuel_factor:10 ~trials ())
          in
          Store.put s
            {
              Store.key;
              trials_done = 64;
              counts = Montecarlo.counts prefix;
              golden_cycles = prefix.Montecarlo.golden_cycles;
              golden_dyn = prefix.Montecarlo.golden_dyn;
              population = prefix.Montecarlo.population;
              model = "reg-bit";
              spec = None;
            };
          let resumed =
            Engine.campaign_stored e ~seed ~ci_halfwidth ~store:s ~trials spec
          in
          Alcotest.(check int) "resume served the banked chunk" 64
            resumed.Engine.served;
          Alcotest.(check int) "resume simulated the rest"
            (reference.Montecarlo.trials - 64)
            resumed.Engine.simulated;
          same_result "resumed vs storeless" resumed.Engine.result reference));
  let plain trials = Store.key ~identity:"c" ~seed ~fuel_factor:10 ~trials () in
  let address ~trials ~ci_halfwidth =
    Store.address (Store.early_stop ~ci_halfwidth (plain trials))
  in
  let base = address ~trials ~ci_halfwidth in
  Alcotest.(check bool) "trials are part of the address" true
    (base <> address ~trials:(trials + 64) ~ci_halfwidth);
  Alcotest.(check bool) "the target is part of the address" true
    (base <> address ~trials ~ci_halfwidth:4.0);
  Alcotest.(check bool) "the plain cell has its own address" true
    (base <> Store.address (plain trials));
  match Store.early_stop ~ci_halfwidth:Float.nan (plain trials) with
  | (_ : Store.key) -> Alcotest.fail "non-finite target: no exception"
  | exception Invalid_argument _ -> ()

let test_work_queue_and_claims () =
  with_store (fun s ->
      let u =
        {
          Work.workload = "cjpeg";
          size = "fault";
          scheme = "CASTED";
          issue = 2;
          delay = 2;
          model = "reg-bit";
          seed = 7;
          trials = 64;
          fuel_factor = 10;
          retry_budget = -1;
        }
      in
      Alcotest.(check bool) "first enqueue" true (Work.enqueue s u);
      Alcotest.(check bool) "idempotent enqueue" false (Work.enqueue s u);
      (match Work.units s with
      | Ok [ Ok got ] ->
          Alcotest.(check string) "unit round-trips" (Work.address u)
            (Work.address got)
      | Ok l -> Alcotest.failf "expected one unit, got %d" (List.length l)
      | Error msg -> Alcotest.fail msg);
      (match Work.claim s u with
      | Work.Claimed -> ()
      | Work.Busy o -> Alcotest.failf "fresh unit busy (%s)" o);
      (* A live claim (our own pid) is not stealable. *)
      (match Work.claim s u with
      | Work.Busy _ -> ()
      | Work.Claimed -> Alcotest.fail "double-claimed a held lock");
      Work.release s u;
      (match Work.claim s u with
      | Work.Claimed -> ()
      | Work.Busy o -> Alcotest.failf "released unit busy (%s)" o);
      Work.release s u)

(* A queued unit with no fuel would bank a tally of timeouts: reading
   the queue reports it as a broken unit, naming the field. *)
let test_work_unit_without_fuel_broken () =
  with_store (fun s ->
      let u =
        {
          Work.workload = "cjpeg";
          size = "fault";
          scheme = "CASTED";
          issue = 2;
          delay = 2;
          model = "reg-bit";
          seed = 7;
          trials = 64;
          fuel_factor = 0;
          retry_budget = -1;
        }
      in
      ignore (Work.enqueue s u : bool);
      match Work.units s with
      | Ok [ Error msg ] ->
          Alcotest.(check bool) "message names fuel_factor" true
            (contains msg "fuel_factor must be at least 1")
      | Ok [ Ok _ ] -> Alcotest.fail "a unit without fuel was accepted"
      | Ok l -> Alcotest.failf "expected one unit, got %d" (List.length l)
      | Error msg -> Alcotest.fail msg)

let test_work_stale_lock_broken () =
  with_store_dir (fun dir ->
      let s = Store.open_exn ~create:true dir in
      let u =
        {
          Work.workload = "cjpeg";
          size = "fault";
          scheme = "CASTED";
          issue = 2;
          delay = 2;
          model = "reg-bit";
          seed = 7;
          trials = 64;
          fuel_factor = 10;
          retry_budget = -1;
        }
      in
      ignore (Work.enqueue s u);
      (* Forge a lock owned by a dead pid on this host — what a
         SIGKILLed worker leaves behind. *)
      let lock =
        Filename.concat
          (Filename.concat dir "locks")
          (Work.hash u ^ ".lock")
      in
      let dead_pid =
        (* A pid that is almost surely unused; if it happens to be live,
           walk forward. *)
        let rec hunt p =
          match Unix.kill p 0 with
          | () -> hunt (p + 1)
          | exception Unix.Unix_error (Unix.ESRCH, _, _) -> p
          | exception Unix.Unix_error _ -> p
        in
        hunt 3999983
      in
      let oc = open_out lock in
      Printf.fprintf oc "%d@%s\n" dead_pid (Unix.gethostname ());
      close_out oc;
      (match Work.claim s u with
      | Work.Claimed -> ()
      | Work.Busy o -> Alcotest.failf "stale lock not broken (owner %s)" o);
      Work.release s u;
      (* gc_locks sweeps a forged stale lock the same way. *)
      let oc = open_out lock in
      Printf.fprintf oc "%d@%s\n" dead_pid (Unix.gethostname ());
      close_out oc;
      Alcotest.(check int) "gc removed the stale lock" 1 (Work.gc_locks s);
      Alcotest.(check int) "nothing left to gc" 0 (Work.gc_locks s))

(* Entries as the last sharding-aware version wrote them: every entry
   carries a [shard=] line. A full (0/1) entry and an early-stop entry
   keep their addresses and are served unchanged; one shard's share of
   a cell is refused as a located error. The texts are real entries for
   cjpeg / CASTED issue 2 delay 2 at the default seed. *)
let legacy_entry ~shard ~trials ?ci ~trials_done ~counts () =
  String.concat "\n"
    ([
       "casted-store-entry v1";
       "identity=cjpeg/fault/CASTED/i2/d2/reg-bit";
       "seed=13260781";
       "fuel_factor=10";
       "retry_budget=-1";
       "shard=" ^ shard;
       "trials=" ^ trials;
     ]
    @ Option.to_list (Option.map (fun w -> "ci=" ^ w) ci)
    @ [
        "trials_done=" ^ trials_done;
        "counts=" ^ counts;
        "golden_cycles=4654";
        "golden_dyn=13418";
        "population=11634";
        "model=reg-bit";
        "workload=cjpeg";
        "size=fault";
        "scheme=CASTED";
        "issue=2";
        "delay=2";
        "";
      ])

let legacy_full =
  legacy_entry ~shard:"0/1" ~trials:"100" ~trials_done:"100"
    ~counts:"8,91,1,0,0,0" ()

let legacy_early_stop =
  legacy_entry ~shard:"0/1" ~trials:"2000" ~ci:"8" ~trials_done:"64"
    ~counts:"5,59,0,0,0,0" ()

let legacy_shard =
  legacy_entry ~shard:"1/2" ~trials:"200" ~trials_done:"72"
    ~counts:"8,61,3,0,0,0" ()

let test_legacy_entries () =
  with_store_dir (fun dir ->
      let s = Store.open_exn ~create:true dir in
      let plant name text =
        let path = Filename.concat (Filename.concat dir "entries") name in
        let oc = open_out_bin path in
        output_string oc text;
        close_out oc;
        path
      in
      plant "1cd7d968e7e8b1a7437efd3559e626dc.entry" legacy_full |> ignore;
      plant "f55661538531176e320d9e5b4ae2949c.entry" legacy_early_stop
      |> ignore;
      Engine.with_engine ~jobs:1 (fun e ->
          let full = Engine.campaign_stored e ~store:s ~trials:100 spec in
          Alcotest.(check (array int)) "full entry served unchanged"
            [| 8; 91; 1; 0; 0; 0 |]
            (Montecarlo.counts full.Engine.result);
          Alcotest.(check int) "full entry simulated nothing" 0
            full.Engine.simulated;
          same_result "full entry vs a fresh campaign" full.Engine.result
            (Engine.campaign e ~trials:100 spec);
          let early =
            Engine.campaign_stored e ~store:s ~ci_halfwidth:8.0 ~trials:2000
              spec
          in
          Alcotest.(check (array int)) "early-stop entry served unchanged"
            [| 5; 59; 0; 0; 0; 0 |]
            (Montecarlo.counts early.Engine.result);
          Alcotest.(check int) "early-stop entry simulated nothing" 0
            early.Engine.simulated);
      let refused what ~path = function
        | Error msg ->
            Alcotest.(check bool)
              (what ^ " names the file and says why: " ^ msg) true
              (contains msg path
              && contains msg "no longer supported"
              && contains msg "can be deleted")
        | Ok _ -> Alcotest.fail (what ^ ": shard entry accepted")
      in
      let path = plant "bbcec7c3ea7cebef0fc30d268bdd0f78.entry" legacy_shard in
      (match Store.list s with
      | Ok [ Ok _; e; Ok _ ] -> refused "list" ~path e
      | Ok l -> Alcotest.failf "list: %d entries" (List.length l)
      | Error msg -> Alcotest.fail msg);
      (* The same text under a lookup's address is refused for what it
         is, before the address check calls it misplaced. *)
      let key = (sample_entry ()).Store.key in
      let path = plant (Store.hash key ^ ".entry") legacy_shard in
      refused "find" ~path (Store.find s key))

(* A missing store is an [Error] that says how one gets made — by the
   subcommands that take --store — and is not created by the attempt. *)
let test_missing_store_hint () =
  with_store_dir (fun dir ->
      match Store.open_dir dir with
      | Ok _ -> Alcotest.fail "missing store opened"
      | Error msg ->
          Alcotest.(check string)
            "message"
            (dir
           ^ ": no such store (a --store DIR campaign, repro or work creates \
              one)")
            msg;
          Alcotest.(check bool) "not created" false (Sys.file_exists dir))

(* A read-only open of an existing empty directory is a missing store
   too: same message, and the directory stays empty. *)
let test_empty_dir_not_initialised () =
  with_store_dir (fun dir ->
      Unix.mkdir dir 0o755;
      match Store.open_dir dir with
      | Ok _ -> Alcotest.fail "empty directory opened as a store"
      | Error msg ->
          Alcotest.(check string)
            "message"
            (dir
           ^ ": no such store (a --store DIR campaign, repro or work creates \
              one)")
            msg;
          Alcotest.(check (array string)) "still empty" [||] (Sys.readdir dir))

let suite =
  ( "store",
    [
      case "address golden pins" test_address_golden;
      case "entry roundtrip and counters" test_roundtrip;
      case "entries persist across reopen" test_reopen_persists;
      case "gc sweeps only aged tmp files" test_gc_tmp_sweeps_only_aged;
      case "corrupt / mis-addressed / wrong-version refused"
        test_corruption_refused;
      case "non-store directory refused" test_open_refuses_non_store;
      case "campaign twice: zero re-simulation, bit-identical"
        test_campaign_twice_zero_resim;
      case "incremental extension simulates only the delta"
        test_incremental_extend;
      case "early-stop cells stop, re-serve and resume identically"
        test_early_stop_cells;
      case "work queue enqueue/claim/release" test_work_queue_and_claims;
      case "stale lock of a dead worker is broken" test_work_stale_lock_broken;
      case "queued unit without fuel is broken"
        test_work_unit_without_fuel_broken;
      case "entries of the sharding-aware version" test_legacy_entries;
      case "missing store names how to create one" test_missing_store_hint;
      case "empty directory is not a store" test_empty_dir_not_initialised;
    ] )
