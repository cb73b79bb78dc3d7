open Helpers
module Json = Casted_obs.Json
module Metrics = Casted_obs.Metrics
module Trace = Casted_obs.Trace
module Pool = Casted_exec.Pool
module Montecarlo = Casted_sim.Montecarlo

(* Every test that enables collection turns it back off and clears the
   global registries, so the rest of the suite runs unobserved. *)
let with_metrics f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())

let with_trace f =
  Trace.clear ();
  Trace.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.clear ())

(* --- JSON writer / parser --- *)

let test_json_escaping () =
  Alcotest.(check string)
    "control chars, quote, backslash"
    "\"a\\\"b\\\\c\\nd\\te\\u0001f\""
    (Json.to_string (Json.String "a\"b\\c\nd\te\x01f"));
  Alcotest.(check string)
    "utf-8 passthrough" "\"h\xc3\xa9llo \xe2\x98\x83\""
    (Json.to_string (Json.String "h\xc3\xa9llo \xe2\x98\x83"));
  Alcotest.(check string)
    "non-finite floats become null" "[null,null,null]"
    (Json.to_string
       (Json.List [ Json.Float nan; Json.Float infinity; Json.Float neg_infinity ]))

let test_json_round_trip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
        ("ints", Json.List [ Json.Int 0; Json.Int (-42); Json.Int max_int ]);
        ("floats", Json.List [ Json.Float 0.1; Json.Float 1.5; Json.Float (-3.25e-4) ]);
        ("text", Json.String "h\xc3\xa9llo\n\"quoted\"\t\x00end");
        ("nested", Json.Obj [ ("deep", Json.List [ Json.Obj [ ("k", Json.Int 1) ] ]) ]);
      ]
  in
  match Json.parse (Json.to_string doc) with
  | Ok doc' -> Alcotest.(check bool) "round-trips exactly" true (doc = doc')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_parser_features () =
  (match Json.parse "  {\"s\": \"\\ud83d\\ude00\"} " with
  | Ok j ->
      Alcotest.(check bool)
        "surrogate pair decodes to U+1F600" true
        (Json.member "s" j = Some (Json.String "\xf0\x9f\x98\x80"))
  | Error e -> Alcotest.failf "parse failed: %s" e);
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted malformed %S" bad
      | Error _ -> ())
    [ "tru"; "{"; "[1,]"; "1 2"; "\"\\x\""; "" ]

let prop_json_string_round_trip =
  qcheck "arbitrary byte strings round-trip through the writer"
    QCheck2.Gen.string
    (fun s ->
      match Json.parse (Json.to_string (Json.String s)) with
      | Ok (Json.String s') -> String.equal s s'
      | _ -> false)

(* --- span tracing --- *)

let test_span_nesting () =
  with_trace (fun () ->
      let r =
        Trace.with_span "outer" (fun () ->
            Trace.with_span ~cat:"unit" "inner" (fun () -> 7))
      in
      Alcotest.(check int) "body result returned" 7 r;
      match Trace.events () with
      | [ outer; inner ] ->
          Alcotest.(check string) "outer first" "outer" outer.Trace.name;
          Alcotest.(check string) "inner second" "inner" inner.Trace.name;
          Alcotest.(check bool) "inner contained in outer" true
            (inner.Trace.ts_us >= outer.Trace.ts_us
            && inner.Trace.ts_us +. inner.Trace.dur_us
               <= outer.Trace.ts_us +. outer.Trace.dur_us);
          Alcotest.(check bool) "durations non-negative" true
            (outer.Trace.dur_us >= 0.0 && inner.Trace.dur_us >= 0.0)
      | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

let test_span_records_on_raise () =
  with_trace (fun () ->
      (try Trace.with_span "doomed" (fun () -> failwith "boom") with
      | Failure _ -> ());
      match Trace.events () with
      | [ e ] -> Alcotest.(check string) "span survives raise" "doomed" e.Trace.name
      | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs))

let test_negative_duration_rejected () =
  with_trace (fun () ->
      match Trace.add_complete ~ts_us:10.0 ~dur_us:(-1.0) "bad" with
      | () -> Alcotest.fail "negative duration accepted"
      | exception Invalid_argument _ -> ())

let test_chrome_trace_valid () =
  with_trace (fun () ->
      Trace.name_track "test-main";
      Trace.with_span ~args:[ ("k", Json.Int 3) ] "alpha" (fun () ->
          Trace.with_span "beta" ignore);
      let doc = Trace.to_chrome () in
      (* The export must itself be parseable JSON... *)
      let parsed =
        match Json.parse (Json.to_string doc) with
        | Ok j -> j
        | Error e -> Alcotest.failf "chrome trace is not valid JSON: %s" e
      in
      (* ...and structurally a Chrome trace_event document. *)
      match Json.member "traceEvents" parsed with
      | Some (Json.List events) ->
          Alcotest.(check bool) "has events" true (List.length events >= 3);
          List.iter
            (fun ev ->
              let has k = Json.member k ev <> None in
              Alcotest.(check bool) "event has name/ph/pid/tid" true
                (has "name" && has "ph" && has "pid" && has "tid");
              match Json.member "ph" ev with
              | Some (Json.String "X") ->
                  Alcotest.(check bool) "X event has ts and dur" true
                    (has "ts" && has "dur")
              | Some (Json.String "M") -> ()
              | _ -> Alcotest.fail "unexpected event phase")
            events
      | _ -> Alcotest.fail "no traceEvents array")

(* --- metrics --- *)

let test_metrics_kinds () =
  with_metrics (fun () ->
      Metrics.incr "t.counter";
      Metrics.incr ~by:4 "t.counter";
      Metrics.gauge "t.gauge" 2.0;
      Metrics.gauge "t.gauge" 7.0;
      Metrics.gauge "t.gauge" 3.0;
      Metrics.observe "t.hist" 1.0;
      Metrics.observe "t.hist" 3.0;
      let snap = Metrics.snapshot () in
      Alcotest.(check bool) "counter sums" true
        (List.assoc "t.counter" snap = Metrics.Counter 5);
      Alcotest.(check bool) "gauge keeps high-water + samples" true
        (List.assoc "t.gauge" snap = Metrics.Gauge { high = 7.0; samples = 3 });
      (match List.assoc "t.hist" snap with
      | Metrics.Histogram { count = 2; sum; min = 1.0; max = 3.0 } ->
          Alcotest.(check (float 1e-9)) "sum" 4.0 sum
      | _ -> Alcotest.fail "histogram shape");
      (* A name reused with a different kind is a programming error. *)
      match Metrics.gauge "t.counter" 1.0 with
      | () -> Alcotest.fail "kind conflict accepted"
      | exception Invalid_argument _ -> ())

(* A small looped program with stores: enough dynamic events for every
   fault model's population to be non-trivial. *)
let looped_program () =
  program_of (fun b ->
      let base = B.movi b 0x100L in
      let acc = B.movi b 1L in
      B.counted_loop b ~from:0L ~until:16L (fun b i ->
          let x = B.mul b acc acc in
          let y = B.add b x i in
          let (_ : Casted_ir.Reg.t) = B.andi b ~dst:acc y 0xFFFFL in
          ());
      B.st b Opcode.W8 ~value:acc ~base 0L;
      let out = B.movi b 0x40L in
      let v = B.ld b Opcode.W8 base 0L in
      B.st b Opcode.W8 ~value:v ~base:out 0L)

(* The determinism contract of the whole subsystem: a campaign tally is
   bit-identical with metrics off, with metrics on, and at any pool
   size; and the deterministic (simulation-derived) metrics themselves
   merge to the same view at jobs=1 and jobs=4. *)
let test_metrics_campaign_determinism () =
  let p = looped_program () in
  let c = Pipeline.compile ~scheme:Scheme.Casted ~issue_width:2 ~delay:2 p in
  let campaign ?pool () =
    Montecarlo.run ?pool ~seed:11 ~trials:64 c.Pipeline.schedule
  in
  let deterministic snap =
    (* pool.* metrics (queue depth, task spans) depend on scheduling;
       everything derived from the trials themselves must not. *)
    List.filter
      (fun (name, v) ->
        (match v with Metrics.Counter _ -> true | _ -> false)
        && (String.starts_with ~prefix:"sim." name
           || String.starts_with ~prefix:"mc." name))
      snap
  in
  let baseline = campaign () in
  let r1, snap1 =
    with_metrics (fun () ->
        let r = campaign () in
        (r, deterministic (Metrics.snapshot ())))
  in
  let r4, snap4 =
    with_metrics (fun () ->
        let r =
          Pool.with_pool ~jobs:4 (fun pool -> campaign ~pool ())
        in
        (r, deterministic (Metrics.snapshot ())))
  in
  Alcotest.(check bool) "metrics do not perturb the tally" true (baseline = r1);
  Alcotest.(check bool) "jobs=4 tally identical" true (baseline = r4);
  Alcotest.(check bool) "some sim metrics recorded" true (snap1 <> []);
  (* Trials run untimed: only the golden run counts cycles. *)
  Alcotest.(check bool) "sim.cycles = the golden run's cycles" true
    (List.assoc_opt "sim.cycles" snap1
    = Some (Metrics.Counter baseline.Montecarlo.golden_cycles));
  Alcotest.(check bool) "merged metrics identical at jobs=1 and jobs=4" true
    (snap1 = snap4)

(* The rollback campaign's counters are passive too: the tally is
   bit-identical with metrics on, and the instructions re-executed to
   rebuild checkpoints are reported alongside the rollbacks. *)
let test_rollback_metrics_passive () =
  let p =
    program_of (fun b ->
        let base = B.movi b 0x100L in
        let acc = B.movi b 7L in
        B.counted_loop b ~from:0L ~until:16L (fun b i ->
            let x = B.mul b acc acc in
            let y = B.add b x i in
            let (_ : Casted_ir.Reg.t) = B.andi b ~dst:acc y 0x1FFFL in
            B.st b Opcode.W8 ~value:acc ~base 0L))
  in
  let c = Pipeline.compile ~scheme:Scheme.Rollback ~issue_width:2 ~delay:2 p in
  let campaign () =
    Montecarlo.run ~seed:11 ~trials:64 ~retry_budget:3 c.Pipeline.schedule
  in
  let baseline = campaign () in
  let r, snap =
    with_metrics (fun () ->
        let r = campaign () in
        (r, Metrics.snapshot ()))
  in
  Alcotest.(check bool) "metrics do not perturb the tally" true (baseline = r);
  let counter name =
    match List.assoc_opt name snap with
    | Some (Metrics.Counter n) -> n
    | _ -> 0
  in
  Alcotest.(check bool) "some trials rolled back" true
    (counter "sim.rollbacks" > 0);
  Alcotest.(check bool) "checkpoint rebuilds counted" true
    (counter "sim.checkpoint_rebuild_insns" > 0)

let test_tracing_does_not_perturb () =
  let p = looped_program () in
  let c = Pipeline.compile ~scheme:Scheme.Sced ~issue_width:2 ~delay:1 p in
  let plain = Simulator.run c.Pipeline.schedule in
  let traced =
    with_trace (fun () ->
        Trace.with_span "wrapper" (fun () -> Simulator.run c.Pipeline.schedule))
  in
  Alcotest.(check bool) "same termination" true
    (plain.Outcome.termination = traced.Outcome.termination);
  Alcotest.(check string) "same output" plain.Outcome.output
    traced.Outcome.output;
  Alcotest.(check int) "same cycles" plain.Outcome.cycles traced.Outcome.cycles

let suite =
  ( "obs",
    [
      case "json escaping" test_json_escaping;
      case "json round-trip" test_json_round_trip;
      case "json parser features" test_json_parser_features;
      prop_json_string_round_trip;
      case "span nesting" test_span_nesting;
      case "span recorded on raise" test_span_records_on_raise;
      case "negative span duration rejected" test_negative_duration_rejected;
      case "chrome trace export is valid" test_chrome_trace_valid;
      case "metric kinds and merge" test_metrics_kinds;
      case "campaign determinism with metrics, jobs=1 vs jobs=4"
        test_metrics_campaign_determinism;
      case "rollback campaign metrics are passive"
        test_rollback_metrics_passive;
      case "tracing does not perturb a run" test_tracing_does_not_perturb;
    ] )
