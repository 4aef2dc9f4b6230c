(* Telemetry library: span nesting, counter aggregation, the JSONL trace
   codec (Obs.Jsonl), and the disabled handle's no-op guarantees. *)

module Sink = Telemetry.Sink
module Jsonl = Obs.Jsonl

(* A deterministic clock: every read advances time by one second.  Note that
   [Telemetry.create] itself reads the clock once for the epoch. *)
let ticking_clock () =
  let t = ref 0.0 in
  fun () ->
    let v = !t in
    t := v +. 1.0;
    v

(* ------------------------------------------------------------------ *)
(* Spans.                                                              *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let sink, events = Sink.memory () in
  let tel = Telemetry.create ~clock:(ticking_clock ()) sink in
  let result =
    Telemetry.span tel "outer" (fun () ->
        Telemetry.span tel "inner" (fun () -> 42))
  in
  Alcotest.(check int) "span returns the body's value" 42 result;
  match events () with
  | [ inner; outer ] ->
    (* the inner span closes first, so it is emitted first *)
    Alcotest.(check string) "inner kind" "span" inner.Sink.kind;
    Alcotest.(check (option string)) "inner name" (Some "inner")
      (Sink.find_str inner.fields "name");
    Alcotest.(check (option int)) "inner nest depth" (Some 1)
      (Sink.find_int inner.fields "nest");
    Alcotest.(check (option string)) "outer name" (Some "outer")
      (Sink.find_str outer.fields "name");
    Alcotest.(check (option int)) "outer nest depth" (Some 0)
      (Sink.find_int outer.fields "nest");
    (* clock reads: epoch, outer open, inner open, inner close, outer close *)
    Alcotest.(check (option (float 1e-9))) "inner duration" (Some 1.0)
      (Sink.find_float inner.fields "dur");
    Alcotest.(check (option (float 1e-9))) "outer duration" (Some 3.0)
      (Sink.find_float outer.fields "dur")
  | evs -> Alcotest.failf "expected 2 span events, got %d" (List.length evs)

let test_span_emits_on_exception () =
  let sink, events = Sink.memory () in
  let tel = Telemetry.create ~clock:(ticking_clock ()) sink in
  (try Telemetry.span tel "boom" (fun () -> failwith "boom") with
  | Failure _ -> ());
  match events () with
  | [ ev ] ->
    Alcotest.(check (option string)) "span recorded despite raise" (Some "boom")
      (Sink.find_str ev.Sink.fields "name")
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

(* ------------------------------------------------------------------ *)
(* Aggregation.                                                        *)
(* ------------------------------------------------------------------ *)

let test_counter_aggregation () =
  let agg = Sink.aggregate () in
  let tel = Telemetry.create ~clock:(ticking_clock ()) (Sink.of_aggregate agg) in
  Telemetry.counter tel "widgets" 3;
  Telemetry.counter tel "widgets" 4;
  Telemetry.counter tel "gadgets" 1;
  Telemetry.gauge tel "level" 2.5;
  Telemetry.gauge tel "level" 7.25;
  Telemetry.event tel "decision" [ ("src", Sink.Str "vsids"); ("level", Sink.Int 1) ];
  Telemetry.event tel "decision" [ ("src", Sink.Str "bmc_score"); ("level", Sink.Int 2) ];
  Telemetry.event tel "decision" [ ("src", Sink.Str "bmc_score"); ("level", Sink.Int 3) ];
  Alcotest.(check int) "counters sum per name" 7 (Sink.counter_value agg "widgets");
  Alcotest.(check int) "independent counter" 1 (Sink.counter_value agg "gadgets");
  Alcotest.(check int) "unknown counter is 0" 0 (Sink.counter_value agg "nope");
  Alcotest.(check (option (float 1e-9))) "gauge keeps last value" (Some 7.25)
    (Sink.gauge_value agg "level");
  Alcotest.(check int) "instant events tallied by kind" 3 (Sink.tally_value agg "decision");
  Alcotest.(check int) "and by kind.src" 2 (Sink.tally_value agg "decision.bmc_score");
  Alcotest.(check int) "vsids attribution" 1 (Sink.tally_value agg "decision.vsids")

let test_span_aggregation () =
  let agg = Sink.aggregate () in
  let tel = Telemetry.create ~clock:(ticking_clock ()) (Sink.of_aggregate agg) in
  Telemetry.span tel "phase" (fun () -> ());
  Telemetry.span tel "phase" (fun () -> ());
  Telemetry.span_event tel "phase" ~dur:0.5 [ ("count", Sink.Int 10) ];
  Alcotest.(check int) "span_event count field wins over call count" 12
    (Sink.span_count agg "phase");
  Alcotest.(check (float 1e-9)) "seconds accumulate" 2.5 (Sink.span_seconds agg "phase");
  let report = Sink.report_to_string agg in
  Alcotest.(check bool) "report names the phase" true (Test_stats.contains report "phase")

(* ------------------------------------------------------------------ *)
(* JSONL round-trip.                                                   *)
(* ------------------------------------------------------------------ *)

let value_eq a b =
  match (a, b) with
  | Sink.Float x, Sink.Float y -> Float.equal x y
  | Sink.Float x, Sink.Int y | Sink.Int y, Sink.Float x ->
    (* JSON does not distinguish 2.0 from 2 *)
    Float.equal x (float_of_int y)
  | a, b -> a = b

let check_roundtrip (ev : Sink.event) =
  let line = Jsonl.to_line ev in
  match Jsonl.of_line line with
  | Error msg -> Alcotest.failf "re-parse of %s failed: %s" line msg
  | Ok ev' ->
    Alcotest.(check (float 0.0)) "ts" ev.ts ev'.ts;
    Alcotest.(check string) "kind" ev.kind ev'.kind;
    Alcotest.(check int) "field count" (List.length ev.fields) (List.length ev'.fields);
    List.iter2
      (fun (k, v) (k', v') ->
        Alcotest.(check string) "field name" k k';
        if not (value_eq v v') then Alcotest.failf "field %s did not round-trip in %s" k line)
      ev.fields ev'.fields

let test_jsonl_roundtrip () =
  List.iter check_roundtrip
    [
      { ts = 0.0; kind = "span"; fields = [ ("name", Str "bcp"); ("dur", Float 0.00123) ] };
      {
        ts = 1.5e-7;
        kind = "depth";
        fields =
          [
            ("depth", Int 3);
            ("outcome", Str "unsat");
            ("solve_s", Float 0.1);
            ("switched", Bool false);
          ];
      };
      (* awkward floats and escaped strings *)
      { ts = 1.0 /. 3.0; kind = "gauge"; fields = [ ("value", Float 1e-300) ] };
      { ts = 0.0; kind = "note"; fields = [ ("msg", Str "say \"hi\"\n\ttab\\slash") ] };
      { ts = 0.0; kind = "empty"; fields = [] };
      { ts = 12345.678; kind = "counter"; fields = [ ("n", Int max_int) ] };
    ]

(* Literal bytes of the two wire formats: a trace line, and the aggregate
   document written to bench_results.json.  Saved traces and results files
   are read back by bmcprof and by scripts, so these must not drift. *)
let test_trace_line_golden () =
  let ev =
    {
      Sink.ts = 0.0213;
      kind = "span";
      fields =
        [
          ("name", Sink.Str "bcp");
          ("dur", Sink.Float 0.0034);
          ("count", Sink.Int 1841);
          ("whole", Sink.Float 2.0);
          ("ok", Sink.Bool true);
          ("note", Sink.Str "say \"hi\"\n\t\\");
        ];
    }
  in
  Alcotest.(check string) "trace line"
    {|{"ts":0.0213,"ev":"span","name":"bcp","dur":0.0034,"count":1841,"whole":2.0,"ok":true,"note":"say \"hi\"\n\t\\"}|}
    (Jsonl.to_line ev)

let test_aggregate_golden () =
  let agg = Sink.aggregate () in
  let sink = Sink.of_aggregate agg in
  let emit kind fields = sink.Sink.emit { Sink.ts = 0.0; kind; fields } in
  emit "span" [ ("name", Sink.Str "bcp"); ("dur", Sink.Float 0.25) ];
  emit "span" [ ("name", Sink.Str "bcp"); ("dur", Sink.Float 0.5); ("count", Sink.Int 3) ];
  emit "counter" [ ("name", Sink.Str "clauses"); ("value", Sink.Int 42) ];
  emit "gauge" [ ("name", Sink.Str "heap_mb"); ("value", Sink.Float 1.5) ];
  emit "decision" [ ("src", Sink.Str "vsids"); ("level", Sink.Int 2) ];
  emit "depth"
    [
      ("depth", Sink.Int 0);
      ("outcome", Sink.Str "unsat");
      ("solve_s", Sink.Float 0.125);
      ("switched", Sink.Bool false);
    ];
  emit "depth"
    [
      ("depth", Sink.Int 1);
      ("outcome", Sink.Str "sat");
      ("solve_s", Sink.Float 1e-7);
      ("decisions", Sink.Int 17);
    ];
  Alcotest.(check string) "aggregate document"
    {|{"spans":{"bcp":{"count":4,"seconds":0.75}},"counters":{"clauses":42},"gauges":{"heap_mb":1.5},"events":{"decision":1,"decision.vsids":1},"depths":[{"depth":0,"outcome":"unsat","solve_s":0.125,"switched":false},{"depth":1,"outcome":"sat","solve_s":1e-07,"decisions":17}]}|}
    (Obs.Json.to_string (Jsonl.aggregate_to_json agg))

(* Hand [f] a JSONL channel sink over a fresh temp file, then parse the
   file back. *)
let with_trace_file f =
  let path = Filename.temp_file "telemetry" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      f (Jsonl.of_channel oc);
      close_out oc;
      Jsonl.events_of_string (In_channel.with_open_bin path In_channel.input_all))

let test_channel_sink_trace () =
  let events =
    with_trace_file (fun sink ->
        let tel = Telemetry.create ~clock:(ticking_clock ()) sink in
        Telemetry.counter tel "c" 1;
        Telemetry.span tel "s" (fun () -> ());
        Telemetry.event tel "decision" [ ("src", Sink.Str "vsids"); ("level", Sink.Int 4) ])
  in
  Alcotest.(check int) "one line per event" 3 (List.length events);
  Alcotest.(check (list string)) "kinds in order" [ "counter"; "span"; "decision" ]
    (List.map (fun (e : Sink.event) -> e.kind) events);
  (* a parsed trace can be re-aggregated *)
  let agg = Sink.aggregate () in
  let sink = Sink.of_aggregate agg in
  List.iter sink.Sink.emit events;
  Alcotest.(check int) "re-aggregated counter" 1 (Sink.counter_value agg "c");
  Alcotest.(check int) "re-aggregated decision" 1 (Sink.tally_value agg "decision.vsids")

let nested_line = {|{"ts":0.0,"ev":"x","nest":{"a":1}}|}

let test_event_of_json_rejects_garbage () =
  let bad s =
    match Jsonl.of_line s with
    | Ok _ -> Alcotest.failf "expected parse failure on %s" s
    | Error _ -> ()
  in
  bad "";
  bad "not json";
  bad "{\"ts\":0.0}";
  bad "[1,2,3]";
  bad "{\"ts\":0.0,\"ev\":\"x\" trailing";
  bad nested_line

let test_events_of_string_raises_failure () =
  List.iter
    (fun doc ->
      match Jsonl.events_of_string doc with
      | _ -> Alcotest.failf "expected Failure on %s" doc
      | exception Failure _ -> ())
    [ "not json\n"; {|{"ts":0.0,"ev":"ok"}|} ^ "\n" ^ nested_line ^ "\n" ]

(* ------------------------------------------------------------------ *)
(* Domain safety.                                                      *)
(* ------------------------------------------------------------------ *)

let test_two_domain_hammer () =
  (* Two domains hammer the same channel + aggregate sinks.  Without the
     per-sink mutex this loses events (racy channel / [Hashtbl] mutation)
     or interleaves JSONL lines; with it, every event survives and every
     line parses. *)
  let n = 5_000 in
  let agg = Sink.aggregate () in
  let events =
    with_trace_file (fun trace ->
        let sink = Sink.tee [ trace; Sink.of_aggregate agg ] in
        let worker d () =
          for i = 1 to n do
            sink.Sink.emit
              {
                Sink.ts = float_of_int i;
                kind = "counter";
                fields = [ ("name", Sink.Str "hits"); ("value", Sink.Int 1) ];
              };
            sink.Sink.emit
              { Sink.ts = float_of_int i; kind = "decision"; fields = [ ("src", Sink.Str d) ] }
          done
        in
        let d1 = Domain.spawn (worker "left") in
        let d2 = Domain.spawn (worker "right") in
        Domain.join d1;
        Domain.join d2)
  in
  Alcotest.(check int) "no counter increment lost" (2 * n) (Sink.counter_value agg "hits");
  Alcotest.(check int) "tally per domain" n (Sink.tally_value agg "decision.left");
  Alcotest.(check int) "tally other domain" n (Sink.tally_value agg "decision.right");
  Alcotest.(check int) "every JSONL line intact" (4 * n) (List.length events)

let test_two_domain_span_nesting () =
  (* Span nesting depth is domain-local: two domains nesting spans through
     one shared handle must each see their own depths (outer 0, inner 1),
     never a sibling's.  With a shared mutable nest counter this flakes —
     one domain's open span would shift the other's recorded depth. *)
  let sink, events = Sink.memory () in
  let tel = Telemetry.create sink in
  let worker tag () =
    for _ = 1 to 200 do
      Telemetry.span tel (tag ^ ".outer") (fun () ->
          Telemetry.span tel (tag ^ ".inner") (fun () -> ()))
    done
  in
  let d1 = Domain.spawn (worker "left") in
  let d2 = Domain.spawn (worker "right") in
  Domain.join d1;
  Domain.join d2;
  let evs = events () in
  Alcotest.(check int) "all spans recorded" 800 (List.length evs);
  List.iter
    (fun (ev : Sink.event) ->
      match (Sink.find_str ev.fields "name", Sink.find_int ev.fields "nest") with
      | Some name, Some nest ->
        let expected =
          if String.length name > 6 && String.sub name (String.length name - 6) 6 = ".inner"
          then 1
          else 0
        in
        if nest <> expected then
          Alcotest.failf "span %s recorded nest %d, expected %d" name nest expected
      | _ -> Alcotest.fail "span event missing name or nest")
    evs

(* ------------------------------------------------------------------ *)
(* Disabled handle.                                                    *)
(* ------------------------------------------------------------------ *)

let test_disabled_is_noop () =
  let tel = Telemetry.disabled in
  Alcotest.(check bool) "not enabled" false (Telemetry.enabled tel);
  (* none of these may raise or allocate events anywhere observable *)
  Telemetry.counter tel "c" 1;
  Telemetry.gauge tel "g" 1.0;
  Telemetry.event tel "decision" [ ("src", Sink.Str "vsids") ];
  Telemetry.span_event tel "bcp" ~dur:1.0 [];
  Alcotest.(check int) "span is transparent" 9 (Telemetry.span tel "s" (fun () -> 9));
  Alcotest.(check (float 0.0)) "now is frozen at 0" 0.0 (Telemetry.now tel)

let test_disabled_solver_matches_plain () =
  (* a solver built with the disabled handle must behave identically to one
     built without telemetry: same outcome, same stats, no timing fields *)
  let cnf () =
    let f = Sat.Cnf.create () in
    List.iter
      (fun c -> Sat.Cnf.add_clause f (List.map (fun (v, s) -> Sat.Lit.make v s) c))
      [
        [ (0, true); (1, true) ];
        [ (0, false); (2, true) ];
        [ (1, false); (2, false) ];
        [ (2, false); (3, true) ];
        [ (0, true); (3, false) ];
      ];
    f
  in
  let plain = Sat.Solver.create (cnf ()) in
  let with_disabled = Sat.Solver.create ~telemetry:Telemetry.disabled (cnf ()) in
  let o1 = Sat.Solver.solve plain in
  let o2 = Sat.Solver.solve with_disabled in
  Alcotest.(check string) "same outcome" (Sat.Solver.outcome_string o1)
    (Sat.Solver.outcome_string o2);
  let s = Sat.Solver.stats with_disabled in
  Alcotest.(check (float 0.0)) "bcp_time untouched when disabled" 0.0 s.Sat.Stats.bcp_time;
  Alcotest.(check (float 0.0)) "analyze_time untouched when disabled" 0.0
    s.Sat.Stats.analyze_time;
  Alcotest.(check bool) "solve_time always recorded" true (s.Sat.Stats.solve_time >= 0.0)

let tests =
  [
    Alcotest.test_case "span nesting and durations" `Quick test_span_nesting;
    Alcotest.test_case "span emits on exception" `Quick test_span_emits_on_exception;
    Alcotest.test_case "counter/gauge/tally aggregation" `Quick test_counter_aggregation;
    Alcotest.test_case "span aggregation and report" `Quick test_span_aggregation;
    Alcotest.test_case "JSONL round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "trace line golden" `Quick test_trace_line_golden;
    Alcotest.test_case "aggregate document golden" `Quick test_aggregate_golden;
    Alcotest.test_case "channel sink produces parsable JSONL" `Quick test_channel_sink_trace;
    Alcotest.test_case "event_of_json rejects garbage" `Quick test_event_of_json_rejects_garbage;
    Alcotest.test_case "events_of_string raises Failure" `Quick
      test_events_of_string_raises_failure;
    Alcotest.test_case "two-domain sink hammer" `Quick test_two_domain_hammer;
    Alcotest.test_case "two-domain span nesting is domain-local" `Quick
      test_two_domain_span_nesting;
    Alcotest.test_case "disabled handle is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "disabled solver matches plain" `Quick test_disabled_solver_matches_plain;
  ]
