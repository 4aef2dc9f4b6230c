(* Tests of the benchmark's own logic on synthetic inputs, and a tiny-size
   smoke run of every workload. *)

open Perfbench

let feq = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Percentiles with sample counts                                       *)
(* ------------------------------------------------------------------ *)

let test_percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check feq "p50 of 1..100" 50.0 (Stats.percentile xs 50.0);
  Alcotest.check feq "p90 of 1..100" 90.0 (Stats.percentile xs 90.0);
  Alcotest.check feq "p100 is the max" 100.0 (Stats.percentile xs 100.0);
  Alcotest.check feq "p0 is the min" 1.0 (Stats.percentile xs 0.0);
  Alcotest.check feq "median of three" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check int) "10 samples beyond p90 of 100" 10 (Stats.beyond ~n:100 90.0);
  Alcotest.(check bool) "p90 of 100 is reportable" true (Stats.reportable ~n:100 90.0);
  Alcotest.(check int) "9 samples beyond p90 of 99" 9 (Stats.beyond ~n:99 90.0);
  Alcotest.(check bool) "p90 of 99 is not" false (Stats.reportable ~n:99 90.0);
  Alcotest.(check bool) "nothing is reportable on no samples" false (Stats.reportable ~n:0 50.0);
  Alcotest.check_raises "rank needs samples" (Invalid_argument "Stats.rank: no samples") (fun () ->
      ignore (Stats.rank ~n:0 50.0));
  (* quartiles 25 and 75 of 1..100 by nearest rank, over the median 50 *)
  Alcotest.check feq "relative IQR" 1.0 (Stats.rel_iqr xs);
  Alcotest.check feq "relative IQR of a constant" 0.0 (Stats.rel_iqr [ 4.0; 4.0; 4.0 ])

(* ------------------------------------------------------------------ *)
(* Spans and self time                                                  *)
(* ------------------------------------------------------------------ *)

let fake_clock () =
  let t = ref 0.0 in
  (t, fun () -> !t)

let self_of spans name =
  let selfs = Tracer.self_times spans in
  let r = ref nan in
  Array.iteri (fun i s -> if s.Tracer.name = name then r := fst selfs.(i)) spans;
  !r

let test_coverage () =
  Alcotest.check feq "overlaps merge" 4.0
    (Tracer.coverage ~lo:0.0 ~hi:10.0 [ (0.0, 2.0); (1.0, 3.0); (5.0, 6.0) ]);
  Alcotest.check feq "clipped to the parent" 1.0 (Tracer.coverage ~lo:0.0 ~hi:1.0 [ (-1.0, 2.0) ]);
  Alcotest.check feq "outside the parent" 0.0 (Tracer.coverage ~lo:0.0 ~hi:1.0 [ (2.0, 3.0) ]);
  Alcotest.check feq "nothing" 0.0 (Tracer.coverage ~lo:0.0 ~hi:1.0 [])

let test_self_time () =
  let t, clock = fake_clock () in
  let tr = Tracer.create ~clock () in
  Tracer.span tr ~req:7 "a" (fun () ->
      t := 1.0;
      Tracer.span tr "b" (fun () -> t := 3.0);
      t := 10.0);
  let spans = Tracer.spans tr in
  Alcotest.(check int) "two spans" 2 (Array.length spans);
  Alcotest.(check int) "b's parent is a" 0 spans.(1).Tracer.parent;
  Alcotest.(check int) "a is a root" (-1) spans.(0).Tracer.parent;
  Alcotest.check feq "a: duration minus child" 8.0 (self_of spans "a");
  Alcotest.check feq "b: a leaf" 2.0 (self_of spans "b");
  t := 20.0;
  Tracer.span tr ~req:8 "c" (fun () -> t := 25.0);
  let by = Tracer.by_name (Tracer.spans tr) in
  let s, _, count = Hashtbl.find by "c" in
  Alcotest.check feq "by_name sums self time" 5.0 s;
  Alcotest.(check int) "by_name counts spans" 1 count;
  Alcotest.(check int) "request id kept" 8 (Tracer.spans tr).(2).Tracer.req

let test_derived () =
  let t, clock = fake_clock () in
  let tr = Tracer.create ~clock () in
  Tracer.span tr "solve" (fun () ->
      t := 10.0;
      Tracer.derive tr
        [ Tracer.Part ("search", 4.0, [ Tracer.Part ("bcp", 1.5, []) ]); Tracer.Part ("min", 2.0, []) ]);
  let spans = Tracer.spans tr in
  Alcotest.check feq "solve keeps what no part covers" 4.0 (self_of spans "solve");
  Alcotest.check feq "search minus its bcp" 2.5 (self_of spans "search");
  Alcotest.check feq "bcp" 1.5 (self_of spans "bcp");
  Alcotest.check feq "parts are laid out one after another" 4.0
    (Array.to_list spans |> List.find (fun s -> s.Tracer.name = "min")).Tracer.start;
  (* a library-reported duration longer than the measured call is clipped,
     so no self time goes negative *)
  let tr = Tracer.create ~clock () in
  t := 0.0;
  Tracer.span tr "short" (fun () ->
      t := 1.0;
      Tracer.derive tr [ Tracer.Part ("long", 5.0, []) ]);
  Alcotest.check feq "clipped parent" 0.0 (self_of (Tracer.spans tr) "short");
  (* derived children attached after the call returned *)
  let tr = Tracer.create ~clock () in
  t := 0.0;
  Tracer.span tr "outer" (fun () ->
      Tracer.span tr "begin" (fun () -> t := 2.0);
      Tracer.derive ~parent:(Tracer.last_closed tr) tr [ Tracer.Part ("inprocess", 1.0, []) ];
      t := 3.0);
  let spans = Tracer.spans tr in
  Alcotest.check feq "begin minus inprocess" 1.0 (self_of spans "begin");
  Alcotest.check feq "outer minus begin" 1.0 (self_of spans "outer")

let test_layer_table () =
  let t, clock = fake_clock () in
  let tr = Tracer.create ~clock () in
  Tracer.span tr "check" (fun () ->
      Tracer.span tr "circuit.parse" (fun () -> t := 1.0);
      Tracer.span tr "bmc.solve" (fun () ->
          t := 9.0;
          Tracer.derive tr [ Tracer.Part ("sat.search", 5.0, []) ]);
      t := 10.0);
  let by = Tracer.by_name (Tracer.spans tr) in
  let totals = Report.layer_totals by in
  let layer l = List.find (fun (l', _, _) -> l = l') totals |> fun (_, s, _) -> s in
  Alcotest.check feq "circuit" 1.0 (layer "circuit");
  Alcotest.check feq "bmc keeps the solve span's remainder" 3.0 (layer "bmc");
  Alcotest.check feq "sat" 5.0 (layer "sat");
  Alcotest.check feq "serve" 0.0 (layer "serve");
  let lines = Report.layer_table ~wall:10.0 ~units:1 ~gc:("", 0.0) by in
  let line prefix = List.find_opt (String.starts_with ~prefix) lines in
  Alcotest.(check (option string)) "dominant layer named" (Some "  dominant layer: sat")
    (line "  dominant layer");
  match line "  unattributed" with
  | Some l ->
    let fields = String.split_on_char ' ' l |> List.filter (( <> ) "") in
    Alcotest.(check (list string)) "remainder printed" [ "unattributed"; "1000.000"; "ms"; "10.0"; "%" ] fields
  | None -> Alcotest.fail "no remainder line"

(* ------------------------------------------------------------------ *)
(* Open-loop accounting and the ladder rule                             *)
(* ------------------------------------------------------------------ *)

let sample due sent answered = { Openloop.due; sent; answered }

let test_due_time () =
  let s = sample 1.0 1.002 1.010 in
  Alcotest.check feq "latency from the due time" 10.0 (Openloop.latency_ms s);
  Alcotest.check feq "generator lateness" 2.0 (Openloop.lateness_ms s);
  let due = Openloop.due_times ~start:5.0 ~rate:4.0 3 in
  Alcotest.(check (array feq)) "evenly spaced" [| 5.0; 5.25; 5.5 |] due;
  (* a stall counts against every request queued behind it *)
  let stalled = [| sample 0.0 0.0 0.5; sample 0.1 0.1 0.5; sample 0.2 0.2 0.5 |] in
  Alcotest.(check (list feq)) "queued behind a stall" [ 500.0; 400.0; 300.0 ]
    (Array.to_list (Array.map Openloop.latency_ms stalled));
  Alcotest.check feq "drain: last answer after last due" 300.0 (Openloop.drain_ms stalled);
  Alcotest.check feq "throughput over first due to last answer" 6.0 (Openloop.throughput stalled)

(* A rung of [n] requests at [rate], each answered [lat] seconds after it
   was due. *)
let rung ~rate ~lat n =
  ( rate,
    Array.init n (fun i ->
        let due = float_of_int i /. rate in
        sample due due (due +. lat)) )

let test_ladder () =
  let fast = rung ~lat:0.001 20 and slow = rung ~lat:1.0 20 in
  let limit_ms = 100.0 in
  Alcotest.(check bool) "fast rung sustained" true (Openloop.sustained ~limit_ms (snd (fast ~rate:100.0)));
  Alcotest.(check bool) "slow rung not" false (Openloop.sustained ~limit_ms (snd (slow ~rate:100.0)));
  (* a growing backlog: p95 within the limit but the last answers drain late *)
  let backlog =
    Array.init 40 (fun i ->
        let due = float_of_int i /. 100.0 in
        sample due due (if i >= 38 then due +. 0.5 else due +. 0.001))
  in
  Alcotest.(check bool) "backlog fails the drain rule" false (Openloop.sustained ~limit_ms backlog);
  let rate_of = function Some (r, _) -> r | None -> -1.0 in
  (* climbs in rate order and stops at the first failing rung, even if a
     higher one happens to pass *)
  Alcotest.check feq "stops at the first failure" 200.0
    (rate_of
       (Openloop.max_rps ~limit_ms
          [ fast ~rate:800.0; slow ~rate:400.0; fast ~rate:100.0; fast ~rate:200.0 ]));
  Alcotest.check feq "all sustained" 400.0
    (rate_of (Openloop.max_rps ~limit_ms [ fast ~rate:100.0; fast ~rate:400.0 ]));
  Alcotest.check feq "lowest fails" (-1.0)
    (rate_of (Openloop.max_rps ~limit_ms [ slow ~rate:100.0; fast ~rate:200.0 ]));
  match Openloop.max_rps ~limit_ms [ fast ~rate:100.0 ] with
  | Some (_, thr) -> Alcotest.(check bool) "reports measured throughput" true (thr > 90.0 && thr < 110.0)
  | None -> Alcotest.fail "expected a sustained rung"

(* ------------------------------------------------------------------ *)
(* The result line                                                      *)
(* ------------------------------------------------------------------ *)

let test_json_line () =
  let r =
    {
      Report.workload = "w";
      seed = 3;
      attempted = 4;
      failed = 1;
      wrong = [];
      gated = [ Report.m "x_ms" "ms" 1.5 ];
      shown = [];
      notes = [];
    }
  in
  let j = Result.get_ok (Obs.Json.of_string (Report.json_line r)) in
  Alcotest.(check bool) "correct" true (Obs.Json.get_bool j "correct");
  Alcotest.(check int) "attempted" 4 (Obs.Json.get_int j "attempted");
  Alcotest.(check int) "failed" 1 (Obs.Json.get_int j "failed");
  let x = Option.get (Option.bind (Obs.Json.member "metrics" j) (Obs.Json.member "x_ms")) in
  Alcotest.check feq "value" 1.5 (Obs.Json.get_float x "value");
  Alcotest.(check string) "unit" "ms" (Obs.Json.get_str x "unit");
  let per = Report.per_layer [ ("sat.conflicts", 2.0) ] in
  Alcotest.(check int) "every per-layer metric reported" (List.length Report.per_layer_spec)
    (List.length per);
  Alcotest.check_raises "unknown per-layer names are refused"
    (Invalid_argument "Report.per_layer: no.such") (fun () -> ignore (Report.per_layer [ ("no.such", 1.0) ]))

(* ------------------------------------------------------------------ *)
(* Tiny-size smoke runs                                                 *)
(* ------------------------------------------------------------------ *)

let check_result ~names (r : Report.result) =
  Alcotest.(check (list string)) "no wrong verdicts" [] r.Report.wrong;
  Alcotest.(check int) "nothing failed" 0 r.Report.failed;
  Alcotest.(check bool) "some work attempted" true (r.Report.attempted > 0);
  List.iter
    (fun n ->
      Alcotest.(check bool) ("reports " ^ n) true (List.exists (fun x -> x.Report.name = n) r.Report.gated))
    names

let end_to_end = [ "checks_per_s"; "check_ms_p50"; "check_ms_p90"; "alloc_mb"; "peak_heap_mb"; "setup_s" ]

let smoke_checks kind () =
  check_result ~names:end_to_end (Checks.run kind ~seed:5 ~seconds:0.0 ~scale:0.25 ~traced:false ());
  let r = Checks.run kind ~seed:5 ~seconds:0.0 ~scale:0.25 ~traced:true () in
  check_result ~names:(List.map fst Report.per_layer_spec) r;
  let v n = (List.find (fun x -> x.Report.name = n) r.Report.gated).Report.value in
  Alcotest.(check bool) "search time measured" true (v "sat.search_ms" > 0.0);
  Alcotest.(check bool) "traced wall measured" true (v "bench.traced_ms" > 0.0)

let smoke_serve () =
  check_result ~names:end_to_end (Serve_load.run ~seed:5 ~seconds:0.0 ~scale:0.1 ~traced:false ());
  let r = Serve_load.run ~seed:5 ~seconds:0.0 ~scale:0.1 ~traced:true () in
  check_result ~names:(List.map fst Report.per_layer_spec) r;
  let v n = (List.find (fun x -> x.Report.name = n) r.Report.gated).Report.value in
  Alcotest.(check bool) "cache hits seen" true (v "cache.hit_frac" > 0.0)

let test_generator_seeded () =
  let a = Gen.prove ~seed:11 ~scale:0.25 and b = Gen.prove ~seed:11 ~scale:0.25 in
  let c = Gen.prove ~seed:12 ~scale:0.25 in
  let texts = List.map (fun it -> it.Gen.text) in
  Alcotest.(check (list string)) "same seed, same inputs" (texts a) (texts b);
  Alcotest.(check bool) "another seed, other inputs" true (texts a <> texts c);
  let m1 = Gen.serve_mix ~seed:11 ~scale:0.1 and m2 = Gen.serve_mix ~seed:11 ~scale:0.1 in
  Alcotest.(check (list string)) "same serve mix"
    (Array.to_list (Array.map (fun r -> r.Gen.r_line) m1.Gen.requests))
    (Array.to_list (Array.map (fun r -> r.Gen.r_line) m2.Gen.requests))

let () =
  Alcotest.run "perfbench"
    [
      ("stats", [ Alcotest.test_case "percentiles with sample counts" `Quick test_percentiles ]);
      ( "tracer",
        [
          Alcotest.test_case "interval coverage" `Quick test_coverage;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "derived spans" `Quick test_derived;
          Alcotest.test_case "layer table" `Quick test_layer_table;
        ] );
      ( "openloop",
        [
          Alcotest.test_case "due-time latency and lateness" `Quick test_due_time;
          Alcotest.test_case "max_rps ladder rule" `Quick test_ladder;
        ] );
      ("report", [ Alcotest.test_case "result line" `Quick test_json_line ]);
      ( "smoke",
        [
          Alcotest.test_case "generator is seeded" `Quick test_generator_seeded;
          Alcotest.test_case "prove" `Quick (smoke_checks Checks.Prove);
          Alcotest.test_case "falsify" `Quick (smoke_checks Checks.Falsify);
          Alcotest.test_case "prove-inpr" `Quick (smoke_checks Checks.Prove_inpr);
          Alcotest.test_case "serve" `Quick smoke_serve;
        ] );
    ]
