(* The incremental BMC engine: correctness against the oracle and
   equivalence with the non-incremental engine. *)

let verdict_matches (expect : Circuit.Generators.expect) (v : Bmc.Session.verdict) =
  match (expect, v) with
  | Circuit.Generators.Fails_at k, Bmc.Session.Falsified t -> t.Bmc.Trace.depth = k
  | Circuit.Generators.Holds, Bmc.Session.Bounded_pass _ -> true
  | ( (Circuit.Generators.Fails_at _ | Circuit.Generators.Holds),
      (Bmc.Session.Falsified _ | Bmc.Session.Bounded_pass _ | Bmc.Session.Aborted _) ) ->
    false

let test_all_modes_all_tiny_cases () =
  List.iter
    (fun (case : Circuit.Generators.case) ->
      match case.expect with
      | None -> ()
      | Some expect ->
        List.iter
          (fun mode ->
            let config = Bmc.Session.make_config ~mode ~max_depth:case.suggested_depth () in
            let r =
              Bmc.Session.check ~config ~policy:Bmc.Session.Persistent case.netlist
                ~property:case.property
            in
            if not (verdict_matches expect r.verdict) then
              Alcotest.failf "%s in mode %a: expected %a, got %a" case.name Bmc.Session.pp_mode
                mode Circuit.Generators.pp_expect expect Bmc.Session.pp_verdict r.verdict)
          Test_engine.modes)
    (Circuit.Generators.tiny_suite ())

let test_per_depth_outcomes_match_engine () =
  let case = Circuit.Generators.counter_en ~bits:3 ~target:5 () in
  let config = Bmc.Session.make_config ~mode:Bmc.Session.Static ~max_depth:8 () in
  let a =
    Bmc.Session.check ~config ~policy:Bmc.Session.Fresh case.netlist ~property:case.property
  in
  let b =
    Bmc.Session.check ~config ~policy:Bmc.Session.Persistent case.netlist ~property:case.property
  in
  Alcotest.(check int) "same number of instances" (List.length a.per_depth)
    (List.length b.per_depth);
  List.iter2
    (fun (x : Bmc.Session.depth_stat) (y : Bmc.Session.depth_stat) ->
      Alcotest.(check string)
        (Printf.sprintf "outcome at depth %d" x.depth)
        (Format.asprintf "%a" Sat.Solver.pp_outcome x.outcome)
        (Format.asprintf "%a" Sat.Solver.pp_outcome y.outcome))
    a.per_depth b.per_depth

let test_cores_flow_between_instances () =
  let case = Circuit.Generators.ring ~len:4 () in
  let config = Bmc.Session.make_config ~mode:Bmc.Session.Static ~max_depth:5 () in
  let r =
    Bmc.Session.check ~config ~policy:Bmc.Session.Persistent case.netlist ~property:case.property
  in
  List.iter
    (fun (d : Bmc.Session.depth_stat) ->
      Alcotest.(check bool)
        (Printf.sprintf "core collected at depth %d" d.depth)
        true (d.core_size > 0))
    r.per_depth

let test_trace_replays () =
  let case = Circuit.Generators.fifo_overflow ~bits:2 () in
  let config = Bmc.Session.make_config ~mode:Bmc.Session.Dynamic ~max_depth:6 () in
  let r =
    Bmc.Session.check ~config ~policy:Bmc.Session.Persistent case.netlist ~property:case.property
  in
  match r.verdict with
  | Bmc.Session.Falsified trace ->
    Alcotest.(check int) "depth" 4 trace.Bmc.Trace.depth;
    Alcotest.(check bool) "replay" true
      (Bmc.Trace.replay trace case.netlist ~property:case.property)
  | v -> Alcotest.failf "expected counterexample, got %a" Bmc.Session.pp_verdict v

let test_budget_abort () =
  let case = Circuit.Generators.parity_pipe ~stages:12 () in
  let budget =
    { Sat.Solver.max_conflicts = Some 1; max_propagations = Some 10; max_seconds = None; stop = None }
  in
  let config = Bmc.Session.make_config ~mode:Bmc.Session.Standard ~budget ~max_depth:24 () in
  let r =
    Bmc.Session.check ~config ~policy:Bmc.Session.Persistent case.netlist ~property:case.property
  in
  match r.verdict with
  | Bmc.Session.Aborted _ -> ()
  | v -> Alcotest.failf "expected abort, got %a" Bmc.Session.pp_verdict v

let test_decision_deltas_are_per_instance () =
  (* per-depth statistics must be deltas, not cumulative counters *)
  let case = Circuit.Generators.ring ~len:5 () in
  let config = Bmc.Session.make_config ~mode:Bmc.Session.Standard ~max_depth:8 () in
  let r =
    Bmc.Session.check ~config ~policy:Bmc.Session.Persistent case.netlist ~property:case.property
  in
  let sum =
    List.fold_left (fun acc (d : Bmc.Session.depth_stat) -> acc + d.decisions) 0 r.per_depth
  in
  Alcotest.(check int) "totals equal the sum of deltas" r.total_decisions sum

let tests =
  [
    Alcotest.test_case "all modes, all tiny cases" `Slow test_all_modes_all_tiny_cases;
    Alcotest.test_case "per-depth outcomes match" `Quick test_per_depth_outcomes_match_engine;
    Alcotest.test_case "cores flow" `Quick test_cores_flow_between_instances;
    Alcotest.test_case "trace replays" `Quick test_trace_replays;
    Alcotest.test_case "budget abort" `Quick test_budget_abort;
    Alcotest.test_case "per-instance deltas" `Quick test_decision_deltas_are_per_instance;
  ]
