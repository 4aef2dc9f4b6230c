(* Counterexample extraction and replay. *)

let falsify (case : Circuit.Generators.case) =
  match
    (Bmc.Session.check
       ~config:
         (Bmc.Session.make_config ~mode:Bmc.Session.Standard ~max_depth:case.suggested_depth ())
       ~policy:Bmc.Session.Fresh case.netlist ~property:case.property)
      .verdict
  with
  | Bmc.Session.Falsified trace -> trace
  | Bmc.Session.Bounded_pass _ | Bmc.Session.Aborted _ -> Alcotest.fail "expected a counterexample"

let test_trace_depth_matches () =
  let case = Circuit.Generators.shift_in ~len:4 () in
  let trace = falsify case in
  Alcotest.(check int) "depth" 4 trace.Bmc.Trace.depth;
  Alcotest.(check int) "one input valuation per frame" 5 (Array.length trace.Bmc.Trace.inputs)

let test_trace_replays () =
  let case = Circuit.Generators.counter_en ~bits:3 ~target:4 () in
  let trace = falsify case in
  Alcotest.(check bool) "replay confirms violation" true
    (Bmc.Trace.replay trace case.netlist ~property:case.property)

let test_trace_covers_all_inputs_and_regs () =
  let case = Circuit.Generators.fifo_overflow ~bits:2 () in
  let trace = falsify case in
  let n_inputs = List.length (Circuit.Netlist.inputs case.netlist) in
  let n_regs = List.length (Circuit.Netlist.regs case.netlist) in
  Alcotest.(check int) "all registers in init" n_regs (List.length trace.Bmc.Trace.init_regs);
  Array.iter
    (fun vals -> Alcotest.(check int) "all inputs per frame" n_inputs (List.length vals))
    trace.Bmc.Trace.inputs

let test_corrupted_trace_fails_replay () =
  let case = Circuit.Generators.shift_in ~len:4 () in
  let trace = falsify case in
  (* flipping every input of the final frame breaks the all-ones pattern *)
  let corrupted =
    {
      trace with
      Bmc.Trace.inputs =
        Array.map (fun vals -> List.map (fun (n, b) -> (n, not b)) vals) trace.Bmc.Trace.inputs;
    }
  in
  Alcotest.(check bool) "corrupted trace rejected" false
    (Bmc.Trace.replay corrupted case.netlist ~property:case.property)

let test_pp_mentions_names () =
  let case = Circuit.Generators.counter_en ~bits:3 ~target:4 () in
  let trace = falsify case in
  let text = Format.asprintf "%a" (Bmc.Trace.pp ~netlist:case.netlist ()) trace in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions the enable input" true (contains text "en");
  Alcotest.(check bool) "mentions depth" true (contains text "depth 4")

let tests =
  [
    Alcotest.test_case "depth matches" `Quick test_trace_depth_matches;
    Alcotest.test_case "replays" `Quick test_trace_replays;
    Alcotest.test_case "covers inputs and regs" `Quick test_trace_covers_all_inputs_and_regs;
    Alcotest.test_case "corrupted trace rejected" `Quick test_corrupted_trace_fails_replay;
    Alcotest.test_case "pp names" `Quick test_pp_mentions_names;
  ]
