(* Benchmark generators: analytic verdicts vs the reachability oracle. *)

let check_case (c : Circuit.Generators.case) =
  match c.expect with
  | None -> ()
  | Some expect -> (
    match (expect, Circuit.Reach.check c.netlist ~property:c.property) with
    | Circuit.Generators.Holds, Circuit.Reach.Holds _ -> ()
    | Circuit.Generators.Fails_at k, Circuit.Reach.Fails_at k' when k = k' -> ()
    | _, Circuit.Reach.Too_large -> () (* oracle gave up; nothing to check *)
    | _, v ->
      Alcotest.failf "%s: expected %a, oracle says %a" c.name Circuit.Generators.pp_expect
        expect Circuit.Reach.pp_verdict v)

let test_tiny_suite_verdicts () = List.iter check_case (Circuit.Generators.tiny_suite ())

let test_all_cases_validate () =
  List.iter
    (fun (c : Circuit.Generators.case) ->
      match Circuit.Netlist.validate c.netlist with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" c.name msg)
    (Circuit.Generators.suite () @ Circuit.Generators.tiny_suite ())

let test_suite_size_and_naming () =
  let suite = Circuit.Generators.suite () in
  Alcotest.(check int) "37 instances, as in Table 1" 37 (List.length suite);
  let names = List.map (fun (c : Circuit.Generators.case) -> c.name) suite in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_noise_grows_but_preserves_verdict () =
  let plain = Circuit.Generators.counter ~bits:3 ~target:5 () in
  let noisy = Circuit.Generators.counter ~bits:3 ~target:5 ~noise:6 () in
  Alcotest.(check bool) "noise adds nodes" true
    (Circuit.Netlist.num_nodes noisy.netlist > Circuit.Netlist.num_nodes plain.netlist);
  (* noise registers are nondeterministic but property-irrelevant *)
  match Circuit.Reach.check ~max_regs:24 noisy.netlist ~property:noisy.property with
  | Circuit.Reach.Fails_at 5 -> ()
  | Circuit.Reach.Too_large -> Alcotest.fail "should still be enumerable"
  | v -> Alcotest.failf "noise changed the verdict: %a" Circuit.Reach.pp_verdict v

let test_noise_outside_cone () =
  let noisy = Circuit.Generators.ring ~len:4 ~noise:8 () in
  let cone = Circuit.Netlist.transitive_fanin noisy.netlist [ noisy.property ] in
  let noise_regs =
    List.filter
      (fun r ->
        match Circuit.Netlist.name_of noisy.netlist r with
        | Some name -> String.length name >= 5 && String.sub name 0 5 = "noise"
        | None -> false)
      (Circuit.Netlist.regs noisy.netlist)
  in
  Alcotest.(check bool) "has noise regs" true (List.length noise_regs = 8);
  List.iter
    (fun r -> Alcotest.(check bool) "noise reg outside property cone" false (cone r))
    noise_regs

let test_by_name () =
  (match Circuit.Generators.by_name "traffic" with
  | Some c -> Alcotest.(check string) "found" "traffic" c.name
  | None -> Alcotest.fail "traffic not found");
  match Circuit.Generators.by_name "no-such-case" with
  | None -> ()
  | Some _ -> Alcotest.fail "bogus name resolved"

let test_factor_expectations () =
  (* the generator's own brute-force expectation must agree with BMC *)
  List.iter
    (fun (bits, target) ->
      let c = Circuit.Generators.factor ~bits ~target () in
      let r =
        Bmc.Session.check ~config:(Bmc.Session.make_config ~max_depth:2 ())
          ~policy:Bmc.Session.Fresh c.netlist ~property:c.property
      in
      match (c.expect, r.verdict) with
      | Some (Circuit.Generators.Fails_at 0), Bmc.Session.Falsified t ->
        Alcotest.(check int) "depth 0" 0 t.Bmc.Trace.depth
      | Some Circuit.Generators.Holds, Bmc.Session.Bounded_pass _ -> ()
      | e, v ->
        Alcotest.failf "factor%d_t%d: expect %s, got %a" bits target
          (match e with
          | Some x -> Format.asprintf "%a" Circuit.Generators.pp_expect x
          | None -> "?")
          Bmc.Session.pp_verdict v)
    [ (4, 15); (4, 6); (5, 21); (6, 35); (3, 1 * 5) ]

let test_fig7_case_is_deep () =
  let c = Circuit.Generators.fig7_case () in
  Alcotest.(check bool) "deep enough for a per-depth plot" true (c.suggested_depth >= 30)

let test_deterministic_construction () =
  let a = Circuit.Generators.lfsr ~width:6 ~noise:4 () in
  let b = Circuit.Generators.lfsr ~width:6 ~noise:4 () in
  Alcotest.(check int) "same node count" (Circuit.Netlist.num_nodes a.netlist)
    (Circuit.Netlist.num_nodes b.netlist);
  Alcotest.(check string) "same text form"
    (Circuit.Textio.to_string a.netlist ~property:a.property)
    (Circuit.Textio.to_string b.netlist ~property:b.property)

let tests =
  [
    Alcotest.test_case "tiny suite vs oracle" `Slow test_tiny_suite_verdicts;
    Alcotest.test_case "all cases validate" `Quick test_all_cases_validate;
    Alcotest.test_case "suite size/naming" `Quick test_suite_size_and_naming;
    Alcotest.test_case "noise preserves verdict" `Slow test_noise_grows_but_preserves_verdict;
    Alcotest.test_case "noise outside cone" `Quick test_noise_outside_cone;
    Alcotest.test_case "by_name" `Quick test_by_name;
    Alcotest.test_case "factor expectations" `Quick test_factor_expectations;
    Alcotest.test_case "fig7 case" `Quick test_fig7_case_is_deep;
    Alcotest.test_case "deterministic" `Quick test_deterministic_construction;
  ]
