(* Temporal induction: proofs, refutations, the simple-path strengthening. *)

let cfg ?(mode = Bmc.Session.Static) ?(max_depth = 12) () =
  Bmc.Session.make_config ~mode ~max_depth ()

let test_proves_inductive_properties () =
  List.iter
    (fun (case : Circuit.Generators.case) ->
      match Bmc.Induction.prove_case ~config:(cfg ()) case with
      | { verdict = Bmc.Induction.Proved _; _ } -> ()
      | { verdict = v; _ } ->
        Alcotest.failf "%s: expected a proof, got %a" case.name Bmc.Induction.pp_verdict v)
    [
      Circuit.Generators.ring ~len:5 ();
      Circuit.Generators.lfsr ~width:5 ();
      Circuit.Generators.parity_pipe ~stages:4 ();
      Circuit.Generators.johnson ~width:5 ();
      Circuit.Generators.fifo_safe ~bits:3 ();
      Circuit.Generators.gray ~bits:3 ();
    ]

let test_refutes_failing_properties_at_exact_depth () =
  List.iter
    (fun ((case : Circuit.Generators.case), expected_depth) ->
      match Bmc.Induction.prove_case ~config:(cfg ~max_depth:(expected_depth + 2) ()) case with
      | { verdict = Bmc.Induction.Falsified trace; _ } ->
        Alcotest.(check int) (case.name ^ " cex depth") expected_depth trace.Bmc.Trace.depth
      | { verdict = v; _ } ->
        Alcotest.failf "%s: expected falsified, got %a" case.name Bmc.Induction.pp_verdict v)
    [
      (Circuit.Generators.counter ~bits:3 ~target:5 (), 5);
      (Circuit.Generators.shift_in ~len:4 (), 4);
      (Circuit.Generators.fifo_overflow ~bits:2 (), 4);
    ]

let test_non_inductive_property_stays_unknown () =
  (* arbiter mutual exclusion is not k-inductive without path constraints *)
  let case = Circuit.Generators.arbiter ~clients:4 () in
  match Bmc.Induction.prove_case ~config:(cfg ~max_depth:6 ()) case with
  | { verdict = Bmc.Induction.Unknown _; _ } -> ()
  | { verdict = v; _ } -> Alcotest.failf "expected unknown, got %a" Bmc.Induction.pp_verdict v

let test_simple_path_completes_the_method () =
  List.iter
    (fun (case : Circuit.Generators.case) ->
      match Bmc.Induction.prove_case ~config:(cfg ~max_depth:12 ()) ~simple_path:true case with
      | { verdict = Bmc.Induction.Proved _; _ } -> ()
      | { verdict = v; _ } ->
        Alcotest.failf "%s with simple-path: expected proof, got %a" case.name
          Bmc.Induction.pp_verdict v)
    [ Circuit.Generators.arbiter ~clients:4 (); Circuit.Generators.traffic () ]

let test_proof_depth_sensible () =
  (* a counter stepping by 2 from 0 can never hit 3; provable at small k *)
  let nl = Circuit.Netlist.create () in
  let count = Circuit.Word.regs nl ~prefix:"c" ~width:3 ~init:(Some 0) in
  let inc1, _ = Circuit.Word.increment nl count in
  let inc2, _ = Circuit.Word.increment nl inc1 in
  Circuit.Word.connect nl count inc2;
  let property = Circuit.Netlist.not_ nl (Circuit.Word.eq_const nl count 3) in
  match Bmc.Induction.prove ~config:(cfg ~max_depth:10 ()) nl ~property with
  | { verdict = Bmc.Induction.Proved k; _ } ->
    Alcotest.(check bool) "strictly positive induction depth" true (k > 0 && k <= 5)
  | { verdict = v; _ } -> Alcotest.failf "expected proof, got %a" Bmc.Induction.pp_verdict v

let test_all_modes_agree () =
  let case = Circuit.Generators.ring ~len:5 () in
  List.iter
    (fun mode ->
      match Bmc.Induction.prove_case ~config:(cfg ~mode ()) case with
      | { verdict = Bmc.Induction.Proved _; _ } -> ()
      | { verdict = v; _ } ->
        Alcotest.failf "mode %a: expected proof, got %a" Bmc.Session.pp_mode mode
          Bmc.Induction.pp_verdict v)
    Test_engine.modes

let test_per_depth_stats () =
  let case = Circuit.Generators.arbiter ~clients:4 () in
  let r = Bmc.Induction.prove_case ~config:(cfg ~max_depth:3 ()) case in
  Alcotest.(check int) "stats for each depth" 4 (List.length r.per_depth);
  List.iter
    (fun (s : Bmc.Induction.step_stat) ->
      Alcotest.(check string) "base UNSAT while undecided" "UNSAT"
        (Format.asprintf "%a" Sat.Solver.pp_outcome s.base_outcome);
      match s.step_outcome with
      | Some o ->
        Alcotest.(check string) "step SAT while undecided" "SAT"
          (Format.asprintf "%a" Sat.Solver.pp_outcome o)
      | None -> Alcotest.fail "step case must have run")
    r.per_depth

let test_budget_unknown () =
  let case = Circuit.Generators.parity_pipe ~stages:8 () in
  let budget =
    { Sat.Solver.max_conflicts = Some 1; max_propagations = Some 5; max_seconds = None; stop = None }
  in
  let config = Bmc.Session.make_config ~mode:Bmc.Session.Standard ~budget ~max_depth:8 () in
  match Bmc.Induction.prove_case ~config case with
  | { verdict = Bmc.Induction.Unknown _; _ } -> ()
  | { verdict = v; _ } -> Alcotest.failf "expected unknown, got %a" Bmc.Induction.pp_verdict v

(* Anything induction proves, the explicit-state oracle must confirm. *)
let prop_proofs_sound =
  let gen =
    let open QCheck.Gen in
    oneof
      [
        (3 -- 6 >|= fun l -> Circuit.Generators.ring ~len:l ());
        (4 -- 6 >|= fun w -> Circuit.Generators.lfsr ~width:w ());
        (2 -- 4 >|= fun s -> Circuit.Generators.parity_pipe ~stages:s ());
        (2 -- 3 >|= fun b -> Circuit.Generators.fifo_safe ~bits:b ());
        (1 -- 6 >|= fun t -> Circuit.Generators.counter ~bits:3 ~target:t ());
      ]
  in
  QCheck.Test.make ~name:"induction verdicts are sound vs oracle" ~count:30
    (QCheck.make ~print:(fun (c : Circuit.Generators.case) -> c.name) gen)
    (fun case ->
      let r = Bmc.Induction.prove_case ~config:(cfg ~max_depth:10 ()) ~simple_path:true case in
      match (r.verdict, Circuit.Reach.check case.netlist ~property:case.property) with
      | Bmc.Induction.Proved _, Circuit.Reach.Holds _ -> true
      | Bmc.Induction.Falsified t, Circuit.Reach.Fails_at k -> t.Bmc.Trace.depth = k
      | Bmc.Induction.Unknown _, _ -> true (* inconclusive is never unsound *)
      | _, Circuit.Reach.Too_large -> true
      | (Bmc.Induction.Proved _ | Bmc.Induction.Falsified _), _ -> false)

let tests =
  [
    Alcotest.test_case "proves inductive" `Quick test_proves_inductive_properties;
    Alcotest.test_case "refutes failing" `Quick test_refutes_failing_properties_at_exact_depth;
    Alcotest.test_case "non-inductive unknown" `Quick test_non_inductive_property_stays_unknown;
    Alcotest.test_case "simple-path completes" `Quick test_simple_path_completes_the_method;
    Alcotest.test_case "proof depth" `Quick test_proof_depth_sensible;
    Alcotest.test_case "all modes agree" `Quick test_all_modes_agree;
    Alcotest.test_case "per-depth stats" `Quick test_per_depth_stats;
    Alcotest.test_case "budget unknown" `Quick test_budget_unknown;
    QCheck_alcotest.to_alcotest prop_proofs_sound;
  ]
