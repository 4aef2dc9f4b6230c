(* Proof-based abstraction: unbounded proofs from bounded cores. *)

let cfg ?(max_depth = 12) () = Bmc.Session.make_config ~mode:Bmc.Session.Static ~max_depth ()

let test_abstract_registers_shape () =
  let case = Circuit.Generators.ring ~len:4 ~noise:8 () in
  let keep r =
    match Circuit.Netlist.name_of case.netlist r with
    | Some name -> String.length name > 0 && name.[0] = 't' (* the token bits *)
    | None -> false
  in
  let abstract_nl, map = Circuit.Netlist.abstract_registers case.netlist ~keep in
  Alcotest.(check int) "only the kept registers remain" 4
    (List.length (Circuit.Netlist.regs abstract_nl));
  (* freed registers reappear as inputs *)
  Alcotest.(check bool) "more inputs than before" true
    (List.length (Circuit.Netlist.inputs abstract_nl)
    > List.length (Circuit.Netlist.inputs case.netlist));
  (* the mapped property is a valid node of the new netlist *)
  let p' = map case.property in
  Alcotest.(check bool) "property maps" true
    (p' >= 0 && p' < Circuit.Netlist.num_nodes abstract_nl)

let test_abstraction_overapproximates () =
  (* keeping every register must preserve the oracle verdict exactly *)
  List.iter
    (fun (case : Circuit.Generators.case) ->
      let abstract_nl, map =
        Circuit.Netlist.abstract_registers case.netlist ~keep:(fun _ -> true)
      in
      let v1 = Circuit.Reach.check case.netlist ~property:case.property in
      let v2 = Circuit.Reach.check abstract_nl ~property:(map case.property) in
      if not (Circuit.Reach.equal_verdict v1 v2) then
        Alcotest.failf "%s: keep-all abstraction changed the verdict" case.name)
    (Circuit.Generators.tiny_suite ())

let test_abstraction_soundness_direction () =
  (* if the property holds with registers freed, it holds concretely; freeing
     the counter of a failing case must keep it failing (over-approximation
     can only add behaviours) *)
  let case = Circuit.Generators.counter ~bits:3 ~target:5 () in
  let abstract_nl, map =
    Circuit.Netlist.abstract_registers case.netlist ~keep:(fun _ -> false)
  in
  match Circuit.Reach.check abstract_nl ~property:(map case.property) with
  | Circuit.Reach.Fails_at j -> Alcotest.(check bool) "fails at least as early" true (j <= 5)
  | v -> Alcotest.failf "free abstraction cannot hold: %a" Circuit.Reach.pp_verdict v

let test_proves_noisy_holds_cases () =
  (* circuits whose full state space is far beyond explicit enumeration *)
  List.iter
    (fun ((case : Circuit.Generators.case), expect_regs) ->
      match (Bmc.Abstraction.prove_case ~config:(cfg ()) case).verdict with
      | Bmc.Abstraction.Proved { kept_regs; total_regs; _ } ->
        Alcotest.(check bool)
          (case.name ^ ": abstraction much smaller than the circuit")
          true
          (kept_regs <= expect_regs && kept_regs < total_regs)
      | v -> Alcotest.failf "%s: expected proof, got %a" case.name Bmc.Abstraction.pp_verdict v)
    [
      (Circuit.Generators.ring ~len:12 ~noise:32 (), 13);
      (Circuit.Generators.parity_pipe ~stages:8 ~noise:32 (), 10);
      (Circuit.Generators.johnson ~width:8 ~noise:40 (), 9);
      (Circuit.Generators.fifo_safe ~bits:4 ~noise:24 (), 6);
    ]

let test_finds_real_counterexamples () =
  let case = Circuit.Generators.counter ~bits:4 ~target:9 ~noise:16 () in
  match (Bmc.Abstraction.prove_case ~config:(cfg ~max_depth:9 ()) case).verdict with
  | Bmc.Abstraction.Falsified trace ->
    Alcotest.(check int) "exact depth" 9 trace.Bmc.Trace.depth;
    Alcotest.(check bool) "replays" true
      (Bmc.Trace.replay trace case.netlist ~property:case.property)
  | v -> Alcotest.failf "expected falsified, got %a" Bmc.Abstraction.pp_verdict v

let test_abstract_cex_guides_depth () =
  (* the counter's first core misses the failure depth entirely; the
     abstract counterexample must jump BMC straight there, so the loop runs
     far fewer rounds than the failure depth *)
  let case = Circuit.Generators.counter ~bits:4 ~target:9 () in
  let r = Bmc.Abstraction.prove_case ~config:(cfg ~max_depth:9 ()) case in
  match r.verdict with
  | Bmc.Abstraction.Falsified _ ->
    Alcotest.(check bool) "skipped depths" true (List.length r.rounds < 9)
  | v -> Alcotest.failf "expected falsified, got %a" Bmc.Abstraction.pp_verdict v

let test_rounds_record_core_sizes () =
  let case = Circuit.Generators.ring ~len:6 ~noise:12 () in
  let r = Bmc.Abstraction.prove_case ~config:(cfg ()) case in
  match (r.verdict, r.rounds) with
  | Bmc.Abstraction.Proved _, rounds ->
    List.iter
      (fun (round : Bmc.Abstraction.round) ->
        Alcotest.(check bool) "core regs recorded" true (round.core_regs > 0))
      rounds
  | v, _ -> Alcotest.failf "expected proof, got %a" Bmc.Abstraction.pp_verdict v

(* Abstraction verdicts are sound against the oracle on small circuits. *)
let prop_abstraction_sound =
  let gen =
    let open QCheck.Gen in
    oneof
      [
        (pair (1 -- 6) (oneofl [ 0; 4 ]) >|= fun (t, z) ->
         Circuit.Generators.counter ~bits:3 ~target:t ~noise:z ());
        (pair (3 -- 6) (oneofl [ 0; 4 ]) >|= fun (l, z) ->
         Circuit.Generators.ring ~len:l ~noise:z ());
        (2 -- 4 >|= fun s -> Circuit.Generators.parity_pipe ~stages:s ());
        (2 -- 3 >|= fun b -> Circuit.Generators.fifo_safe ~bits:b ());
      ]
  in
  QCheck.Test.make ~name:"abstraction verdicts sound vs oracle" ~count:30
    (QCheck.make ~print:(fun (c : Circuit.Generators.case) -> c.name) gen)
    (fun case ->
      let r = Bmc.Abstraction.prove_case ~config:(cfg ~max_depth:10 ()) case in
      match (r.verdict, Circuit.Reach.check case.netlist ~property:case.property) with
      | Bmc.Abstraction.Proved _, Circuit.Reach.Holds _ -> true
      | Bmc.Abstraction.Falsified t, Circuit.Reach.Fails_at k -> t.Bmc.Trace.depth = k
      | Bmc.Abstraction.Unknown _, _ -> true
      | _, Circuit.Reach.Too_large -> true
      | (Bmc.Abstraction.Proved _ | Bmc.Abstraction.Falsified _), _ -> false)

let tests =
  [
    Alcotest.test_case "abstract_registers shape" `Quick test_abstract_registers_shape;
    Alcotest.test_case "keep-all preserves verdict" `Slow test_abstraction_overapproximates;
    Alcotest.test_case "over-approximation direction" `Quick test_abstraction_soundness_direction;
    Alcotest.test_case "proves noisy holds cases" `Quick test_proves_noisy_holds_cases;
    Alcotest.test_case "finds real counterexamples" `Quick test_finds_real_counterexamples;
    Alcotest.test_case "abstract cex guides depth" `Quick test_abstract_cex_guides_depth;
    Alcotest.test_case "rounds record cores" `Quick test_rounds_record_core_sizes;
    QCheck_alcotest.to_alcotest prop_abstraction_sound;
  ]
