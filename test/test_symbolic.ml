(* BDD-based reachability: cross-validation against the explicit oracle and
   against BMC, plus behaviour beyond the oracle's reach. *)

let test_matches_oracle_on_tiny_suite () =
  List.iter
    (fun (c : Circuit.Generators.case) ->
      let sym = Bmc.Symbolic.check c.netlist ~property:c.property in
      match (sym, Circuit.Reach.check c.netlist ~property:c.property) with
      | Bmc.Symbolic.Holds { diameter = d1 }, Circuit.Reach.Holds { diameter = d2 } ->
        Alcotest.(check int) (c.name ^ " diameter") d2 d1
      | Bmc.Symbolic.Fails_at a, Circuit.Reach.Fails_at b ->
        Alcotest.(check int) (c.name ^ " depth") b a
      | _, Circuit.Reach.Too_large -> ()
      | v, o ->
        Alcotest.failf "%s: symbolic %a vs oracle %a" c.name Bmc.Symbolic.pp_verdict v
          Circuit.Reach.pp_verdict o)
    (Circuit.Generators.tiny_suite ())

let test_handles_spaces_beyond_enumeration () =
  (* 24 one-hot registers: 2^24 raw states, trivial as BDDs *)
  let c = Circuit.Generators.ring ~len:24 () in
  (match Bmc.Symbolic.check c.netlist ~property:c.property with
  | Bmc.Symbolic.Holds { diameter } -> Alcotest.(check int) "ring diameter" 23 diameter
  | v -> Alcotest.failf "ring24: %a" Bmc.Symbolic.pp_verdict v);
  (* a counterexample 40 000 steps deep — far beyond any BMC unrolling *)
  let c = Circuit.Generators.counter ~bits:16 ~target:40_000 () in
  match Bmc.Symbolic.check c.netlist ~property:c.property with
  | Bmc.Symbolic.Fails_at 40_000 -> ()
  | v -> Alcotest.failf "cnt16: %a" Bmc.Symbolic.pp_verdict v

let test_cone_projection () =
  (* noise registers outside the property cone must not affect the result *)
  let plain = Circuit.Generators.johnson ~width:10 () in
  let noisy = Circuit.Generators.johnson ~width:10 ~noise:24 () in
  let v1 = Bmc.Symbolic.check plain.netlist ~property:plain.property in
  let v2 = Bmc.Symbolic.check noisy.netlist ~property:noisy.property in
  Alcotest.(check bool) "same verdict with and without noise" true
    (Bmc.Symbolic.equal_verdict v1 v2)

let test_node_limit_blowup () =
  (* a multiplier-like function is exponential in any variable order; with a
     tiny node limit the check must report blow-up, not wrong answers *)
  let c = Circuit.Generators.gray ~bits:5 () in
  match Bmc.Symbolic.check ~node_limit:64 c.netlist ~property:c.property with
  | Bmc.Symbolic.Blowup _ -> ()
  | v -> Alcotest.failf "expected blow-up, got %a" Bmc.Symbolic.pp_verdict v

let test_agrees_with_bmc_on_failure_depth () =
  let c = Circuit.Generators.fifo_overflow ~bits:3 () in
  let sym = Bmc.Symbolic.check c.netlist ~property:c.property in
  let bmc =
    Bmc.Session.check
      ~config:(Bmc.Session.make_config ~mode:Bmc.Session.Dynamic ~max_depth:10 ())
      ~policy:Bmc.Session.Fresh c.netlist ~property:c.property
  in
  match (sym, bmc.verdict) with
  | Bmc.Symbolic.Fails_at a, Bmc.Session.Falsified t ->
    Alcotest.(check int) "same depth" a t.Bmc.Trace.depth
  | v, b ->
    Alcotest.failf "symbolic %a vs bmc %a" Bmc.Symbolic.pp_verdict v Bmc.Session.pp_verdict b

(* Randomised: symbolic = oracle on generated circuits. *)
let prop_symbolic_matches_oracle =
  let gen =
    let open QCheck.Gen in
    oneof
      [
        (pair (1 -- 6) (oneofl [ 0; 4 ]) >|= fun (t, z) ->
         Circuit.Generators.counter_en ~bits:3 ~target:t ~noise:z ());
        (3 -- 6 >|= fun l -> Circuit.Generators.ring ~len:l ());
        (2 -- 4 >|= fun s -> Circuit.Generators.parity_pipe ~stages:s ());
        (2 -- 3 >|= fun b -> Circuit.Generators.fifo_safe ~bits:b ());
        (4 -- 6 >|= fun w -> Circuit.Generators.lfsr ~width:w ());
        (3 -- 4 >|= fun b -> Circuit.Generators.gray ~bits:b ());
      ]
  in
  QCheck.Test.make ~name:"symbolic verdicts = oracle verdicts" ~count:40
    (QCheck.make ~print:(fun (c : Circuit.Generators.case) -> c.name) gen)
    (fun c ->
      match
        ( Bmc.Symbolic.check c.netlist ~property:c.property,
          Circuit.Reach.check c.netlist ~property:c.property )
      with
      | Bmc.Symbolic.Holds { diameter = d1 }, Circuit.Reach.Holds { diameter = d2 } -> d1 = d2
      | Bmc.Symbolic.Fails_at a, Circuit.Reach.Fails_at b -> a = b
      | _, Circuit.Reach.Too_large -> true
      | _, _ -> false)

let tests =
  [
    Alcotest.test_case "matches oracle" `Slow test_matches_oracle_on_tiny_suite;
    Alcotest.test_case "beyond enumeration" `Quick test_handles_spaces_beyond_enumeration;
    Alcotest.test_case "cone projection" `Quick test_cone_projection;
    Alcotest.test_case "node-limit blowup" `Quick test_node_limit_blowup;
    Alcotest.test_case "agrees with BMC" `Quick test_agrees_with_bmc_on_failure_depth;
    QCheck_alcotest.to_alcotest prop_symbolic_matches_oracle;
  ]
