(* AIGER format: parsing of hand-written files, ASCII and binary roundtrips
   validated semantically against the reachability oracle. *)

(* A toggling latch whose bad state is "latch high": fails at depth 1.
   (latch 2 starts at 0, next = ¬2 via literal 3) *)
let toggle_aag = "aag 1 0 1 0 0 1\n2 3\n2\n"

let test_parse_toggle () =
  let nl, property = Circuit.Aiger.parse_string toggle_aag in
  Alcotest.(check int) "one latch" 1 (List.length (Circuit.Netlist.regs nl));
  match Circuit.Reach.check nl ~property with
  | Circuit.Reach.Fails_at 1 -> ()
  | v -> Alcotest.failf "toggle: expected fails@1, got %a" Circuit.Reach.pp_verdict v

(* An and of two inputs reported as output (AIGER 1.0 style: output = bad). *)
let and_aag = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"

let test_parse_output_as_bad () =
  let nl, property = Circuit.Aiger.parse_string and_aag in
  Alcotest.(check int) "two inputs" 2 (List.length (Circuit.Netlist.inputs nl));
  match Circuit.Reach.check nl ~property with
  | Circuit.Reach.Fails_at 0 -> () (* both inputs high violates immediately *)
  | v -> Alcotest.failf "and: expected fails@0, got %a" Circuit.Reach.pp_verdict v

(* Latch with reset-to-one (AIGER 1.9) and bad = ¬latch: holds forever. *)
let reset_one_aag = "aag 1 0 1 0 0 1\n2 2 1\n3\n"

let test_parse_reset_one () =
  let nl, property = Circuit.Aiger.parse_string reset_one_aag in
  match Circuit.Reach.check nl ~property with
  | Circuit.Reach.Holds _ -> ()
  | v -> Alcotest.failf "reset-one: expected holds, got %a" Circuit.Reach.pp_verdict v

(* Nondeterministic latch (reset to itself), self-looping, bad = latch:
   fails at depth 0 through the initial state choice. *)
let nondet_aag = "aag 1 0 1 0 0 1\n2 2 2\n2\n"

let test_parse_nondet_reset () =
  let nl, property = Circuit.Aiger.parse_string nondet_aag in
  (match Circuit.Netlist.regs nl with
  | [ r ] -> Alcotest.(check (option bool)) "uninitialised" None (Circuit.Netlist.reg_init nl r)
  | _ -> Alcotest.fail "one latch expected");
  match Circuit.Reach.check nl ~property with
  | Circuit.Reach.Fails_at 0 -> ()
  | v -> Alcotest.failf "nondet: expected fails@0, got %a" Circuit.Reach.pp_verdict v

let expect_error s =
  match Circuit.Aiger.parse_string s with
  | exception Circuit.Aiger.Parse_error _ -> ()
  | _ -> Alcotest.fail ("expected Parse_error on: " ^ String.escaped s)

let test_errors () =
  expect_error "";
  expect_error "not an aiger\n";
  expect_error "aag x y\n";
  expect_error "aag 1 0 1 0 0 1\n2 3\n"; (* missing bad line *)
  expect_error "aag 1 0 0 0 0 0\n"; (* neither bad nor output *)
  expect_error "aag 2 1 0 0 1 1\n2\n4\n4 4 2\n"; (* cyclic and-gate *)
  expect_error "aag 1 1 0 0 0 1\n3\n2\n" (* negated input literal *)

let verdicts_equal nl1 p1 nl2 p2 =
  Circuit.Reach.equal_verdict
    (Circuit.Reach.check nl1 ~property:p1)
    (Circuit.Reach.check nl2 ~property:p2)

let test_ascii_roundtrip_tiny_suite () =
  List.iter
    (fun (c : Circuit.Generators.case) ->
      let text = Circuit.Aiger.to_ascii c.netlist ~property:c.property in
      let nl, p = Circuit.Aiger.parse_string text in
      if not (verdicts_equal c.netlist c.property nl p) then
        Alcotest.failf "%s: ASCII AIGER roundtrip changed the verdict" c.name)
    (Circuit.Generators.tiny_suite ())

let test_binary_roundtrip_tiny_suite () =
  List.iter
    (fun (c : Circuit.Generators.case) ->
      let data = Circuit.Aiger.to_binary c.netlist ~property:c.property in
      let nl, p = Circuit.Aiger.parse_string data in
      if not (verdicts_equal c.netlist c.property nl p) then
        Alcotest.failf "%s: binary AIGER roundtrip changed the verdict" c.name)
    (Circuit.Generators.tiny_suite ())

let test_ascii_binary_agree () =
  let c = Circuit.Generators.gray ~bits:3 () in
  let a = Circuit.Aiger.parse_string (Circuit.Aiger.to_ascii c.netlist ~property:c.property) in
  let b = Circuit.Aiger.parse_string (Circuit.Aiger.to_binary c.netlist ~property:c.property) in
  let nl_a, p_a = a and nl_b, p_b = b in
  Alcotest.(check bool) "same verdict from both encodings" true
    (verdicts_equal nl_a p_a nl_b p_b)

let test_file_io () =
  let c = Circuit.Generators.ring ~len:4 () in
  let path = Filename.temp_file "circuit" ".aig" in
  Circuit.Aiger.write_file path c.netlist ~property:c.property;
  let nl, p = Circuit.Aiger.parse_file path in
  Sys.remove path;
  Alcotest.(check bool) "binary file roundtrip" true (verdicts_equal c.netlist c.property nl p)

let test_bmc_on_parsed_aiger () =
  (* end-to-end: emit a failing case as AIGER, re-read, model check *)
  let c = Circuit.Generators.shift_in ~len:4 () in
  let nl, p = Circuit.Aiger.parse_string (Circuit.Aiger.to_ascii c.netlist ~property:c.property) in
  let config = Bmc.Session.make_config ~mode:Bmc.Session.Dynamic ~max_depth:6 () in
  match (Bmc.Session.check ~config ~policy:Bmc.Session.Fresh nl ~property:p).verdict with
  | Bmc.Session.Falsified t -> Alcotest.(check int) "depth preserved" 4 t.Bmc.Trace.depth
  | v -> Alcotest.failf "expected falsified, got %a" Bmc.Session.pp_verdict v

let prop_roundtrip_random_cases =
  let gen =
    let open QCheck.Gen in
    oneof
      [
        (pair (1 -- 6) (oneofl [ 0; 3 ]) >|= fun (t, z) ->
         Circuit.Generators.counter_en ~bits:3 ~target:t ~noise:z ());
        (3 -- 6 >|= fun l -> Circuit.Generators.ring ~len:l ());
        (2 -- 4 >|= fun s -> Circuit.Generators.parity_pipe ~stages:s ());
        (4 -- 6 >|= fun w -> Circuit.Generators.johnson ~width:w ());
        (2 -- 3 >|= fun b -> Circuit.Generators.fifo_safe ~bits:b ());
      ]
  in
  QCheck.Test.make ~name:"AIGER roundtrips preserve semantics" ~count:30
    (QCheck.make ~print:(fun (c : Circuit.Generators.case) -> c.name) gen)
    (fun c ->
      let via_ascii =
        Circuit.Aiger.parse_string (Circuit.Aiger.to_ascii c.netlist ~property:c.property)
      in
      let via_binary =
        Circuit.Aiger.parse_string (Circuit.Aiger.to_binary c.netlist ~property:c.property)
      in
      let nl_a, p_a = via_ascii and nl_b, p_b = via_binary in
      verdicts_equal c.netlist c.property nl_a p_a && verdicts_equal c.netlist c.property nl_b p_b)

let tests =
  [
    Alcotest.test_case "toggle latch" `Quick test_parse_toggle;
    Alcotest.test_case "output as bad" `Quick test_parse_output_as_bad;
    Alcotest.test_case "reset one" `Quick test_parse_reset_one;
    Alcotest.test_case "nondet reset" `Quick test_parse_nondet_reset;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "ascii roundtrip suite" `Slow test_ascii_roundtrip_tiny_suite;
    Alcotest.test_case "binary roundtrip suite" `Slow test_binary_roundtrip_tiny_suite;
    Alcotest.test_case "encodings agree" `Quick test_ascii_binary_agree;
    Alcotest.test_case "file io" `Quick test_file_io;
    Alcotest.test_case "bmc on parsed aiger" `Quick test_bmc_on_parsed_aiger;
    QCheck_alcotest.to_alcotest prop_roundtrip_random_cases;
  ]
