(* Bounded LTL: encoding vs concrete lasso evaluation, equivalence with the
   invariant engine on G p, witness shapes, NNF smart constructors. *)

let cfg ?(max_depth = 10) () = Bmc.Session.make_config ~mode:Bmc.Session.Static ~max_depth ()

let signal nl name = Option.get (Circuit.Netlist.find nl name)

let check ?max_depth nl f = Bmc.Ltl.check ~config:(cfg ?max_depth ()) nl f

(* G (atom p) must agree exactly with the invariant engine. *)
let test_g_atom_equals_invariant_bmc () =
  List.iter
    (fun (case : Circuit.Generators.case) ->
      let ltl = check ~max_depth:case.suggested_depth case.netlist
          (Bmc.Ltl.always (Bmc.Ltl.atom case.property))
      in
      let bmc =
        Bmc.Session.check
          ~config:
            (Bmc.Session.make_config ~mode:Bmc.Session.Static ~max_depth:case.suggested_depth ())
          ~policy:Bmc.Session.Fresh case.netlist ~property:case.property
      in
      match (ltl.verdict, bmc.verdict) with
      | Bmc.Ltl.Falsified w, Bmc.Session.Falsified t ->
        Alcotest.(check int) (case.name ^ ": same depth") t.Bmc.Trace.depth w.Bmc.Ltl.depth;
        Alcotest.(check (option int)) (case.name ^ ": finite witness") None w.Bmc.Ltl.loop_start
      | Bmc.Ltl.Bounded_pass a, Bmc.Session.Bounded_pass b ->
        Alcotest.(check int) (case.name ^ ": same bound") b a
      | v, b ->
        Alcotest.failf "%s: LTL %s vs BMC %a" case.name
          (match v with
          | Bmc.Ltl.Falsified _ -> "falsified"
          | Bmc.Ltl.Bounded_pass _ -> "pass"
          | Bmc.Ltl.Aborted _ -> "aborted")
          Bmc.Session.pp_verdict b)
    (Circuit.Generators.tiny_suite ())

let test_eventually_needs_lasso () =
  (* F (count = 5) on an enabled counter fails: the lasso that never
     enables is a depth-0 witness *)
  let c = Circuit.Generators.counter_en ~bits:3 ~target:5 () in
  let nl = c.netlist in
  let eq5 = Circuit.Netlist.not_ nl c.property in
  match (check nl (Bmc.Ltl.eventually (Bmc.Ltl.atom eq5))).verdict with
  | Bmc.Ltl.Falsified w ->
    Alcotest.(check int) "depth 0" 0 w.depth;
    Alcotest.(check (option int)) "self-loop" (Some 0) w.loop_start
  | _ -> Alcotest.fail "expected a lasso witness"

let test_fairness_implication_holds () =
  (* under the fairness assumption G F en, the counter must reach 5 *)
  let c = Circuit.Generators.counter_en ~bits:3 ~target:5 () in
  let nl = c.netlist in
  let eq5 = Circuit.Netlist.not_ nl c.property in
  let en = signal nl "en" in
  let f =
    Bmc.Ltl.(implies (always (eventually (atom en))) (eventually (atom eq5)))
  in
  match (check ~max_depth:12 nl f).verdict with
  | Bmc.Ltl.Bounded_pass k -> Alcotest.(check int) "full bound" 12 k
  | Bmc.Ltl.Falsified _ -> Alcotest.fail "fairness implication wrongly falsified"
  | Bmc.Ltl.Aborted k -> Alcotest.failf "aborted at %d" k

let test_until_witness () =
  let c = Circuit.Generators.ring ~len:4 () in
  let t0 = signal c.netlist "t0" and tick = signal c.netlist "tick" in
  (* t0 U tick fails: hold tick low forever (t0 stays, tick never) —
     except t0 is true initially so the until needs tick eventually *)
  match (check c.netlist (Bmc.Ltl.until (Bmc.Ltl.atom t0) (Bmc.Ltl.atom tick))).verdict with
  | Bmc.Ltl.Falsified w -> Alcotest.(check bool) "lasso" true (w.loop_start <> None)
  | _ -> Alcotest.fail "expected a lasso witness for the until"

let test_next_chain () =
  (* on the deterministic counter, X X X (count=3) holds, X X (count=3) fails *)
  let c = Circuit.Generators.counter ~bits:3 ~target:7 () in
  let nl = c.netlist in
  let bits = List.map (fun i -> signal nl (Printf.sprintf "c%d" i)) [ 0; 1; 2 ] in
  let eq3 =
    match bits with
    | [ b0; b1; b2 ] -> Circuit.Netlist.and_list nl [ b0; b1; Circuit.Netlist.not_ nl b2 ]
    | _ -> assert false
  in
  let x n f = List.fold_left (fun acc _ -> Bmc.Ltl.next acc) f (List.init n Fun.id) in
  (match (check nl (x 3 (Bmc.Ltl.atom eq3))).verdict with
  | Bmc.Ltl.Bounded_pass _ -> ()
  | _ -> Alcotest.fail "XXX eq3 must hold on the deterministic counter");
  match (check nl (x 2 (Bmc.Ltl.atom eq3))).verdict with
  | Bmc.Ltl.Falsified _ -> ()
  | _ -> Alcotest.fail "XX eq3 must fail"

let test_release_semantics () =
  (* false R p  =  G p; check the two agree on a failing case *)
  let c = Circuit.Generators.counter ~bits:3 ~target:4 () in
  let g = check c.netlist (Bmc.Ltl.always (Bmc.Ltl.atom c.property)) in
  let r =
    check c.netlist
      (Bmc.Ltl.release (Bmc.Ltl.not_ (Bmc.Ltl.atom c.property)) (Bmc.Ltl.atom c.property))
  in
  match (g.verdict, r.verdict) with
  | Bmc.Ltl.Falsified a, Bmc.Ltl.Falsified b ->
    Alcotest.(check int) "same depth" a.Bmc.Ltl.depth b.Bmc.Ltl.depth
  | _, _ -> Alcotest.fail "both must be falsified"

let test_duality_laws () =
  (* ¬F¬p = G p at the constructor level: both run identically *)
  let c = Circuit.Generators.ring ~len:4 () in
  let p = Bmc.Ltl.atom c.property in
  let direct = check c.netlist (Bmc.Ltl.always p) in
  let dual = check c.netlist (Bmc.Ltl.not_ (Bmc.Ltl.eventually (Bmc.Ltl.not_ p))) in
  let same =
    match (direct.verdict, dual.verdict) with
    | Bmc.Ltl.Bounded_pass a, Bmc.Ltl.Bounded_pass b -> a = b
    | Bmc.Ltl.Falsified a, Bmc.Ltl.Falsified b -> a.Bmc.Ltl.depth = b.Bmc.Ltl.depth
    | _, _ -> false
  in
  Alcotest.(check bool) "G p = ¬F¬p" true same

let test_pp () =
  let c = Circuit.Generators.ring ~len:3 () in
  let t0 = signal c.netlist "t0" in
  let s =
    Format.asprintf "%a"
      (Bmc.Ltl.pp ~netlist:c.netlist ())
      Bmc.Ltl.(always (eventually (atom t0)))
  in
  Alcotest.(check string) "pretty form" "G F t0" s

let test_invalid_atom_rejected () =
  let c = Circuit.Generators.ring ~len:3 () in
  match check c.netlist (Bmc.Ltl.atom 99_999) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of a foreign atom"

(* The concrete-lasso evaluator agrees with cycle-accurate intuition. *)
let test_holds_on_lasso_directly () =
  let c = Circuit.Generators.counter_en ~bits:3 ~target:5 () in
  let nl = c.netlist in
  let en = signal nl "en" in
  let eq5 = Circuit.Netlist.not_ nl c.property in
  let init = List.map (fun r -> (r, false)) (Circuit.Netlist.regs nl) in
  (* lasso of length 0 with en low: F eq5 is false, G !eq5 is true *)
  let inputs = [| [ (en, false) ] |] in
  Alcotest.(check bool) "F eq5 false on idle lasso" false
    (Bmc.Ltl.holds_on_lasso nl
       Bmc.Ltl.(eventually (atom eq5))
       ~init ~inputs ~loop_start:(Some 0));
  Alcotest.(check bool) "G !eq5 true on idle lasso" true
    (Bmc.Ltl.holds_on_lasso nl
       Bmc.Ltl.(always (not_ (atom eq5)))
       ~init ~inputs ~loop_start:(Some 0));
  (* without the loop, G cannot be witnessed (pessimistic semantics) *)
  Alcotest.(check bool) "G pessimistic without loop" false
    (Bmc.Ltl.holds_on_lasso nl
       Bmc.Ltl.(always (not_ (atom eq5)))
       ~init ~inputs ~loop_start:None)

(* Randomised: every falsification's witness is independently validated by
   construction (Ltl.check raises on a bad witness), so it is enough to
   drive random formulas through and require clean termination plus sane
   verdict shapes. *)
let random_formula_gen nl pool =
  let open QCheck.Gen in
  let atom_gen = map (fun i -> Bmc.Ltl.atom (List.nth pool i)) (0 -- (List.length pool - 1)) in
  let rec go depth =
    if depth = 0 then atom_gen
    else
      frequency
        [
          (2, atom_gen);
          (1, map Bmc.Ltl.not_ (go (depth - 1)));
          (1, map2 Bmc.Ltl.and_ (go (depth - 1)) (go (depth - 1)));
          (1, map2 Bmc.Ltl.or_ (go (depth - 1)) (go (depth - 1)));
          (1, map Bmc.Ltl.next (go (depth - 1)));
          (1, map Bmc.Ltl.eventually (go (depth - 1)));
          (1, map Bmc.Ltl.always (go (depth - 1)));
          (1, map2 Bmc.Ltl.until (go (depth - 1)) (go (depth - 1)));
        ]
  in
  ignore nl;
  go 3

let prop_random_formulas_terminate_cleanly =
  let case = Circuit.Generators.ring ~len:3 () in
  let pool =
    [ case.property ]
    @ List.filter_map (fun n -> Circuit.Netlist.find case.netlist n) [ "t0"; "t1"; "tick" ]
  in
  QCheck.Test.make ~name:"random LTL formulas check cleanly (witnesses self-validate)"
    ~count:60
    (QCheck.make (random_formula_gen case.netlist pool))
    (fun f ->
      match (check ~max_depth:6 case.netlist f).verdict with
      | Bmc.Ltl.Falsified w -> w.Bmc.Ltl.depth <= 6
      | Bmc.Ltl.Bounded_pass k -> k = 6
      | Bmc.Ltl.Aborted _ -> false)

let test_parse_roundtrip () =
  let c = Circuit.Generators.ring ~len:3 () in
  let nl = c.netlist in
  List.iter
    (fun (text, expected_pp) ->
      let f = Bmc.Ltl.parse nl text in
      Alcotest.(check string) text expected_pp (Format.asprintf "%a" (Bmc.Ltl.pp ~netlist:nl ()) f))
    [
      ("G F t0", "G F t0");
      ("t0 U tick", "(t0 U tick)");
      ("!t0 & t1 | tick", "((!t0 & t1) | tick)");
      ("t0 -> t1 -> tick", "(!t0 | (!t1 | tick))");
      ("G (tick -> X t1)", "G (!tick | X t1)");
      ("true U t0", "F t0");
      ("false R t0", "G t0");
      ("( t0 )", "t0");
    ]

let test_parse_errors () =
  let c = Circuit.Generators.ring ~len:3 () in
  let expect_err text =
    match Bmc.Ltl.parse c.netlist text with
    | exception Bmc.Ltl.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected Parse_error on %S" text
  in
  expect_err "";
  expect_err "G";
  expect_err "nosuchsignal";
  expect_err "t0 &";
  expect_err "(t0";
  expect_err "t0 t1";
  expect_err "t0 -"

let test_parsed_formula_checks () =
  let c = Circuit.Generators.ring ~len:4 () in
  let f = Bmc.Ltl.parse c.netlist "G (t1 -> F t0)" in
  match (check c.netlist f).verdict with
  | Bmc.Ltl.Falsified w -> Alcotest.(check bool) "lasso" true (w.loop_start <> None)
  | _ -> Alcotest.fail "the un-fair ring must falsify the response property"

let tests =
  [
    Alcotest.test_case "G atom = invariant BMC" `Slow test_g_atom_equals_invariant_bmc;
    Alcotest.test_case "F needs lasso" `Quick test_eventually_needs_lasso;
    Alcotest.test_case "fairness implication" `Quick test_fairness_implication_holds;
    Alcotest.test_case "until witness" `Quick test_until_witness;
    Alcotest.test_case "next chain" `Quick test_next_chain;
    Alcotest.test_case "release semantics" `Quick test_release_semantics;
    Alcotest.test_case "duality" `Quick test_duality_laws;
    Alcotest.test_case "pp" `Quick test_pp;
    Alcotest.test_case "invalid atom" `Quick test_invalid_atom_rejected;
    Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parsed formula checks" `Quick test_parsed_formula_checks;
    Alcotest.test_case "holds_on_lasso" `Quick test_holds_on_lasso_directly;
    QCheck_alcotest.to_alcotest prop_random_formulas_terminate_cleanly;
  ]
