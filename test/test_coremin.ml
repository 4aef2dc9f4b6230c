(* Destructive core minimisation: known candidates, budget behaviour, the
   SAT-candidate escape hatch, QCheck subset/certification properties, and
   the session's Core_minimal pipeline end to end. *)

let lit (v, s) = Sat.Lit.make v s

let mk_cnf ?(num_vars = 0) clauses =
  let f = Sat.Cnf.create ~num_vars () in
  List.iter (fun c -> Sat.Cnf.add_clause f (List.map lit c)) clauses;
  f

(* ------------------------------------------------------------------ *)
(* Known candidates.                                                   *)
(* ------------------------------------------------------------------ *)

(* x0, x0->x1, ~x1 is the real core; the fourth clause is redundant. *)
let chain_with_redundancy =
  [
    (0, [ lit (0, true) ]);
    (1, [ lit (0, false); lit (1, true) ]);
    (2, [ lit (1, false) ]);
    (3, [ lit (0, true); lit (1, true) ]);
  ]

let test_redundant_clause_dropped () =
  let kept, st =
    Sat.Coremin.minimise ~num_vars:2 ~clauses:chain_with_redundancy ()
  in
  Alcotest.(check (list int)) "redundant clause gone" [ 0; 1; 2 ] kept;
  Alcotest.(check int) "initial" 4 st.Sat.Coremin.initial;
  Alcotest.(check int) "final" 3 st.Sat.Coremin.final;
  Alcotest.(check bool) "minimal" true st.Sat.Coremin.minimal;
  Alcotest.(check bool) "certified" true st.Sat.Coremin.certified

let test_sat_candidate_passthrough () =
  (* not a core at all: the caller gets the input back, uncertified *)
  let clauses = [ (5, [ lit (0, true) ]); (9, [ lit (1, true) ]) ] in
  let kept, st = Sat.Coremin.minimise ~num_vars:2 ~clauses () in
  Alcotest.(check (list int)) "input unchanged" [ 5; 9 ] kept;
  Alcotest.(check bool) "not minimal" false st.Sat.Coremin.minimal;
  Alcotest.(check bool) "not certified" false st.Sat.Coremin.certified

let test_assumption_relative_core () =
  (* UNSAT only under the activation literal x2 — the session's shape *)
  let clauses = [ (0, [ lit (2, false); lit (0, true) ]); (1, [ lit (0, false) ]) ] in
  let kept, st =
    Sat.Coremin.minimise ~assumptions:[ lit (2, true) ] ~num_vars:3 ~clauses ()
  in
  Alcotest.(check (list int)) "both clauses necessary" [ 0; 1 ] kept;
  Alcotest.(check bool) "minimal" true st.Sat.Coremin.minimal;
  Alcotest.(check bool) "certified" true st.Sat.Coremin.certified

let test_budget_caps_solves () =
  let budget = { Sat.Coremin.no_budget with Sat.Coremin.max_solves = Some 2 } in
  let kept, st = Sat.Coremin.minimise ~budget ~num_vars:2 ~clauses:chain_with_redundancy () in
  (* the cap bounds the minimisation loop; certification adds one more call *)
  Alcotest.(check bool) "solves bounded" true (st.Sat.Coremin.solves <= 3);
  Alcotest.(check bool) "still certified" true st.Sat.Coremin.certified;
  (* budget or not, the result must still be a correct (UNSAT) core *)
  let lits = List.filter_map (fun (id, c) -> if List.mem id kept then Some c else None)
      chain_with_redundancy
  in
  let cnf = Sat.Cnf.create ~num_vars:2 () in
  List.iter (Sat.Cnf.add_clause cnf) lits;
  match Sat.Solver.solve (Sat.Solver.create cnf) with
  | Sat.Solver.Unsat -> ()
  | o -> Alcotest.failf "kept set not UNSAT: %a" Sat.Solver.pp_outcome o

let test_certify_off () =
  let _, st =
    Sat.Coremin.minimise ~certify:false ~num_vars:2 ~clauses:chain_with_redundancy ()
  in
  Alcotest.(check bool) "uncertified on request" false st.Sat.Coremin.certified;
  Alcotest.(check bool) "still minimal" true st.Sat.Coremin.minimal

(* ------------------------------------------------------------------ *)
(* Properties.                                                         *)
(* ------------------------------------------------------------------ *)

(* An implication chain x0 -> x1 -> ... -> x_{n-1} plus [x0] and [~x_{n-1}]
   is UNSAT; sprinkling random extra clauses on top keeps it UNSAT (clauses
   only ever constrain further), so every generated candidate is a valid —
   and redundant — minimisation input. *)
let candidate_gen =
  let open QCheck.Gen in
  let* n = 2 -- 6 in
  let* extra = 0 -- 8 in
  let* seed = 0 -- 10_000 in
  let rng = Random.State.make [| n; extra; seed |] in
  let chain =
    [ lit (0, true) ]
    :: [ lit (n - 1, false) ]
    :: List.init (n - 1) (fun i -> [ lit (i, false); lit (i + 1, true) ])
  in
  let random_clause () =
    List.init
      (1 + Random.State.int rng 3)
      (fun _ -> lit (Random.State.int rng n, Random.State.bool rng))
  in
  let clauses = chain @ List.init extra (fun _ -> random_clause ()) in
  return (n, List.mapi (fun i c -> (i, c)) clauses)

let arb_candidate =
  QCheck.make
    ~print:(fun (n, cs) -> Printf.sprintf "%d vars, %d clauses" n (List.length cs))
    candidate_gen

let prop_minimised_subset_and_certified =
  QCheck.Test.make ~name:"minimised core: subset of input, certified, still UNSAT" ~count:60
    arb_candidate (fun (n, clauses) ->
      let kept, st = Sat.Coremin.minimise ~num_vars:n ~clauses () in
      let ids = List.map fst clauses in
      List.for_all (fun id -> List.mem id ids) kept
      && st.Sat.Coremin.certified && st.Sat.Coremin.minimal
      && st.Sat.Coremin.final = List.length kept
      && st.Sat.Coremin.final <= st.Sat.Coremin.initial
      &&
      let cnf = Sat.Cnf.create ~num_vars:n () in
      List.iter (fun (id, c) -> if List.mem id kept then Sat.Cnf.add_clause cnf c) clauses;
      Sat.Solver.solve (Sat.Solver.create cnf) = Sat.Solver.Unsat)

let prop_minimisation_idempotent =
  QCheck.Test.make ~name:"minimising a minimal core removes nothing" ~count:30 arb_candidate
    (fun (n, clauses) ->
      let kept, st = Sat.Coremin.minimise ~num_vars:n ~clauses () in
      (not st.Sat.Coremin.minimal)
      ||
      let again, st2 =
        Sat.Coremin.minimise ~num_vars:n
          ~clauses:(List.filter (fun (id, _) -> List.mem id kept) clauses)
          ()
      in
      again = kept && st2.Sat.Coremin.minimal)

(* ------------------------------------------------------------------ *)
(* Session pipeline.                                                   *)
(* ------------------------------------------------------------------ *)

(* The session's [Core_minimal] pipeline end to end: every UNSAT depth's
   reported core is no larger than the proof-derived one and carries the
   checker's certificate. *)
let test_session_core_minimal_shrinks_and_certifies () =
  let case = Circuit.Generators.ring ~len:5 () in
  let depth = 5 in
  let config =
    Bmc.Session.make_config ~mode:Bmc.Session.Static ~max_depth:depth ~collect_cores:true
      ~core_mode:Bmc.Session.Core_minimal ()
  in
  let s =
    Bmc.Session.create ~policy:Bmc.Session.Persistent config case.netlist
      ~property:case.property
  in
  let shrank = ref false in
  for k = 0 to depth do
    Bmc.Session.begin_instance s ~k;
    Bmc.Session.constrain s
      [ Sat.Lit.neg (Bmc.Session.var_of s ~node:case.property ~frame:k) ];
    let st = Bmc.Session.solve_instance s in
    match st.Bmc.Session.outcome with
    | Sat.Solver.Unsat ->
      Alcotest.(check bool)
        (Printf.sprintf "depth %d post <= pre" k)
        true
        (st.Bmc.Session.core_size <= st.Bmc.Session.core_pre);
      Alcotest.(check bool)
        (Printf.sprintf "depth %d certified" k)
        true st.Bmc.Session.coremin_certified;
      if st.Bmc.Session.core_size < st.Bmc.Session.core_pre then shrank := true
    | Sat.Solver.Sat | Sat.Solver.Unknown -> ()
  done;
  Alcotest.(check bool) "minimisation shrank at least one depth" true !shrank

let tests =
  [
    Alcotest.test_case "redundant clause dropped" `Quick test_redundant_clause_dropped;
    Alcotest.test_case "SAT candidate passthrough" `Quick test_sat_candidate_passthrough;
    Alcotest.test_case "assumption-relative core" `Quick test_assumption_relative_core;
    Alcotest.test_case "budget caps solves" `Quick test_budget_caps_solves;
    Alcotest.test_case "certify off" `Quick test_certify_off;
    QCheck_alcotest.to_alcotest prop_minimised_subset_and_certified;
    QCheck_alcotest.to_alcotest prop_minimisation_idempotent;
    Alcotest.test_case "session Core_minimal shrinks, certified" `Quick
      test_session_core_minimal_shrinks_and_certifies;
  ]
