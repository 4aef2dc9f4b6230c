(* Depth-boundary inprocessing: outcome preservation, proof exactness,
   model reconstruction, and the engine's identical-script invariant.

   Inprocessing is a performance device — it must be semantically
   invisible.  The tests here run every persistent-session engine twice,
   inprocessing off and on with an aggressive budget (so elimination and
   strengthening actually fire on tiny circuits), and demand identical
   verdicts; and at the solver level they demand that refutations found
   after an inprocessing pass still certify against the *original* formula
   and that SAT models still evaluate it to true. *)

let lit (v, s) = Sat.Lit.make v s

let mk_cnf ?(num_vars = 0) clauses =
  let f = Sat.Cnf.create ~num_vars () in
  List.iter (fun c -> Sat.Cnf.add_clause f (List.map lit c)) clauses;
  f

let brute cnf =
  let n = Sat.Cnf.num_vars cnf in
  let a = Array.make (max n 1) false in
  let rec go i =
    if i = n then Sat.Cnf.eval cnf (fun v -> a.(v))
    else
      (a.(i) <- false;
       go (i + 1))
      ||
      (a.(i) <- true;
       go (i + 1))
  in
  go 0

(* a deterministic budget that fires on small inputs: no occurrence cap to
   speak of, generous probing, no wall-clock slice (reproducibility) *)
let eager = Sat.Inprocess.aggressive

(* ------------------------------------------------------------------ *)
(* Budget parsing.                                                     *)
(* ------------------------------------------------------------------ *)

let test_config_of_string () =
  (match Sat.Inprocess.config_of_string "default" with
  | Ok c -> Alcotest.(check int) "default occ" Sat.Inprocess.default.max_occurrences c.max_occurrences
  | Error e -> Alcotest.fail e);
  (match Sat.Inprocess.config_of_string "occ=16,probes=256,rounds=1" with
  | Ok c ->
    Alcotest.(check int) "occ" 16 c.max_occurrences;
    Alcotest.(check int) "probes" 256 c.max_probes;
    Alcotest.(check int) "rounds" 1 c.rounds
  | Error e -> Alcotest.fail e);
  (match Sat.Inprocess.config_of_string "ms=0" with
  | Ok c -> Alcotest.(check bool) "ms=0 disables the slice" true (c.time_slice = None)
  | Error e -> Alcotest.fail e);
  match Sat.Inprocess.config_of_string "bogus=1" with
  | Ok _ -> Alcotest.fail "accepted an unknown key"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Solver level: random CNF.                                           *)
(* ------------------------------------------------------------------ *)

let clause_gen nv =
  let open QCheck.Gen in
  list_size (1 -- 4) (pair (0 -- (nv - 1)) bool)

let formula_gen =
  let open QCheck.Gen in
  (1 -- 8) >>= fun nv -> pair (return nv) (list_size (0 -- 25) (clause_gen nv))

let prop_solver_outcome_preserved =
  QCheck.Test.make ~name:"inprocess: solver outcome matches brute force" ~count:400
    (QCheck.make formula_gen) (fun (nv, cls) ->
      let cnf = mk_cnf ~num_vars:nv cls in
      let s = Sat.Solver.create cnf in
      ignore (Sat.Solver.inprocess ~config:eager s);
      match Sat.Solver.solve s with
      | Sat.Solver.Sat -> brute cnf
      | Sat.Solver.Unsat -> not (brute cnf)
      | Sat.Solver.Unknown -> false)

let prop_models_reconstruct =
  QCheck.Test.make ~name:"inprocess: models satisfy the original formula" ~count:400
    (QCheck.make formula_gen) (fun (nv, cls) ->
      let cnf = mk_cnf ~num_vars:nv cls in
      let s = Sat.Solver.create cnf in
      ignore (Sat.Solver.inprocess ~config:eager s);
      match Sat.Solver.solve s with
      | Sat.Solver.Sat ->
        (* the model is reconstructed over the elimination stack; it must
           satisfy the formula as given, eliminated variables included *)
        let m = Sat.Solver.model s in
        Sat.Cnf.eval cnf (fun v -> m.(v))
      | Sat.Solver.Unsat -> not (brute cnf)
      | Sat.Solver.Unknown -> false)

let prop_frozen_assumptions_sound =
  QCheck.Test.make ~name:"inprocess: frozen assumption variables keep answers exact"
    ~count:300
    (QCheck.make QCheck.Gen.(pair formula_gen (list_size (1 -- 3) (pair (0 -- 7) bool))))
    (fun ((nv, cls), assumed) ->
      let cnf = mk_cnf ~num_vars:nv cls in
      let assumptions =
        List.filter_map
          (fun (v, sign) -> if v < nv then Some (Sat.Lit.make v sign) else None)
          assumed
      in
      let reference =
        Sat.Solver.solve ~assumptions (Sat.Solver.create cnf)
      in
      let s = Sat.Solver.create cnf in
      List.iter (fun l -> Sat.Solver.freeze s (Sat.Lit.var l)) assumptions;
      ignore (Sat.Solver.inprocess ~config:eager s);
      let outcome = Sat.Solver.solve ~assumptions s in
      Sat.Solver.outcome_string outcome = Sat.Solver.outcome_string reference)

let prop_proofs_stay_exact =
  QCheck.Test.make
    ~name:"inprocess: refutations certify and cores refer to original clauses" ~count:150
    (QCheck.make formula_gen) (fun (nv, cls) ->
      let cnf = mk_cnf ~num_vars:nv cls in
      let s = Sat.Solver.create ~with_proof:true ~with_drat:true cnf in
      ignore (Sat.Solver.inprocess ~config:eager s);
      match Sat.Solver.solve s with
      | Sat.Solver.Sat -> brute cnf
      | Sat.Solver.Unknown -> false
      | Sat.Solver.Unsat ->
        (not (brute cnf))
        (* the DRAT log includes every inprocessing derivation, so the
           independent checker replays it against the input formula *)
        && Sat.Checker.check_refutation cnf (Sat.Solver.drat_events s) = Ok ()
        && (* the core cites original clause ids only *)
        List.for_all
          (fun id -> id >= 0 && id < Sat.Cnf.num_clauses cnf)
          (Sat.Solver.unsat_core s))

(* ------------------------------------------------------------------ *)
(* Engine level: the identical-script oracle.                          *)
(* ------------------------------------------------------------------ *)

let as_reference : Sat.Inprocess.action -> Inprocess_ref.action = function
  | Sat.Inprocess.Delete i -> Inprocess_ref.Delete i
  | Sat.Inprocess.Strengthen { target; parent; lits; id } ->
    Inprocess_ref.Strengthen { target; parent; lits = Array.to_list lits; id }
  | Sat.Inprocess.Resolvent { pos; neg; lits; id; pivot } ->
    Inprocess_ref.Resolvent { pos; neg; lits = Array.to_list lits; id; pivot }
  | Sat.Inprocess.Eliminate { v; pos } ->
    Inprocess_ref.Eliminate { v; pos = List.map Array.to_list pos }

(* A random engine input: clauses (empty, with duplicate literals and,
   now and then, long ones included; never a tautology, the engine's input
   contract) with their deletable / redundant flags, a frozen set, a
   level-0 value per variable (so some literals are false and some clauses
   satisfied), and one of the three presets. *)
let engine_case_gen =
  let open QCheck.Gen in
  let* nv = 1 -- 12 in
  (* every occurrence of a variable takes the sign of its first one *)
  let untautological lits = List.map (fun (v, _) -> (v, List.assoc v lits)) lits in
  let clause =
    triple
      (map untautological
         (list_size (frequency [ (19, 0 -- 5); (1, 6 -- 24) ]) (pair (0 -- (nv - 1)) bool)))
      (frequency [ (6, return true); (1, return false) ])
      (frequency [ (3, return false); (1, return true) ])
  in
  let* clauses = list_size (0 -- 50) clause in
  let* frozen = array_repeat nv (frequency [ (4, return false); (1, return true) ]) in
  let* values = array_repeat nv (frequency [ (6, return (-1)); (1, return 0); (1, return 1) ]) in
  let* preset = oneofl [ "default"; "light"; "aggressive" ] in
  return (nv, clauses, frozen, values, preset)

let print_engine_case (nv, clauses, frozen, values, preset) =
  let lit (v, s) = if s then string_of_int (v + 1) else "-" ^ string_of_int (v + 1) in
  Printf.sprintf "preset %s, %d vars, frozen [%s], values [%s]\n%s" preset nv
    (String.concat " " (List.map string_of_bool (Array.to_list frozen)))
    (String.concat " " (List.map string_of_int (Array.to_list values)))
    (String.concat "\n"
       (List.map
          (fun (lits, deletable, redundant) ->
            Printf.sprintf "%s%s%s" (String.concat " " (List.map lit lits))
              (if deletable then "" else " (locked)")
              (if redundant then " (redundant)" else ""))
          clauses))

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"inprocess: engine script and stats equal the reference's"
    ~count:1000
    (QCheck.make ~print:print_engine_case engine_case_gen)
    (fun (nv, clauses, frozen, values, preset) ->
      let config = Result.get_ok (Sat.Inprocess.config_of_string preset) in
      let value l =
        match values.(Sat.Lit.var l) with
        | -1 -> -1
        | a -> if Sat.Lit.is_pos l then a else 1 - a
      in
      let frozen v = frozen.(v) in
      let run simplify make =
        let stats = Sat.Inprocess.fresh_stats () in
        let inputs =
          Array.of_list
            (List.map
               (fun (lits, deletable, redundant) -> make (List.map lit lits) deletable redundant)
               clauses)
        in
        (simplify config stats ~num_vars:nv ~frozen ~value ~deadline:None inputs, stats)
      in
      let expected, expected_stats =
        run Inprocess_ref.simplify (fun lits deletable redundant ->
            { Inprocess_ref.lits; deletable; redundant })
      in
      let got, got_stats =
        run Sat.Inprocess.simplify (fun lits deletable redundant ->
            { Sat.Inprocess.lits = Array.of_list lits; deletable; redundant })
      in
      List.map as_reference got = expected && got_stats = expected_stats)

(* ------------------------------------------------------------------ *)
(* Hand-made cases: the engine's script on small inputs, and the       *)
(* satcheck --preprocess call (Solver.inprocess, default budget).      *)
(* ------------------------------------------------------------------ *)

let pp_lits ppf lits =
  Format.pp_print_list ~pp_sep:Format.pp_print_space Sat.Lit.pp ppf (Array.to_list lits)

let pp_action ppf = function
  | Sat.Inprocess.Delete i -> Format.fprintf ppf "Delete %d" i
  | Sat.Inprocess.Strengthen { target; parent; lits; id } ->
    Format.fprintf ppf "Strengthen %d by %d -> %d [%a]" target parent id pp_lits lits
  | Sat.Inprocess.Resolvent { pos; neg; lits; id; pivot } ->
    Format.fprintf ppf "Resolvent %d x %d on %d -> %d [%a]" pos neg pivot id pp_lits lits
  | Sat.Inprocess.Eliminate { v; pos } ->
    Format.fprintf ppf "Eliminate %d {%a}" v
      (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun ppf c ->
           Format.fprintf ppf "[%a]" pp_lits c))
      pos

let script = Alcotest.(list (testable pp_action ( = )))

(* The engine over irredundant, deletable clauses with nothing assigned. *)
let engine ?(frozen = []) ~num_vars clauses =
  let stats = Sat.Inprocess.fresh_stats () in
  let inputs =
    Array.of_list
      (List.map
         (fun c ->
           { Sat.Inprocess.lits = Array.of_list (List.map lit c); deletable = true;
             redundant = false })
         clauses)
  in
  let actions =
    Sat.Inprocess.simplify Sat.Inprocess.default stats ~num_vars
      ~frozen:(fun v -> List.mem v frozen)
      ~value:(fun _ -> -1)
      ~deadline:None inputs
  in
  (actions, stats)

let lits l = Array.of_list (List.map lit l)

(* Solve after the --preprocess pass; the model must satisfy [cnf] itself. *)
let solve_preprocessed ?(frozen = []) ?(assumptions = []) cnf =
  let s = Sat.Solver.create cnf in
  List.iter (Sat.Solver.freeze s) frozen;
  let stats = Sat.Solver.inprocess ~config:Sat.Inprocess.default s in
  let outcome = Sat.Solver.solve ~assumptions s in
  (match outcome with
  | Sat.Solver.Sat ->
    let m = Sat.Solver.model s in
    Alcotest.(check bool) "the model satisfies the original formula" true
      (Sat.Cnf.eval cnf (fun v -> m.(v)))
  | Sat.Solver.Unsat | Sat.Solver.Unknown -> ());
  (outcome, stats, s)

let test_subsumption () =
  (* (x0) subsumes (x0 ∨ x1) *)
  let actions, stats =
    engine ~num_vars:2 ~frozen:[ 0; 1 ] [ [ (0, true) ]; [ (0, true); (1, true) ] ]
  in
  Alcotest.check script "script" [ Sat.Inprocess.Delete 1 ] actions;
  Alcotest.(check int) "subsumed" 1 stats.subsumed

let test_self_subsumption () =
  (* (x0 ∨ x1) with (¬x0 ∨ x1) strengthens the second to (x1), which then
     subsumes the first in the next round *)
  let clauses = [ [ (0, true); (1, true) ]; [ (0, false); (1, true) ] ] in
  let actions, stats = engine ~num_vars:2 ~frozen:[ 0; 1 ] clauses in
  Alcotest.check script "script"
    [
      Sat.Inprocess.Strengthen { target = 1; parent = 0; lits = lits [ (1, true) ]; id = 2 };
      Sat.Inprocess.Delete 0;
    ]
    actions;
  Alcotest.(check int) "strengthened" 1 stats.strengthened;
  let outcome, _, _ = solve_preprocessed (mk_cnf clauses) in
  Alcotest.(check string) "still satisfiable" "sat" (Sat.Solver.outcome_string outcome)

let test_variable_elimination () =
  (* x1 occurs once positively, once negatively: eliminated by resolution,
     the resolvent derived before its parents are deleted *)
  let actions, stats =
    engine ~num_vars:3 ~frozen:[ 0; 2 ] [ [ (0, true); (1, true) ]; [ (1, false); (2, true) ] ]
  in
  Alcotest.check script "script"
    [
      Sat.Inprocess.Resolvent
        { pos = 0; neg = 1; lits = lits [ (0, true); (2, true) ]; id = 2; pivot = 1 };
      Sat.Inprocess.Eliminate { v = 1; pos = [ lits [ (0, true); (1, true) ] ] };
      Sat.Inprocess.Delete 0;
      Sat.Inprocess.Delete 1;
    ]
    actions;
  Alcotest.(check int) "eliminated" 1 stats.eliminated

let test_unsat_preserved () =
  let cnf = mk_cnf [ [ (0, true) ]; [ (0, false); (1, true) ]; [ (1, false) ] ] in
  let outcome, _, _ = solve_preprocessed cnf in
  Alcotest.(check string) "still unsat" "unsat" (Sat.Solver.outcome_string outcome)

let test_tautologies_dropped () =
  (* the only resolvent on x1, (x0 ∨ ¬x0), is a tautology: x1 goes with
     nothing derived *)
  let actions, stats =
    engine ~num_vars:2 ~frozen:[ 0 ] [ [ (0, true); (1, true) ]; [ (0, false); (1, false) ] ]
  in
  Alcotest.check script "script"
    [
      Sat.Inprocess.Eliminate { v = 1; pos = [ lits [ (0, true); (1, true) ] ] };
      Sat.Inprocess.Delete 0;
      Sat.Inprocess.Delete 1;
    ]
    actions;
  Alcotest.(check int) "no resolvent" 0 stats.resolvents;
  Alcotest.check_raises "a tautological input is rejected"
    (Invalid_argument "Inprocess.simplify: tautological clause") (fun () ->
      ignore (engine ~num_vars:1 [ [ (0, true); (0, false) ] ]));
  let outcome, _, _ = solve_preprocessed (mk_cnf [ [ (0, true); (0, false) ]; [ (1, true) ] ]) in
  Alcotest.(check string) "satisfiable" "sat" (Sat.Solver.outcome_string outcome)

let test_empty_formula () =
  (* with no clauses every variable is vacuously eliminable *)
  let actions, _ = engine ~num_vars:3 [] in
  Alcotest.check script "only empty eliminations"
    (List.init 3 (fun v -> Sat.Inprocess.Eliminate { v; pos = [] }))
    actions;
  let outcome, _, s = solve_preprocessed (Sat.Cnf.create ~num_vars:3 ()) in
  Alcotest.(check string) "satisfiable" "sat" (Sat.Solver.outcome_string outcome);
  Alcotest.(check int) "model width" 3 (Array.length (Sat.Solver.model s))

let test_reconstruction_on_chain () =
  (* an implication chain, once forced by a unit and once free: elimination
     must not lose the forcing, and reconstruction must extend the model
     over every eliminated link *)
  let n = 8 in
  let chain = List.init (n - 1) (fun i -> [ (i, false); (i + 1, true) ]) in
  List.iter
    (fun clauses ->
      let outcome, _, _ = solve_preprocessed (mk_cnf clauses) in
      Alcotest.(check string) "satisfiable" "sat" (Sat.Solver.outcome_string outcome))
    [ [ (0, true) ] :: chain; chain ];
  let _, stats, _ = solve_preprocessed (mk_cnf chain) in
  Alcotest.(check bool) "links eliminated" true (stats.eliminated >= 1)

let test_frozen_vars_survive () =
  (* x1 is eliminable (one positive, one negative occurrence) but frozen:
     it must keep occurring, so assuming it later still constrains the
     simplified formula — the satcheck --preprocess --assume contract *)
  let cnf = mk_cnf [ [ (0, true); (1, true) ]; [ (1, false); (2, true) ] ] in
  let outcome, _, _ =
    solve_preprocessed ~frozen:[ 1; 2 ] ~assumptions:[ lit (1, true); lit (2, false) ] cnf
  in
  Alcotest.(check string) "x1 forces x2 after preprocessing" "unsat"
    (Sat.Solver.outcome_string outcome);
  (* and without freezing, the same assumptions would be vacuous *)
  let _, stats, _ = solve_preprocessed cnf in
  Alcotest.(check bool) "control: x1 eliminable when melted" true (stats.eliminated >= 1)

(* The formula the engine's script leaves behind: the input clauses under
   ids [0 .. n-1] and the derived ones under their script ids, minus every
   deleted one. *)
let replay ~num_vars clauses actions =
  let live = Hashtbl.create 16 in
  List.iteri (fun i c -> Hashtbl.replace live i (List.map lit c)) clauses;
  List.iter
    (function
      | Sat.Inprocess.Delete i -> Hashtbl.remove live i
      | Sat.Inprocess.Strengthen { target; lits; id; _ } ->
        Hashtbl.replace live id (Array.to_list lits);
        Hashtbl.remove live target
      | Sat.Inprocess.Resolvent { lits; id; _ } -> Hashtbl.replace live id (Array.to_list lits)
      | Sat.Inprocess.Eliminate _ -> ())
    actions;
  let f = Sat.Cnf.create ~num_vars () in
  Hashtbl.iter (fun _ c -> Sat.Cnf.add_clause f c) live;
  f

(* Tautology-free and duplicate-free, as the solver loads clauses: the
   engine's input contract. *)
let as_loaded cls =
  List.filter_map (fun c -> Sat.Cnf.normalize_clause (List.map lit c)) cls
  |> List.map (List.map (fun l -> (Sat.Lit.var l, Sat.Lit.is_pos l)))

let print_formula = QCheck.Print.(pair int (list (list (pair int bool))))

let prop_script_equisatisfiable =
  QCheck.Test.make ~name:"preprocessing is equisatisfiable" ~count:400
    (QCheck.make ~print:print_formula formula_gen) (fun (nv, cls) ->
      let loaded = as_loaded cls in
      let actions, _ = engine ~num_vars:nv loaded in
      brute (mk_cnf ~num_vars:nv cls) = brute (replay ~num_vars:nv loaded actions))

let prop_preprocessed_models_reconstruct =
  QCheck.Test.make ~name:"reconstructed models satisfy the original" ~count:400
    (QCheck.make ~print:print_formula formula_gen) (fun (nv, cls) ->
      let cnf = mk_cnf ~num_vars:nv cls in
      (* solve_preprocessed fails the case unless a SAT model, extended over
         the eliminated variables, satisfies [cnf] *)
      match solve_preprocessed cnf with
      | Sat.Solver.Sat, _, _ -> true
      | Sat.Solver.Unsat, _, _ -> not (brute cnf)
      | Sat.Solver.Unknown, _, _ -> false)

let prop_script_never_grows =
  QCheck.Test.make ~name:"preprocessing never grows the clause count" ~count:200
    (QCheck.make ~print:print_formula formula_gen) (fun (nv, cls) ->
      let actions, _ = engine ~num_vars:nv (as_loaded cls) in
      let count p = List.length (List.filter p actions) in
      count (function Sat.Inprocess.Resolvent _ -> true | _ -> false)
      <= count (function Sat.Inprocess.Delete _ -> true | _ -> false))

(* ------------------------------------------------------------------ *)
(* Engine level: random circuits, inprocessing on ≡ off.               *)
(* ------------------------------------------------------------------ *)

let random_case_gen =
  let open QCheck.Gen in
  let* seed = 0 -- 100_000 in
  let* regs = 1 -- 6 in
  let* gates = 1 -- 25 in
  let* inputs = 0 -- 3 in
  return (Circuit.Generators.random ~seed ~regs ~gates ~inputs)

let arb =
  QCheck.make ~print:(fun (c : Circuit.Generators.case) -> c.name) random_case_gen

let config ?inprocess () =
  Bmc.Session.make_config ~mode:Bmc.Session.Dynamic ~max_depth:8 ?inprocess ()

let same_verdict a b =
  match (a, b) with
  | Bmc.Session.Falsified t, Bmc.Session.Falsified t' -> t.Bmc.Trace.depth = t'.Bmc.Trace.depth
  | Bmc.Session.Bounded_pass k, Bmc.Session.Bounded_pass k' -> k = k'
  | Bmc.Session.Aborted k, Bmc.Session.Aborted k' -> k = k'
  | ( ( Bmc.Session.Falsified _ | Bmc.Session.Bounded_pass _ | Bmc.Session.Aborted _ ),
      _ ) ->
    false

let prop_incremental_on_off =
  QCheck.Test.make ~name:"inprocess: incremental BMC verdicts unchanged" ~count:60 arb
    (fun case ->
      let off =
        Bmc.Session.check ~config:(config ()) ~policy:Bmc.Session.Persistent case.netlist
          ~property:case.property
      in
      let on =
        Bmc.Session.check
          ~config:(config ~inprocess:eager ())
          ~policy:Bmc.Session.Persistent case.netlist ~property:case.property
      in
      same_verdict off.verdict on.verdict)

let prop_induction_on_off =
  QCheck.Test.make ~name:"inprocess: induction verdicts unchanged" ~count:40 arb (fun case ->
      let prove cfg =
        (Bmc.Induction.prove ~config:cfg ~policy:Bmc.Session.Persistent ~simple_path:true
           case.netlist ~property:case.property)
          .verdict
      in
      match (prove (config ()), prove (config ~inprocess:eager ())) with
      | Bmc.Induction.Proved k, Bmc.Induction.Proved k' -> k = k'
      | Bmc.Induction.Falsified t, Bmc.Induction.Falsified t' ->
        t.Bmc.Trace.depth = t'.Bmc.Trace.depth
      | Bmc.Induction.Unknown k, Bmc.Induction.Unknown k' -> k = k'
      | ( ( Bmc.Induction.Proved _ | Bmc.Induction.Falsified _ | Bmc.Induction.Unknown _ ),
          _ ) ->
        false)

let prop_ltl_on_off =
  QCheck.Test.make ~name:"inprocess: LTL verdicts unchanged" ~count:40 arb (fun case ->
      let formula = Bmc.Ltl.eventually (Bmc.Ltl.atom case.property) in
      let check cfg = (Bmc.Ltl.check ~config:cfg case.netlist formula).verdict in
      match (check (config ()), check (config ~inprocess:eager ())) with
      | Bmc.Ltl.Falsified w, Bmc.Ltl.Falsified w' ->
        (* the lasso's loop start is whichever one the solver's model
           picked, so only the depth is compared; [Ltl.check] re-validates
           each witness on the concrete lasso and raises if one fails *)
        w.Bmc.Ltl.depth = w'.Bmc.Ltl.depth
      | Bmc.Ltl.Bounded_pass k, Bmc.Ltl.Bounded_pass k' -> k = k'
      | Bmc.Ltl.Aborted k, Bmc.Ltl.Aborted k' -> k = k'
      | ((Bmc.Ltl.Falsified _ | Bmc.Ltl.Bounded_pass _ | Bmc.Ltl.Aborted _), _) -> false)

let prop_session_cores_still_exact =
  QCheck.Test.make
    ~name:"inprocess: session UNSAT cores still index the loaded groups" ~count:40 arb
    (fun case ->
      (* the engine consumes each UNSAT core to rebuild its ordering; a
         stale or out-of-range group id after elimination would poison the
         ranking or raise.  Run with proofs on and let the engine's own
         core consumption exercise the path; verdict equality is asserted
         by the on/off properties above, here we only require no raise. *)
      let (_ : Bmc.Session.result) =
        Bmc.Session.check
          ~config:(config ~inprocess:eager ())
          ~policy:Bmc.Session.Persistent case.netlist ~property:case.property
      in
      true)

let tests =
  [
    Alcotest.test_case "budget parsing" `Quick test_config_of_string;
    QCheck_alcotest.to_alcotest prop_engine_matches_reference;
    QCheck_alcotest.to_alcotest prop_solver_outcome_preserved;
    QCheck_alcotest.to_alcotest prop_models_reconstruct;
    QCheck_alcotest.to_alcotest prop_frozen_assumptions_sound;
    QCheck_alcotest.to_alcotest prop_proofs_stay_exact;
    QCheck_alcotest.to_alcotest prop_incremental_on_off;
    QCheck_alcotest.to_alcotest prop_induction_on_off;
    QCheck_alcotest.to_alcotest prop_ltl_on_off;
    QCheck_alcotest.to_alcotest prop_session_cores_still_exact;
  ]

(* The hand-made cases and the default-budget properties above run under
   the "simplify" suite name: they pin the simplification engine's scripts
   and the --preprocess call. *)
let simplify_tests =
  [
    Alcotest.test_case "subsumption" `Quick test_subsumption;
    Alcotest.test_case "self-subsumption" `Quick test_self_subsumption;
    Alcotest.test_case "variable elimination" `Quick test_variable_elimination;
    Alcotest.test_case "unsat preserved" `Quick test_unsat_preserved;
    Alcotest.test_case "tautologies dropped" `Quick test_tautologies_dropped;
    Alcotest.test_case "empty formula" `Quick test_empty_formula;
    Alcotest.test_case "reconstruction chain" `Quick test_reconstruction_on_chain;
    Alcotest.test_case "frozen variables survive" `Quick test_frozen_vars_survive;
    QCheck_alcotest.to_alcotest prop_script_equisatisfiable;
    QCheck_alcotest.to_alcotest prop_preprocessed_models_reconstruct;
    QCheck_alcotest.to_alcotest prop_script_never_grows;
  ]
