(* Decision-ordering heap: VSIDS keys, rank combination, dynamic switch. *)

let always_unassigned _ = true

let mk_cnf clauses =
  let f = Sat.Cnf.create () in
  List.iter (fun c -> Sat.Cnf.add_clause f (List.map (fun (v, s) -> Sat.Lit.make v s) c)) clauses;
  f

let test_init_activity_counts () =
  let cnf = mk_cnf [ [ (0, true); (1, true) ]; [ (0, true); (1, false) ]; [ (0, true) ] ] in
  let o = Sat.Order.create ~num_vars:2 Sat.Order.Vsids in
  Sat.Order.init_activity o (Sat.Cnf.occurrences cnf);
  Alcotest.(check (float 1e-9)) "x0 count" 3.0 (Sat.Order.activity o (Sat.Lit.pos 0));
  Alcotest.(check (float 1e-9)) "x1 count" 1.0 (Sat.Order.activity o (Sat.Lit.pos 1));
  Alcotest.(check (float 1e-9)) "~x1 count" 1.0 (Sat.Order.activity o (Sat.Lit.neg 1))

let test_pop_highest_activity () =
  let cnf = mk_cnf [ [ (0, true) ]; [ (1, false) ]; [ (1, false) ]; [ (2, true) ] ] in
  let o = Sat.Order.create ~num_vars:3 Sat.Order.Vsids in
  Sat.Order.init_activity o (Sat.Cnf.occurrences cnf);
  Sat.Order.rebuild o ~is_unassigned:always_unassigned;
  match Sat.Order.pop_best o ~is_unassigned:always_unassigned with
  | Some l ->
    Alcotest.(check int) "highest count literal is ~x1" 1 (Sat.Lit.var l);
    Alcotest.(check bool) "negative phase" false (Sat.Lit.is_pos l)
  | None -> Alcotest.fail "heap empty"

let test_bump_reorders () =
  let o = Sat.Order.create ~num_vars:3 Sat.Order.Vsids in
  Sat.Order.rebuild o ~is_unassigned:always_unassigned;
  Sat.Order.bump o (Sat.Lit.neg 2);
  Sat.Order.bump o (Sat.Lit.neg 2);
  match Sat.Order.pop_best o ~is_unassigned:always_unassigned with
  | Some l -> Alcotest.(check int) "bumped literal first" 2 (Sat.Lit.var l)
  | None -> Alcotest.fail "heap empty"

let test_halve_preserves_order () =
  let o = Sat.Order.create ~num_vars:3 Sat.Order.Vsids in
  Sat.Order.rebuild o ~is_unassigned:always_unassigned;
  Sat.Order.bump o (Sat.Lit.pos 1);
  Sat.Order.bump o (Sat.Lit.pos 1);
  Sat.Order.bump o (Sat.Lit.pos 0);
  Sat.Order.halve_all o;
  Alcotest.(check (float 1e-9)) "halved" 1.0 (Sat.Order.activity o (Sat.Lit.pos 1));
  match Sat.Order.pop_best o ~is_unassigned:always_unassigned with
  | Some l -> Alcotest.(check int) "order preserved" 1 (Sat.Lit.var l)
  | None -> Alcotest.fail "heap empty"

let test_rank_dominates_activity () =
  let rank = [| 0.0; 5.0; 0.0 |] in
  let o = Sat.Order.create ~num_vars:3 (Sat.Order.Static rank) in
  Sat.Order.rebuild o ~is_unassigned:always_unassigned;
  (* big activity on x0, but x1 has rank 5 *)
  for _ = 1 to 10 do
    Sat.Order.bump o (Sat.Lit.pos 0)
  done;
  match Sat.Order.pop_best o ~is_unassigned:always_unassigned with
  | Some l -> Alcotest.(check int) "ranked var decided first" 1 (Sat.Lit.var l)
  | None -> Alcotest.fail "heap empty"

let test_activity_breaks_rank_ties () =
  let rank = [| 1.0; 1.0 |] in
  let o = Sat.Order.create ~num_vars:2 (Sat.Order.Static rank) in
  Sat.Order.rebuild o ~is_unassigned:always_unassigned;
  Sat.Order.bump o (Sat.Lit.neg 1);
  match Sat.Order.pop_best o ~is_unassigned:always_unassigned with
  | Some l ->
    Alcotest.(check int) "tie broken by activity" 1 (Sat.Lit.var l);
    Alcotest.(check bool) "phase from activity" false (Sat.Lit.is_pos l)
  | None -> Alcotest.fail "heap empty"

let test_switch_to_vsids () =
  let rank = [| 0.0; 9.0 |] in
  let o = Sat.Order.create ~num_vars:2 (Sat.Order.Dynamic rank) in
  Sat.Order.rebuild o ~is_unassigned:always_unassigned;
  Sat.Order.bump o (Sat.Lit.pos 0);
  Alcotest.(check bool) "dynamic" true (Sat.Order.is_dynamic o);
  Alcotest.(check bool) "rank active" true (Sat.Order.mode_uses_rank o);
  (match Sat.Order.pop_best o ~is_unassigned:always_unassigned with
  | Some l -> Alcotest.(check int) "before switch: rank wins" 1 (Sat.Lit.var l)
  | None -> Alcotest.fail "heap empty");
  Sat.Order.rebuild o ~is_unassigned:always_unassigned;
  Sat.Order.switch_to_vsids o;
  Alcotest.(check bool) "rank dropped" false (Sat.Order.mode_uses_rank o);
  match Sat.Order.pop_best o ~is_unassigned:always_unassigned with
  | Some l -> Alcotest.(check int) "after switch: activity wins" 0 (Sat.Lit.var l)
  | None -> Alcotest.fail "heap empty"

let test_pop_skips_assigned () =
  let o = Sat.Order.create ~num_vars:3 Sat.Order.Vsids in
  Sat.Order.rebuild o ~is_unassigned:always_unassigned;
  Sat.Order.bump o (Sat.Lit.pos 2);
  let is_unassigned v = v <> 2 in
  match Sat.Order.pop_best o ~is_unassigned with
  | Some l -> Alcotest.(check bool) "skips var 2" true (Sat.Lit.var l <> 2)
  | None -> Alcotest.fail "heap empty"

let test_on_unassign_reinserts () =
  let o = Sat.Order.create ~num_vars:2 Sat.Order.Vsids in
  Sat.Order.rebuild o ~is_unassigned:always_unassigned;
  (* drain the heap *)
  let rec drain () =
    match Sat.Order.pop_best o ~is_unassigned:always_unassigned with
    | Some _ -> drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check bool) "drained" true
    (Sat.Order.pop_best o ~is_unassigned:always_unassigned = None);
  Sat.Order.on_unassign o 1;
  match Sat.Order.pop_best o ~is_unassigned:always_unassigned with
  | Some l -> Alcotest.(check int) "reinserted" 1 (Sat.Lit.var l)
  | None -> Alcotest.fail "reinsertion failed"

(* Popping everything yields literals in non-increasing key order. *)
let prop_pop_monotone =
  QCheck.Test.make ~name:"pop yields non-increasing activities" ~count:100
    QCheck.(list_of_size Gen.(0 -- 50) (pair (int_bound 9) bool))
    (fun bumps ->
      let o = Sat.Order.create ~num_vars:10 Sat.Order.Vsids in
      Sat.Order.rebuild o ~is_unassigned:always_unassigned;
      List.iter (fun (v, s) -> Sat.Order.bump o (Sat.Lit.make v s)) bumps;
      let rec drain acc =
        match Sat.Order.pop_best o ~is_unassigned:always_unassigned with
        | Some l -> drain (Sat.Order.activity o l :: acc)
        | None -> List.rev acc
      in
      let acts = drain [] in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a >= b && sorted rest
        | [ _ ] | [] -> true
      in
      sorted acts)

let tests =
  [
    Alcotest.test_case "init activity" `Quick test_init_activity_counts;
    Alcotest.test_case "pop highest" `Quick test_pop_highest_activity;
    Alcotest.test_case "bump reorders" `Quick test_bump_reorders;
    Alcotest.test_case "halve preserves order" `Quick test_halve_preserves_order;
    Alcotest.test_case "rank dominates" `Quick test_rank_dominates_activity;
    Alcotest.test_case "activity breaks ties" `Quick test_activity_breaks_rank_ties;
    Alcotest.test_case "dynamic switch" `Quick test_switch_to_vsids;
    Alcotest.test_case "pop skips assigned" `Quick test_pop_skips_assigned;
    Alcotest.test_case "on_unassign" `Quick test_on_unassign_reinserts;
    QCheck_alcotest.to_alcotest prop_pop_monotone;
  ]
