(* Decision-ordering heap: VSIDS keys, rank combination, dynamic switch. *)

let always_unassigned _ = true

let mk_cnf clauses =
  let f = Sat.Cnf.create () in
  List.iter (fun c -> Sat.Cnf.add_clause f (List.map (fun (v, s) -> Sat.Lit.make v s) c)) clauses;
  f

let occurrences cnf =
  let counts = Array.make (2 * Sat.Cnf.num_vars cnf) 0 in
  Sat.Cnf.count_occurrences cnf ~into:counts;
  counts

let test_init_activity_counts () =
  let cnf = mk_cnf [ [ (0, true); (1, true) ]; [ (0, true); (1, false) ]; [ (0, true) ] ] in
  let o = Sat.Order.create ~num_vars:2 Sat.Order.Vsids in
  Sat.Order.init_activity o (occurrences cnf);
  Alcotest.(check (float 1e-9)) "x0 count" 3.0 (Sat.Order.activity o (Sat.Lit.pos 0));
  Alcotest.(check (float 1e-9)) "x1 count" 1.0 (Sat.Order.activity o (Sat.Lit.pos 1));
  Alcotest.(check (float 1e-9)) "~x1 count" 1.0 (Sat.Order.activity o (Sat.Lit.neg 1))

let test_pop_highest_activity () =
  let cnf = mk_cnf [ [ (0, true) ]; [ (1, false) ]; [ (1, false) ]; [ (2, true) ] ] in
  let o = Sat.Order.create ~num_vars:3 Sat.Order.Vsids in
  Sat.Order.init_activity o (occurrences cnf);
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

(* The reference model: [Order_ref] is the per-literal heap the
   per-variable one replaced.  Both are driven through the same random
   sequence in the solver's protocol: a search rebuilds the heap, then
   bumps, halves, re-ranks, switches to VSIDS, implies, pops and assigns,
   and backtracks; between searches the order only takes bumps, ranks,
   mode changes, new variables and assignments, and the next search
   rebuilds.  Every pop must return the same literal from both. *)
type op =
  | Bump of int * bool
  | Bump_by of int * bool * int
  | Halve
  | Set_rank of int * int
  | Set_mode of int * int list (* 0 Vsids, 1 Static, 2 Dynamic; the ranks *)
  | Switch
  | Imply of int
  | Pop
  | Backtrack of int
  | End_search
  | Grow of int

let show_op = function
  | Bump (v, s) -> Printf.sprintf "bump %d%s" v (if s then "+" else "-")
  | Bump_by (v, s, a) -> Printf.sprintf "bump_by %d%s %d" v (if s then "+" else "-") a
  | Halve -> "halve"
  | Set_rank (v, r) -> Printf.sprintf "rank %d %d" v r
  | Set_mode (m, rs) ->
    Printf.sprintf "mode %d [%s]" m (String.concat ";" (List.map string_of_int rs))
  | Switch -> "switch"
  | Imply v -> Printf.sprintf "imply %d" v
  | Pop -> "pop"
  | Backtrack k -> Printf.sprintf "backtrack %d" k
  | End_search -> "end"
  | Grow k -> Printf.sprintf "grow %d" k

let max_vars = 24

let gen_protocol =
  let open QCheck.Gen in
  let var = int_bound (max_vars - 1) and small = int_bound 3 in
  let op =
    frequency
      [
        (6, map2 (fun v s -> Bump (v, s)) var bool);
        (2, map3 (fun v s a -> Bump_by (v, s, a)) var bool small);
        (1, return Halve);
        (3, map2 (fun v r -> Set_rank (v, r)) var small);
        ( 1,
          map2 (fun m rs -> Set_mode (m, rs)) (int_bound 2) (list_size (int_bound max_vars) small)
        );
        (1, return Switch);
        (4, map (fun v -> Imply v) var);
        (8, return Pop);
        (3, map (fun k -> Backtrack k) (int_bound 6));
        (1, return End_search);
        (1, map (fun k -> Grow k) (int_range 1 3));
      ]
  in
  triple (int_range 1 16) (list_size (return (2 * max_vars)) small) (list_size (int_bound 150) op)

let print_protocol (n, _, ops) =
  Printf.sprintf "vars %d: %s" n (String.concat ", " (List.map show_op ops))

let prop_matches_reference =
  QCheck.Test.make ~name:"pops the literal the per-literal reference heap pops" ~count:500
    (QCheck.make ~print:print_protocol
       ~shrink:QCheck.Shrink.(triple nil nil (list ~shrink:nil))
       gen_protocol)
    (fun (n0, occ, ops) ->
      let n = ref n0 in
      let o = Sat.Order.create ~num_vars:n0 Sat.Order.Vsids
      and r = Order_ref.create ~num_vars:n0 Order_ref.Vsids in
      let occ = Array.of_list occ in
      Sat.Order.init_activity o occ;
      Order_ref.init_activity r occ;
      let assigned = Array.make max_vars false and trail = ref [] and live = ref false in
      let is_unassigned v = not assigned.(v) in
      let assign v =
        if not assigned.(v) then begin
          assigned.(v) <- true;
          trail := v :: !trail
        end
      in
      let rec backtrack k =
        match !trail with
        | v :: rest when k > 0 ->
          assigned.(v) <- false;
          trail := rest;
          Sat.Order.on_unassign o v;
          Order_ref.on_unassign r v;
          backtrack (k - 1)
        | _ -> ()
      in
      (* a search starts by rebuilding: pops and switches happen in one *)
      let searching () =
        if not !live then begin
          Sat.Order.rebuild o ~is_unassigned;
          Order_ref.rebuild r ~is_unassigned;
          live := true
        end
      in
      let lit v s = Sat.Lit.make (v mod !n) s in
      List.for_all
        (fun op ->
          match op with
          | Bump (v, s) ->
            Sat.Order.bump o (lit v s);
            Order_ref.bump r (lit v s);
            true
          | Bump_by (v, s, a) ->
            Sat.Order.bump_by o (lit v s) (float_of_int a);
            Order_ref.bump_by r (lit v s) (float_of_int a);
            true
          | Halve ->
            Sat.Order.halve_all o;
            Order_ref.halve_all r;
            true
          | Set_rank (v, x) ->
            Sat.Order.set_rank o (v mod !n) (float_of_int x);
            Order_ref.set_rank r (v mod !n) (float_of_int x);
            true
          | Set_mode (m, rs) ->
            let a = Array.of_list (List.map float_of_int rs) in
            (match m with
            | 0 ->
              Sat.Order.set_mode o Sat.Order.Vsids;
              Order_ref.set_mode r Order_ref.Vsids
            | 1 ->
              Sat.Order.set_mode o (Sat.Order.Static a);
              Order_ref.set_mode r (Order_ref.Static a)
            | _ ->
              Sat.Order.set_mode o (Sat.Order.Dynamic a);
              Order_ref.set_mode r (Order_ref.Dynamic a));
            live := false;
            true
          | Switch ->
            searching ();
            Sat.Order.switch_to_vsids o;
            Order_ref.switch_to_vsids r;
            true
          | Imply v ->
            assign (v mod !n);
            true
          | Pop ->
            searching ();
            let a = Sat.Order.pop_best o ~is_unassigned
            and b = Order_ref.pop_best r ~is_unassigned in
            Option.iter (fun l -> assign (Sat.Lit.var l)) a;
            Option.equal Sat.Lit.equal a b
          | Backtrack k ->
            backtrack k;
            true
          | End_search ->
            Sat.Order.suspend o;
            live := false;
            true
          | Grow k ->
            n := min max_vars (!n + k);
            Sat.Order.grow o ~num_vars:!n;
            Order_ref.grow r ~num_vars:!n;
            true)
        ops)

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
    QCheck_alcotest.to_alcotest prop_matches_reference;
  ]
