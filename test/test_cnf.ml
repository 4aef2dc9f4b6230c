(* Formula container: construction, normalisation, evaluation. *)

let pos = Sat.Lit.pos

let neg = Sat.Lit.neg

let test_fresh_vars () =
  let f = Sat.Cnf.create () in
  Alcotest.(check int) "v0" 0 (Sat.Cnf.fresh_var f);
  Alcotest.(check int) "v1" 1 (Sat.Cnf.fresh_var f);
  Alcotest.(check int) "count" 2 (Sat.Cnf.num_vars f)

let test_add_clause_grows_vars () =
  let f = Sat.Cnf.create () in
  Sat.Cnf.add_clause f [ pos 4; neg 2 ];
  Alcotest.(check int) "vars grown to max+1" 5 (Sat.Cnf.num_vars f);
  Alcotest.(check int) "clauses" 1 (Sat.Cnf.num_clauses f);
  Alcotest.(check int) "literals" 2 (Sat.Cnf.num_literals f)

let test_get_clause_order () =
  let f = Sat.Cnf.create () in
  Sat.Cnf.add_clause f [ pos 0 ];
  Sat.Cnf.add_clause f [ neg 1; pos 2 ];
  Alcotest.(check int) "clause 0 size" 1 (Array.length (Sat.Cnf.get_clause f 0));
  Alcotest.(check int) "clause 1 size" 2 (Array.length (Sat.Cnf.get_clause f 1))

let test_normalize () =
  (match Sat.Cnf.normalize_clause [ pos 1; pos 1; neg 2 ] with
  | Some lits -> Alcotest.(check int) "dedup" 2 (List.length lits)
  | None -> Alcotest.fail "unexpected tautology");
  (match Sat.Cnf.normalize_clause [ pos 1; neg 1 ] with
  | None -> ()
  | Some _ -> Alcotest.fail "tautology not detected");
  match Sat.Cnf.normalize_clause [] with
  | Some [] -> ()
  | Some _ | None -> Alcotest.fail "empty clause must normalise to itself"

let test_eval () =
  let f = Sat.Cnf.create () in
  Sat.Cnf.add_clause f [ pos 0; pos 1 ];
  Sat.Cnf.add_clause f [ neg 0 ];
  Alcotest.(check bool) "x0=F x1=T sat" true (Sat.Cnf.eval f (fun v -> v = 1));
  Alcotest.(check bool) "x0=T violates" false (Sat.Cnf.eval f (fun _ -> true));
  Alcotest.(check bool) "x0=F x1=F violates first" false (Sat.Cnf.eval f (fun _ -> false))

let test_eval_empty_clause () =
  let f = Sat.Cnf.create () in
  Sat.Cnf.add_clause f [];
  Alcotest.(check bool) "empty clause unsatisfiable" false (Sat.Cnf.eval f (fun _ -> true))

let test_copy_independent () =
  let f = Sat.Cnf.create () in
  Sat.Cnf.add_clause f [ pos 0 ];
  let g = Sat.Cnf.copy f in
  Sat.Cnf.add_clause f [ pos 1 ];
  Alcotest.(check int) "copy unaffected" 1 (Sat.Cnf.num_clauses g);
  Alcotest.(check int) "original grew" 2 (Sat.Cnf.num_clauses f);
  Alcotest.(check bool) "clause arrays shared" true
    (Sat.Cnf.get_clause f 0 == Sat.Cnf.get_clause g 0)

let test_ensure_vars () =
  let f = Sat.Cnf.create ~num_vars:3 () in
  Sat.Cnf.ensure_vars f 2;
  Alcotest.(check int) "no shrink" 3 (Sat.Cnf.num_vars f);
  Sat.Cnf.ensure_vars f 10;
  Alcotest.(check int) "grow" 10 (Sat.Cnf.num_vars f)

(* random clause list as (var, sign) pairs over a small domain *)
let clause_gen =
  QCheck.(list_of_size Gen.(0 -- 6) (pair (int_bound 5) bool))

let to_lits = List.map (fun (v, s) -> Sat.Lit.make v s)

(* What both normalisers are held to: sort, drop duplicates, reject a
   clause holding some [l] and [¬l]. *)
let reference_normalize lits =
  let sorted = List.sort_uniq Sat.Lit.compare lits in
  let rec tautology = function
    | a :: (b :: _ as rest) -> Sat.Lit.var a = Sat.Lit.var b || tautology rest
    | [ _ ] | [] -> false
  in
  if tautology sorted then None else Some sorted

(* The array normaliser into a separate buffer; the clause must come back
   untouched, since formulas share their clause arrays. *)
let normalize_array lits =
  let c = Array.of_list lits in
  let into = Array.make (Array.length c) (pos 0) in
  let n = Sat.Cnf.normalize_into c ~into in
  if Array.to_list c <> lits then QCheck.Test.fail_report "normalize_into mutated its input";
  if n < 0 then None else Some (Array.to_list (Array.sub into 0 n))

let prop_normalize_sound =
  (* normalisation preserves the clause's value under every assignment, and
     the list and array normalisers agree with the reference (the generator
     yields empty, duplicate and tautological clauses) *)
  QCheck.Test.make ~name:"normalize_clause preserves semantics" ~count:500
    QCheck.(pair clause_gen (fun1 QCheck.Observable.int bool))
    (fun (cl, f) ->
      let assign = QCheck.Fn.apply f in
      let lits = to_lits cl in
      let value lits =
        List.exists (fun l -> assign (Sat.Lit.var l) = Sat.Lit.is_pos l) lits
      in
      let normalized = Sat.Cnf.normalize_clause lits in
      normalize_array lits = normalized
      && normalized = reference_normalize lits
      &&
      match normalized with
      | None -> value lits (* tautologies are true under any assignment *)
      | Some lits' -> value lits = value lits')

(* Past the insertion-sort limit the normaliser takes another path. *)
let prop_normalize_long =
  QCheck.Test.make ~name:"normalize_into on long clauses" ~count:300
    QCheck.(list_of_size Gen.(0 -- 48) (pair (int_bound 40) bool))
    (fun cl ->
      let lits = to_lits cl in
      normalize_array lits = reference_normalize lits)

let prop_num_literals =
  QCheck.Test.make ~name:"num_literals counts occurrences" ~count:200
    QCheck.(list clause_gen)
    (fun cls ->
      let f = Sat.Cnf.create () in
      List.iter (fun cl -> Sat.Cnf.add_clause f (to_lits cl)) cls;
      Sat.Cnf.num_literals f = List.fold_left (fun a c -> a + List.length c) 0 cls)

let tests =
  [
    Alcotest.test_case "fresh vars" `Quick test_fresh_vars;
    Alcotest.test_case "add grows vars" `Quick test_add_clause_grows_vars;
    Alcotest.test_case "clause order" `Quick test_get_clause_order;
    Alcotest.test_case "normalize" `Quick test_normalize;
    Alcotest.test_case "eval" `Quick test_eval;
    Alcotest.test_case "eval empty clause" `Quick test_eval_empty_clause;
    Alcotest.test_case "copy" `Quick test_copy_independent;
    Alcotest.test_case "ensure_vars" `Quick test_ensure_vars;
    QCheck_alcotest.to_alcotest prop_normalize_sound;
    QCheck_alcotest.to_alcotest prop_normalize_long;
    QCheck_alcotest.to_alcotest prop_num_literals;
  ]
