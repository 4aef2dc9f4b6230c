(* DIMACS reader/writer. *)

let test_parse_simple () =
  let cnf = Sat.Dimacs.parse_string "c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  Alcotest.(check int) "vars" 3 (Sat.Cnf.num_vars cnf);
  Alcotest.(check int) "clauses" 2 (Sat.Cnf.num_clauses cnf);
  let c0 = Sat.Cnf.get_clause cnf 0 in
  Alcotest.(check int) "c0 lit0" 1 (Sat.Lit.to_dimacs c0.(0));
  Alcotest.(check int) "c0 lit1" (-2) (Sat.Lit.to_dimacs c0.(1))

let test_parse_multiline_clause () =
  let cnf = Sat.Dimacs.parse_string "p cnf 4 1\n1 2\n3 4 0\n" in
  Alcotest.(check int) "one clause across lines" 1 (Sat.Cnf.num_clauses cnf);
  Alcotest.(check int) "four literals" 4 (Array.length (Sat.Cnf.get_clause cnf 0))

let test_parse_missing_final_zero () =
  let cnf = Sat.Dimacs.parse_string "p cnf 2 1\n1 2" in
  Alcotest.(check int) "tolerated" 1 (Sat.Cnf.num_clauses cnf)

let expect_error input =
  match Sat.Dimacs.parse_string input with
  | exception Sat.Dimacs.Parse_error _ -> ()
  | _ -> Alcotest.fail ("expected Parse_error on: " ^ input)

let test_errors () =
  expect_error "1 2 0\n"; (* clause before header *)
  expect_error "p cnf 2 1\np cnf 2 1\n1 0\n"; (* duplicate header *)
  expect_error "p cnf x 1\n1 0\n"; (* malformed header *)
  expect_error "p cnf 1 1\n2 0\n"; (* variable exceeds declared count *)
  expect_error "p cnf 2 5\n1 0\n"; (* fewer clauses than declared *)
  expect_error "p cnf 2 1\n1 garbage 0\n"; (* bad token *)
  expect_error "" (* missing header *)

(* The header's variable count is an upper bound, not a size: a 23-byte
   file declaring two billion variables must not allocate for them. *)
let test_header_count_is_a_bound () =
  let cnf = Sat.Dimacs.parse_string "p cnf 2000000000 1\n1 0\n" in
  Alcotest.(check int) "sized from the clauses" 1 (Sat.Cnf.num_vars cnf);
  Alcotest.(check int) "one clause" 1 (Sat.Cnf.num_clauses cnf);
  let unused = Sat.Dimacs.parse_string "p cnf 5 1\n-2 0\n" in
  Alcotest.(check int) "declared but unused variables are not in the formula" 2
    (Sat.Cnf.num_vars unused);
  expect_error "p cnf 1 1\n2 0\n"

let test_empty_clause () =
  let cnf = Sat.Dimacs.parse_string "p cnf 1 1\n0\n" in
  Alcotest.(check int) "one empty clause" 1 (Sat.Cnf.num_clauses cnf);
  Alcotest.(check int) "zero literals" 0 (Array.length (Sat.Cnf.get_clause cnf 0))

let test_print_parse_roundtrip () =
  let cnf = Sat.Cnf.create ~num_vars:4 () in
  Sat.Cnf.add_clause cnf [ Sat.Lit.pos 0; Sat.Lit.neg 3 ];
  Sat.Cnf.add_clause cnf [ Sat.Lit.neg 1 ];
  let cnf' = Sat.Dimacs.parse_string (Sat.Dimacs.to_string cnf) in
  Alcotest.(check int) "vars" (Sat.Cnf.num_vars cnf) (Sat.Cnf.num_vars cnf');
  Alcotest.(check int) "clauses" (Sat.Cnf.num_clauses cnf) (Sat.Cnf.num_clauses cnf');
  for i = 0 to Sat.Cnf.num_clauses cnf - 1 do
    let a = Sat.Cnf.get_clause cnf i and b = Sat.Cnf.get_clause cnf' i in
    Alcotest.(check (array int))
      (Printf.sprintf "clause %d" i)
      (Array.map Sat.Lit.to_dimacs a) (Array.map Sat.Lit.to_dimacs b)
  done

let test_file_roundtrip () =
  let cnf = Sat.Dimacs.parse_string "p cnf 3 2\n1 -2 0\n-1 3 0\n" in
  let path = Filename.temp_file "dimacs" ".cnf" in
  Sat.Dimacs.write_file path cnf;
  let cnf' = Sat.Dimacs.parse_file path in
  Sys.remove path;
  Alcotest.(check int) "clauses" 2 (Sat.Cnf.num_clauses cnf')

let cnf_gen =
  let open QCheck.Gen in
  let clause = list_size (0 -- 5) (pair (0 -- 7) bool) in
  list_size (0 -- 15) clause

let prop_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip on random formulas" ~count:200
    (QCheck.make cnf_gen) (fun cls ->
      let cnf = Sat.Cnf.create ~num_vars:8 () in
      List.iter
        (fun cl -> Sat.Cnf.add_clause cnf (List.map (fun (v, s) -> Sat.Lit.make v s) cl))
        cls;
      let cnf' = Sat.Dimacs.parse_string (Sat.Dimacs.to_string cnf) in
      Sat.Cnf.num_clauses cnf = Sat.Cnf.num_clauses cnf'
      &&
      let same = ref true in
      Sat.Cnf.iter_clauses
        (fun i c -> if c <> Sat.Cnf.get_clause cnf' i then same := false)
        cnf;
      !same)

let tests =
  [
    Alcotest.test_case "parse simple" `Quick test_parse_simple;
    Alcotest.test_case "multiline clause" `Quick test_parse_multiline_clause;
    Alcotest.test_case "missing final zero" `Quick test_parse_missing_final_zero;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "header count is a bound" `Quick test_header_count_is_a_bound;
    Alcotest.test_case "empty clause" `Quick test_empty_clause;
    Alcotest.test_case "print/parse roundtrip" `Quick test_print_parse_roundtrip;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
