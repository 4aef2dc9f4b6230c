(* Simplified Conflict Dependency Graph. *)

let test_core_simple_chain () =
  let p = Sat.Proof.create () in
  let a = Sat.Proof.register_original p in
  let b = Sat.Proof.register_original p in
  let c = Sat.Proof.register_original p in
  let l1 = Sat.Proof.register_learnt p ~antecedents:[ a; b ] in
  let _l2 = Sat.Proof.register_learnt p ~antecedents:[ c ] in
  Sat.Proof.set_final p ~antecedents:[ l1 ];
  (* only a and b are reachable; c's learnt clause is not used *)
  Alcotest.(check (list int)) "core" [ a; b ] (Sat.Proof.core p)

let test_core_through_layers () =
  let p = Sat.Proof.create () in
  let orig = List.init 4 (fun _ -> Sat.Proof.register_original p) in
  match orig with
  | [ o0; o1; o2; o3 ] ->
    let l1 = Sat.Proof.register_learnt p ~antecedents:[ o0; o1 ] in
    let l2 = Sat.Proof.register_learnt p ~antecedents:[ l1; o2 ] in
    let l3 = Sat.Proof.register_learnt p ~antecedents:[ l2; l1 ] in
    Sat.Proof.set_final p ~antecedents:[ l3; o3 ];
    Alcotest.(check (list int))
      "all originals reachable" [ o0; o1; o2; o3 ] (Sat.Proof.core p)
  | _ -> Alcotest.fail "setup"

let test_counts () =
  let p = Sat.Proof.create () in
  let a = Sat.Proof.register_original p in
  let _ = Sat.Proof.register_learnt p ~antecedents:[ a; a ] in
  Alcotest.(check int) "originals" 1 (Sat.Proof.num_original p);
  Alcotest.(check int) "learnt" 1 (Sat.Proof.num_learnt p);
  Alcotest.(check int) "edges" 2 (Sat.Proof.num_edges p)

let test_no_final () =
  let p = Sat.Proof.create () in
  Alcotest.(check bool) "has_final" false (Sat.Proof.has_final p);
  Alcotest.check_raises "core without final"
    (Invalid_argument "Proof.core: no final conflict recorded") (fun () ->
      ignore (Sat.Proof.core p))

let test_unknown_antecedent () =
  let p = Sat.Proof.create () in
  Alcotest.check_raises "unknown id" (Invalid_argument "Proof: unknown antecedent id 7")
    (fun () -> ignore (Sat.Proof.register_learnt p ~antecedents:[ 7 ]))

let test_ids_dense () =
  let p = Sat.Proof.create () in
  for i = 0 to 9 do
    Alcotest.(check int) "dense id" i (Sat.Proof.register_original p)
  done

(* Random DAG over originals and learnts: the one walk must return exactly
   the originals that some chain of learnt clauses connects to the final
   node, ascending. *)
let prop_core_is_backward_reachable_set =
  QCheck.Test.make ~name:"core = originals backward-reachable from final" ~count:100
    QCheck.(pair (int_range 1 8) (int_range 0 20))
    (fun (n_orig, n_learnt) ->
      let p = Sat.Proof.create () in
      let rng = Random.State.make [| n_orig; n_learnt |] in
      (* the mirror: each node's kind and antecedents *)
      let mirror = Hashtbl.create 32 in
      let origs = List.init n_orig (fun _ -> Sat.Proof.register_original p) in
      List.iter (fun id -> Hashtbl.replace mirror id (`Original, [])) origs;
      let all = ref origs in
      for _ = 1 to n_learnt do
        let arr = Array.of_list !all in
        let k = 1 + Random.State.int rng 3 in
        let ants = List.init k (fun _ -> arr.(Random.State.int rng (Array.length arr))) in
        let id = Sat.Proof.register_learnt p ~antecedents:ants in
        Hashtbl.replace mirror id (`Learnt, ants);
        all := id :: !all
      done;
      let arr = Array.of_list !all in
      let final = [ arr.(Random.State.int rng (Array.length arr)) ] in
      Sat.Proof.set_final p ~antecedents:final;
      let core = Sat.Proof.core p in
      let reached = Hashtbl.create 32 in
      let rec reach id =
        if not (Hashtbl.mem reached id) then begin
          Hashtbl.replace reached id ();
          List.iter reach (snd (Hashtbl.find mirror id))
        end
      in
      List.iter reach final;
      let expect kind =
        Hashtbl.fold
          (fun id () acc -> if fst (Hashtbl.find mirror id) = kind then id :: acc else acc)
          reached []
        |> List.sort Int.compare
      in
      core = expect `Original)

let tests =
  [
    Alcotest.test_case "simple chain" `Quick test_core_simple_chain;
    Alcotest.test_case "layered" `Quick test_core_through_layers;
    Alcotest.test_case "counts" `Quick test_counts;
    Alcotest.test_case "no final" `Quick test_no_final;
    Alcotest.test_case "unknown antecedent" `Quick test_unknown_antecedent;
    Alcotest.test_case "dense ids" `Quick test_ids_dense;
    QCheck_alcotest.to_alcotest prop_core_is_backward_reachable_set;
  ]
