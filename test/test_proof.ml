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
  Alcotest.(check (list int)) "core" [ a; b ] (Sat.Proof.core p).originals

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
      "all originals reachable" [ o0; o1; o2; o3 ] (Sat.Proof.core p).originals
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

(* Provenance: imports are cross-edges, not core members. *)

let test_import_is_leaf_not_core () =
  let p = Sat.Proof.create ~solver_id:3 () in
  let o = Sat.Proof.register_original p in
  let i = Sat.Proof.register_import p ~origin:(7, 4) in
  let l = Sat.Proof.register_learnt p ~antecedents:[ o; i ] in
  Sat.Proof.set_final p ~antecedents:[ l ];
  Alcotest.(check int) "solver id" 3 (Sat.Proof.solver_id p);
  Alcotest.(check int) "imports counted" 1 (Sat.Proof.num_import p);
  let core = Sat.Proof.core p in
  Alcotest.(check (list int)) "core skips the import" [ o ] core.originals;
  Alcotest.(check (list int)) "imports name it" [ i ] core.imports;
  Alcotest.(check (option (pair int int))) "origin roundtrip" (Some (7, 4))
    (Sat.Proof.origin_of p i);
  Alcotest.(check (option (pair int int))) "originals have no origin" None
    (Sat.Proof.origin_of p o)

let test_import_negative_origin () =
  let p = Sat.Proof.create () in
  Alcotest.check_raises "negative origin"
    (Invalid_argument "Proof.register_import: negative origin id -1") (fun () ->
      ignore (Sat.Proof.register_import p ~origin:(0, -1)))

(* Two shards: B refutes using a clause imported from A; the stitched core
   must name A's originals behind the import, while B's local core stays
   the shard projection. *)
let test_stitched_core_two_shards () =
  let a = Sat.Proof.create ~solver_id:1 () in
  let a0 = Sat.Proof.register_original a in
  let a1 = Sat.Proof.register_original a in
  let al = Sat.Proof.register_learnt a ~antecedents:[ a0; a1 ] in
  let b = Sat.Proof.create ~solver_id:2 () in
  let b0 = Sat.Proof.register_original b in
  let bi = Sat.Proof.register_import b ~origin:(1, al) in
  let bl = Sat.Proof.register_learnt b ~antecedents:[ b0; bi ] in
  Sat.Proof.set_final b ~antecedents:[ bl ];
  Alcotest.(check (list int)) "local projection" [ b0 ] (Sat.Proof.core b).originals;
  let stitched =
    Sat.Proof.stitched_core b ~lookup:(fun sid -> if sid = 1 then Some a else None)
  in
  Alcotest.(check (list (pair int (list int))))
    "stitched: both shards' originals"
    [ (1, [ a0; a1 ]); (2, [ b0 ]) ]
    stitched

let test_stitched_core_missing_shard () =
  let b = Sat.Proof.create ~solver_id:2 () in
  let bi = Sat.Proof.register_import b ~origin:(9, 0) in
  Sat.Proof.set_final b ~antecedents:[ bi ];
  Alcotest.check_raises "unresolvable shard"
    (Invalid_argument "Proof.stitched_core: no shard for solver 9") (fun () ->
      ignore (Sat.Proof.stitched_core b ~lookup:(fun _ -> None)))

(* Without imports, stitching degenerates to the local core under this
   shard's own id — the single-solver case costs nothing. *)
let test_stitched_equals_core_without_imports () =
  let p = Sat.Proof.create ~solver_id:5 () in
  let o0 = Sat.Proof.register_original p in
  let o1 = Sat.Proof.register_original p in
  let l = Sat.Proof.register_learnt p ~antecedents:[ o0; o1 ] in
  Sat.Proof.set_final p ~antecedents:[ l ];
  Alcotest.(check (list (pair int (list int))))
    "one shard, same ids"
    [ (5, (Sat.Proof.core p).originals) ]
    (Sat.Proof.stitched_core p ~lookup:(fun _ -> None))

(* Random DAG over originals, imports and learnts: the one walk must
   return exactly the originals and the imports that some chain of learnt
   clauses connects to the final node, each ascending. *)
let prop_core_is_backward_reachable_set =
  QCheck.Test.make ~name:"core = originals backward-reachable from final" ~count:100
    QCheck.(triple (int_range 1 8) (int_range 0 4) (int_range 0 20))
    (fun (n_orig, n_import, n_learnt) ->
      let p = Sat.Proof.create () in
      let rng = Random.State.make [| n_orig; n_import; n_learnt |] in
      (* the mirror: each node's kind and antecedents *)
      let mirror = Hashtbl.create 32 in
      let origs = List.init n_orig (fun _ -> Sat.Proof.register_original p) in
      List.iter (fun id -> Hashtbl.replace mirror id (`Original, [])) origs;
      let imports = List.init n_import (fun j -> Sat.Proof.register_import p ~origin:(1, j)) in
      List.iter (fun id -> Hashtbl.replace mirror id (`Import, [])) imports;
      let all = ref (origs @ imports) in
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
      core.originals = expect `Original && core.imports = expect `Import)

let tests =
  [
    Alcotest.test_case "simple chain" `Quick test_core_simple_chain;
    Alcotest.test_case "layered" `Quick test_core_through_layers;
    Alcotest.test_case "counts" `Quick test_counts;
    Alcotest.test_case "no final" `Quick test_no_final;
    Alcotest.test_case "unknown antecedent" `Quick test_unknown_antecedent;
    Alcotest.test_case "dense ids" `Quick test_ids_dense;
    Alcotest.test_case "import is leaf" `Quick test_import_is_leaf_not_core;
    Alcotest.test_case "import negative origin" `Quick test_import_negative_origin;
    Alcotest.test_case "stitched core, two shards" `Quick test_stitched_core_two_shards;
    Alcotest.test_case "stitched core, missing shard" `Quick test_stitched_core_missing_shard;
    Alcotest.test_case "stitched = core without imports" `Quick
      test_stitched_equals_core_without_imports;
    QCheck_alcotest.to_alcotest prop_core_is_backward_reachable_set;
  ]
