(* CDCL solver: known instances, random cross-checks against brute force,
   unsat-core validity, budgets, decision-ordering modes. *)

let lit (v, s) = Sat.Lit.make v s

let mk_cnf ?(num_vars = 0) clauses =
  let f = Sat.Cnf.create ~num_vars () in
  List.iter (fun c -> Sat.Cnf.add_clause f (List.map lit c)) clauses;
  f

let solve ?with_proof ?mode clauses =
  let s = Sat.Solver.create ?with_proof ?mode (mk_cnf clauses) in
  (Sat.Solver.solve s, s)

let check_outcome = Alcotest.(check string)

let outcome_str o = Format.asprintf "%a" Sat.Solver.pp_outcome o

(* ------------------------------------------------------------------ *)
(* Known instances.                                                    *)
(* ------------------------------------------------------------------ *)

let test_trivial_sat () =
  let o, s = solve [ [ (0, true) ] ] in
  check_outcome "unit" "SAT" (outcome_str o);
  Alcotest.(check bool) "model" true (Sat.Solver.model s).(0)

let test_trivial_unsat () =
  let o, _ = solve [ [ (0, true) ]; [ (0, false) ] ] in
  check_outcome "x and not x" "UNSAT" (outcome_str o)

let test_empty_formula_sat () =
  let o, _ = solve [] in
  check_outcome "empty formula" "SAT" (outcome_str o)

let test_empty_clause_unsat () =
  let o, _ = solve [ [] ] in
  check_outcome "empty clause" "UNSAT" (outcome_str o)

let test_implication_chain () =
  (* x0 ∧ (x0→x1) ∧ ... ∧ (x8→x9) ∧ ¬x9 : UNSAT by pure BCP *)
  let chain = List.init 9 (fun i -> [ (i, false); (i + 1, true) ]) in
  let o, s = solve (([ (0, true) ] :: chain) @ [ [ (9, false) ] ]) in
  check_outcome "chain" "UNSAT" (outcome_str o);
  Alcotest.(check int) "no decisions needed" 0 (Sat.Solver.stats s).Sat.Stats.decisions

let test_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: classic UNSAT needing real search.
     var (p, h) = p * 2 + h, p in 0..2, h in 0..1 *)
  let v p h = p * 2 + h in
  let per_pigeon = List.init 3 (fun p -> [ (v p 0, true); (v p 1, true) ]) in
  let no_share =
    List.concat_map
      (fun h ->
        [
          [ (v 0 h, false); (v 1 h, false) ];
          [ (v 0 h, false); (v 2 h, false) ];
          [ (v 1 h, false); (v 2 h, false) ];
        ])
      [ 0; 1 ]
  in
  let o, s = solve ~with_proof:true (per_pigeon @ no_share) in
  check_outcome "php(3,2)" "UNSAT" (outcome_str o);
  let core = Sat.Solver.unsat_core s in
  Alcotest.(check bool) "non-trivial core" true (List.length core > 3)

let test_satisfiable_3sat () =
  let clauses =
    [
      [ (0, true); (1, true); (2, true) ];
      [ (0, false); (1, false) ];
      [ (1, true); (2, false) ];
      [ (0, true); (2, true) ];
    ]
  in
  let o, s = solve clauses in
  check_outcome "sat" "SAT" (outcome_str o);
  let m = Sat.Solver.model s in
  Alcotest.(check bool) "model satisfies" true (Sat.Cnf.eval (mk_cnf clauses) (fun v -> m.(v)))

let test_duplicate_and_tautological_clauses () =
  let clauses =
    [
      [ (0, true); (0, true) ]; (* duplicate literal *)
      [ (1, true); (1, false) ]; (* tautology *)
      [ (0, false); (1, true) ];
    ]
  in
  let o, s = solve clauses in
  check_outcome "sat" "SAT" (outcome_str o);
  let m = Sat.Solver.model s in
  Alcotest.(check bool) "x0" true m.(0);
  Alcotest.(check bool) "x1" true m.(1)

let test_conflicting_units_at_creation () =
  let o, s = solve ~with_proof:true [ [ (3, true) ]; [ (3, false) ] ] in
  check_outcome "conflicting units" "UNSAT" (outcome_str o);
  Alcotest.(check (list int)) "core is the two units" [ 0; 1 ] (Sat.Solver.unsat_core s)

let test_solve_idempotent () =
  let s = Sat.Solver.create (mk_cnf [ [ (0, true) ] ]) in
  let a = Sat.Solver.solve s in
  let b = Sat.Solver.solve s in
  Alcotest.(check string) "cached" (outcome_str a) (outcome_str b)

(* ------------------------------------------------------------------ *)
(* Budgets.                                                            *)
(* ------------------------------------------------------------------ *)

let php n holes =
  (* pigeonhole formula as clause list *)
  let v p h = (p * holes) + h in
  let per_pigeon = List.init n (fun p -> List.init holes (fun h -> (v p h, true))) in
  let no_share =
    List.concat
      (List.init holes (fun h ->
           List.concat
             (List.init n (fun p1 ->
                  List.filteri (fun p2 _ -> p2 > p1) (List.init n Fun.id)
                  |> List.map (fun p2 -> [ (v p1 h, false); (v p2 h, false) ])))))
  in
  per_pigeon @ no_share

let test_conflict_budget () =
  let s = Sat.Solver.create (mk_cnf (php 8 7)) in
  let budget =
    { Sat.Solver.max_conflicts = Some 5; max_propagations = None; max_seconds = None; stop = None }
  in
  match Sat.Solver.solve ~budget s with
  | Sat.Solver.Unknown -> ()
  | Sat.Solver.Sat | Sat.Solver.Unsat -> Alcotest.fail "expected budget exhaustion"

let test_hard_instance_completes_without_budget () =
  let o, _ = solve (php 6 5) in
  check_outcome "php(6,5)" "UNSAT" (outcome_str o)

let test_propagation_budget () =
  let s = Sat.Solver.create (mk_cnf (php 8 7)) in
  let budget =
    { Sat.Solver.max_conflicts = None; max_propagations = Some 50; max_seconds = None; stop = None }
  in
  match Sat.Solver.solve ~budget s with
  | Sat.Solver.Unknown -> (
    (* resource-limited runs must refuse to produce models or cores *)
    match Sat.Solver.model s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "model after Unknown")
  | Sat.Solver.Sat | Sat.Solver.Unsat -> Alcotest.fail "expected budget exhaustion"

let test_stop_hook_aborts () =
  (* A stop hook that fires from the first poll must abort the solve almost
     immediately: at most one conflict (the hook is polled right after each
     conflict) and under 1024 decisions. *)
  let s = Sat.Solver.create (mk_cnf (php 8 7)) in
  let budget = { Sat.Solver.no_budget with stop = Some (fun () -> true) } in
  (match Sat.Solver.solve ~budget s with
  | Sat.Solver.Unknown -> ()
  | o -> Alcotest.failf "expected Unknown, got %a" Sat.Solver.pp_outcome o);
  let st = Sat.Solver.stats s in
  Alcotest.(check bool) "bounded work after stop" true
    (st.Sat.Stats.conflicts <= 1 && st.Sat.Stats.decisions <= 1024)

let test_stop_hook_bounded_latency () =
  (* Arm the hook after N conflicts: the solve must end within one more
     conflict of the trigger point (the per-conflict poll). *)
  let s = Sat.Solver.create (mk_cnf (php 8 7)) in
  let fired = ref false in
  let stop () =
    if (Sat.Solver.stats s).Sat.Stats.conflicts >= 20 then fired := true;
    !fired
  in
  let budget = { Sat.Solver.no_budget with stop = Some stop } in
  (match Sat.Solver.solve ~budget s with
  | Sat.Solver.Unknown -> ()
  | o -> Alcotest.failf "expected Unknown, got %a" Sat.Solver.pp_outcome o);
  Alcotest.(check bool) "hook fired" true !fired;
  Alcotest.(check bool) "stopped within one conflict of trigger" true
    ((Sat.Solver.stats s).Sat.Stats.conflicts <= 21)

let test_stop_hook_mid_bcp () =
  (* A zero-conflict instance: one huge equivalence chain, driven by an
     assumption so the whole chain propagates inside the solve (a unit
     clause would be chased eagerly at add_clause time instead).  The solve
     is then a single ~2n-propagation BCP run with no conflicts and no
     decisions.  A solver polling the stop hook only at decision/conflict
     boundaries would finish the entire chain before noticing; the in-BCP
     poll (every 4096 propagations) must cancel mid-chain, promptly. *)
  let n = 200_000 in
  let f = Sat.Cnf.create ~num_vars:n () in
  for i = 0 to n - 2 do
    Sat.Cnf.add_clause f [ lit (i, false); lit (i + 1, true) ];
    Sat.Cnf.add_clause f [ lit (i, true); lit (i + 1, false) ]
  done;
  let s = Sat.Solver.create f in
  let stop () = (Sat.Solver.stats s).Sat.Stats.propagations > 0 in
  let budget = { Sat.Solver.no_budget with stop = Some stop } in
  let t0 = Unix.gettimeofday () in
  (match Sat.Solver.solve ~budget ~assumptions:[ lit (0, true) ] s with
  | Sat.Solver.Unknown -> ()
  | o -> Alcotest.failf "expected Unknown, got %a" Sat.Solver.pp_outcome o);
  let wall = Unix.gettimeofday () -. t0 in
  let st = Sat.Solver.stats s in
  Alcotest.(check int) "no conflicts" 0 st.Sat.Stats.conflicts;
  Alcotest.(check bool) "cancelled mid-chain, not at its end" true
    (st.Sat.Stats.propagations < 50_000);
  Alcotest.(check bool) "cancelled in under a second" true (wall < 1.0)

let test_stop_hook_inert () =
  (* A hook that never fires must not perturb the answer. *)
  let s = Sat.Solver.create (mk_cnf (php 5 4)) in
  let budget = { Sat.Solver.no_budget with stop = Some (fun () -> false) } in
  match Sat.Solver.solve ~budget s with
  | Sat.Solver.Unsat -> ()
  | o -> Alcotest.failf "expected UNSAT, got %a" Sat.Solver.pp_outcome o

let test_dynamic_switch_fires () =
  (* php(5,4) has few literals, so the 1/64 threshold is just a handful of
     decisions: the dynamic fallback must trigger and the answer stay UNSAT *)
  let cnf = mk_cnf (php 5 4) in
  let rank = Array.make (Sat.Cnf.num_vars cnf) 1.0 in
  let s = Sat.Solver.create ~mode:(Sat.Order.Dynamic rank) cnf in
  (match Sat.Solver.solve s with
  | Sat.Solver.Unsat -> ()
  | o -> Alcotest.failf "expected UNSAT, got %a" Sat.Solver.pp_outcome o);
  Alcotest.(check int) "switched exactly once" 1
    (Sat.Solver.stats s).Sat.Stats.heuristic_switches

let test_core_subset_of_clauses () =
  let clauses = php 4 3 in
  let cnf = mk_cnf clauses in
  let s = Sat.Solver.create ~with_proof:true cnf in
  (match Sat.Solver.solve s with
  | Sat.Solver.Unsat -> ()
  | o -> Alcotest.failf "expected UNSAT, got %a" Sat.Solver.pp_outcome o);
  let core = Sat.Solver.unsat_core s in
  List.iter
    (fun i ->
      Alcotest.(check bool) "core index in range" true (i >= 0 && i < Sat.Cnf.num_clauses cnf))
    core;
  Alcotest.(check bool) "core ascending and duplicate-free" true
    (List.sort_uniq Int.compare core = core)

let test_unsat_core_requires_proof () =
  let _, s = solve [ [ (0, true) ]; [ (0, false) ] ] in
  Alcotest.check_raises "core without proof logging"
    (Invalid_argument "Solver.unsat_core: proof logging was off") (fun () ->
      ignore (Sat.Solver.unsat_core s))

(* The solver shares the caller's clause arrays instead of copying them, so
   nothing it does may write to one: normalisation, watch ordering and
   inprocessing all work on the solver's own arena.  The clauses are given
   unsorted, with duplicate literals and a tautology, so a normaliser
   working in place would show. *)
let test_caller_clauses_untouched () =
  let clauses =
    List.map List.rev (php 4 3)
    @ [ [ (2, true); (0, false); (2, true) ]; [ (5, true); (1, false); (5, false) ] ]
  in
  let cnf = mk_cnf clauses in
  let snapshot () =
    List.init (Sat.Cnf.num_clauses cnf) (fun i -> Array.copy (Sat.Cnf.get_clause cnf i))
  in
  let before = snapshot () in
  let unchanged stage =
    Alcotest.(check bool) (stage ^ ": caller's clauses unchanged") true (snapshot () = before)
  in
  let s = Sat.Solver.create ~with_proof:true cnf in
  unchanged "create";
  check_outcome "php(4,3)" "UNSAT" (outcome_str (Sat.Solver.solve s));
  unchanged "solve";
  ignore (Sat.Solver.inprocess s : Sat.Inprocess.stats);
  unchanged "inprocess";
  check_outcome "still UNSAT" "UNSAT" (outcome_str (Sat.Solver.solve s));
  let core = Sat.Solver.unsat_core s in
  Alcotest.(check bool) "core is not empty" true (core <> []);
  unchanged "unsat_core";
  List.iteri
    (fun i c ->
      Alcotest.(check (list int)) "original_clause is the clause as loaded"
        (List.map Sat.Lit.to_index (Array.to_list c))
        (List.map Sat.Lit.to_index (Sat.Solver.original_clause s i)))
    before

let test_model_on_unsat_rejected () =
  let _, s = solve [ [ (0, true) ]; [ (0, false) ] ] in
  Alcotest.check_raises "model after UNSAT"
    (Invalid_argument "Solver.model: no satisfying assignment") (fun () ->
      ignore (Sat.Solver.model s))

let test_wide_clauses () =
  (* exercise watch relocation across long clauses *)
  let wide = List.init 20 (fun i -> (i, true)) in
  let negs = List.init 19 (fun i -> [ (i, false) ]) in
  let o, s = solve (wide :: negs) in
  check_outcome "only x19 can satisfy" "SAT" (outcome_str o);
  Alcotest.(check bool) "x19 true" true (Sat.Solver.model s).(19)

(* The arena walk behind the inprocessing snapshot: every block once, in
   allocation order, deleted ones included; literals in stored order. *)
let test_arena_walk () =
  let a = Sat.Arena.create ~capacity:4 () in
  let lits l = Array.of_list (List.map (fun (v, s) -> Sat.Lit.make v s) l) in
  let c0 = Sat.Arena.alloc a ~cid:0 ~learnt:false (lits [ (2, true); (0, false) ]) 2 in
  let c1 = Sat.Arena.alloc a ~cid:1 ~learnt:true (lits [ (1, true) ]) 1 in
  let c2 = Sat.Arena.alloc a ~cid:2 ~learnt:false (lits [ (3, false); (1, false); (0, true) ]) 3 in
  Sat.Arena.delete a c1;
  let seen = ref [] in
  Sat.Arena.iter a (fun cr -> seen := cr :: !seen);
  Alcotest.(check (list int)) "every block, ascending" [ c0; c1; c2 ] (List.rev !seen);
  Alcotest.(check bool) "crefs below the extent" true (c2 < Sat.Arena.extent a);
  Alcotest.(check (list int)) "stored order"
    (List.map Sat.Lit.to_index (Array.to_list (lits [ (3, false); (1, false); (0, true) ])))
    (List.map Sat.Lit.to_index (Array.to_list (Sat.Arena.lits_array a c2)))

(* ------------------------------------------------------------------ *)
(* Arena compaction is observationally neutral.                        *)
(* ------------------------------------------------------------------ *)

(* Compaction only relocates clause blocks — it must not change which
   clauses exist, their literal order, or the watch/reason structure, so a
   solver that compacts after every database reduction must retrace exactly
   the search of one that never compacts. *)
let run_with_gc clauses ~gc =
  let s = Sat.Solver.create ~with_proof:true (mk_cnf clauses) in
  (* a tiny learnt limit forces reduce_db (and hence compaction) early and
     often, instead of once near the end of the search *)
  Sat.Solver.set_max_learnts s 20;
  Sat.Solver.set_gc_fraction s (if gc then 0.0 else infinity);
  let o = Sat.Solver.solve s in
  (o, s)

let test_compaction_neutral_php () =
  let clauses = php 6 5 in
  let o1, s1 = run_with_gc clauses ~gc:true in
  let o2, s2 = run_with_gc clauses ~gc:false in
  check_outcome "same outcome" (outcome_str o2) (outcome_str o1);
  let st1 = Sat.Solver.stats s1 and st2 = Sat.Solver.stats s2 in
  Alcotest.(check bool) "compactions actually ran" true (st1.Sat.Stats.arena_compactions > 0);
  Alcotest.(check int) "no compaction in the control run" 0 st2.Sat.Stats.arena_compactions;
  Alcotest.(check int) "same conflicts" st2.Sat.Stats.conflicts st1.Sat.Stats.conflicts;
  Alcotest.(check int) "same learned" st2.Sat.Stats.learned st1.Sat.Stats.learned;
  Alcotest.(check int) "same deleted" st2.Sat.Stats.deleted st1.Sat.Stats.deleted;
  Alcotest.(check int) "same decisions" st2.Sat.Stats.decisions st1.Sat.Stats.decisions;
  Alcotest.(check (list int)) "same unsat core" (Sat.Solver.unsat_core s2)
    (Sat.Solver.unsat_core s1);
  Alcotest.(check (list int)) "same core vars" (Sat.Solver.core_vars s2)
    (Sat.Solver.core_vars s1);
  (* the compacting run must not hold more arena memory than the control *)
  Alcotest.(check bool) "compaction reclaims memory" true
    (Sat.Solver.arena_bytes s1 <= Sat.Solver.arena_bytes s2)

let test_compaction_neutral_incremental () =
  (* repeated solve calls across compactions: reasons and watches must
     survive relocation between calls too *)
  let s1 = Sat.Solver.create ~with_proof:true (mk_cnf (php 5 4)) in
  let s2 = Sat.Solver.create ~with_proof:true (mk_cnf (php 5 4)) in
  Sat.Solver.set_max_learnts s1 10;
  Sat.Solver.set_max_learnts s2 10;
  Sat.Solver.set_gc_fraction s1 0.0;
  Sat.Solver.set_gc_fraction s2 infinity;
  for v = 0 to 3 do
    let a = Sat.Solver.solve ~assumptions:[ Sat.Lit.pos v ] s1 in
    let b = Sat.Solver.solve ~assumptions:[ Sat.Lit.pos v ] s2 in
    check_outcome "same outcome under assumptions" (outcome_str b) (outcome_str a)
  done;
  let a = Sat.Solver.solve s1 and b = Sat.Solver.solve s2 in
  check_outcome "same final outcome" (outcome_str b) (outcome_str a);
  Alcotest.(check (list int)) "same final core" (Sat.Solver.unsat_core s2)
    (Sat.Solver.unsat_core s1)

let test_arena_stats_populated () =
  let _, s = solve (php 5 4) in
  let st = Sat.Solver.stats s in
  Alcotest.(check bool) "arena_bytes recorded" true (st.Sat.Stats.arena_bytes > 0);
  Alcotest.(check int) "arena_bytes matches the arena" (Sat.Solver.arena_bytes s)
    st.Sat.Stats.arena_bytes;
  Alcotest.(check bool) "blockers pruned watcher visits" true (st.Sat.Stats.blocker_hits > 0)

(* ------------------------------------------------------------------ *)
(* Modes do not change answers.                                        *)
(* ------------------------------------------------------------------ *)

let test_modes_agree () =
  let clauses = php 5 4 in
  let rank = Array.init 20 (fun i -> float_of_int (i mod 7)) in
  List.iter
    (fun mode ->
      let o, _ = solve ~mode clauses in
      check_outcome "unsat in every mode" "UNSAT" (outcome_str o))
    [ Sat.Order.Vsids; Sat.Order.Static rank; Sat.Order.Dynamic rank ]

(* ------------------------------------------------------------------ *)
(* Randomised cross-checks.                                            *)
(* ------------------------------------------------------------------ *)

let brute_force cnf =
  let n = Sat.Cnf.num_vars cnf in
  let assign = Array.make (max n 1) false in
  let rec go i =
    if i = n then Sat.Cnf.eval cnf (fun v -> assign.(v))
    else begin
      assign.(i) <- false;
      go (i + 1)
      ||
      (assign.(i) <- true;
       go (i + 1))
    end
  in
  go 0

let random_cnf_gen =
  let open QCheck.Gen in
  let nvars = 1 -- 8 in
  nvars >>= fun nv ->
  let clause = list_size (1 -- 3) (pair (0 -- (nv - 1)) bool) in
  pair (return nv) (list_size (1 -- 30) clause)

let random_cnf_arbitrary = QCheck.make ~print:(fun _ -> "<cnf>") random_cnf_gen

let build (nv, cls) =
  let f = Sat.Cnf.create ~num_vars:nv () in
  List.iter (fun c -> Sat.Cnf.add_clause f (List.map lit c)) cls;
  f

let prop_agrees_with_brute_force =
  QCheck.Test.make ~name:"solver agrees with brute force" ~count:600 random_cnf_arbitrary
    (fun input ->
      let cnf = build input in
      let s = Sat.Solver.create cnf in
      match Sat.Solver.solve s with
      | Sat.Solver.Sat -> brute_force cnf
      | Sat.Solver.Unsat -> not (brute_force cnf)
      | Sat.Solver.Unknown -> false)

let prop_models_are_valid =
  QCheck.Test.make ~name:"reported models satisfy the formula" ~count:600
    random_cnf_arbitrary (fun input ->
      let cnf = build input in
      let s = Sat.Solver.create cnf in
      match Sat.Solver.solve s with
      | Sat.Solver.Sat ->
        let m = Sat.Solver.model s in
        Sat.Cnf.eval cnf (fun v -> m.(v))
      | Sat.Solver.Unsat -> true
      | Sat.Solver.Unknown -> false)

let prop_cores_are_unsat =
  QCheck.Test.make ~name:"extracted cores are themselves UNSAT" ~count:400
    random_cnf_arbitrary (fun input ->
      let cnf = build input in
      let s = Sat.Solver.create ~with_proof:true cnf in
      match Sat.Solver.solve s with
      | Sat.Solver.Sat -> true
      | Sat.Solver.Unknown -> false
      | Sat.Solver.Unsat ->
        let core = Sat.Solver.unsat_core s in
        let sub = Sat.Cnf.create ~num_vars:(Sat.Cnf.num_vars cnf) () in
        List.iter (fun i -> Sat.Cnf.add_clause_a sub (Sat.Cnf.get_clause cnf i)) core;
        not (brute_force sub))

let prop_core_vars_cover_core =
  QCheck.Test.make ~name:"core_vars = variables of core clauses" ~count:200
    random_cnf_arbitrary (fun input ->
      let cnf = build input in
      let s = Sat.Solver.create ~with_proof:true cnf in
      match Sat.Solver.solve s with
      | Sat.Solver.Sat | Sat.Solver.Unknown -> true
      | Sat.Solver.Unsat ->
        let core = Sat.Solver.unsat_core s in
        let expected = Hashtbl.create 16 in
        List.iter
          (fun i ->
            Array.iter
              (fun l -> Hashtbl.replace expected (Sat.Lit.var l) ())
              (Sat.Cnf.get_clause cnf i))
          core;
        let expected =
          Hashtbl.fold (fun v () acc -> v :: acc) expected [] |> List.sort Int.compare
        in
        Sat.Solver.core_vars s = expected)

let prop_modes_agree_randomised =
  QCheck.Test.make ~name:"all ordering modes give the same answer" ~count:200
    random_cnf_arbitrary (fun input ->
      let cnf = build input in
      let nv = Sat.Cnf.num_vars cnf in
      let rank = Array.init (max nv 1) (fun i -> float_of_int ((i * 7) mod 5)) in
      let run mode =
        let s = Sat.Solver.create ~mode cnf in
        Sat.Solver.solve s
      in
      let a = run Sat.Order.Vsids in
      let b = run (Sat.Order.Static rank) in
      let c = run (Sat.Order.Dynamic rank) in
      outcome_str a = outcome_str b && outcome_str b = outcome_str c)

let prop_compaction_neutral_randomised =
  QCheck.Test.make ~name:"compaction never changes outcome/learned/core" ~count:300
    random_cnf_arbitrary (fun (_nv, cls) ->
      let o1, s1 = run_with_gc cls ~gc:true in
      let o2, s2 = run_with_gc cls ~gc:false in
      outcome_str o1 = outcome_str o2
      && (Sat.Solver.stats s1).Sat.Stats.learned = (Sat.Solver.stats s2).Sat.Stats.learned
      &&
      match o1 with
      | Sat.Solver.Unsat -> Sat.Solver.core_vars s1 = Sat.Solver.core_vars s2
      | Sat.Solver.Sat | Sat.Solver.Unknown -> true)

(* ------------------------------------------------------------------ *)
(* Reload = create.                                                    *)
(* ------------------------------------------------------------------ *)

(* Solve formula A, drive the solver through the state a reload has to
   undo, reload it with formula B, and compare everything observable with a
   solver created for B: the outcome, the search counters, the model, the
   core and the DRAT log.  B is a growing prefix of A (the BMC shape), an
   unrelated formula, or a smaller one. *)
type reload_case = {
  a : int * (int * bool) list list;
  b : int * (int * bool) list list;
  mode_a : int;
  mode_b : int;
  rank_seed : int;
  proof : bool;
  drat : bool;
  perturb : bool;
}

let print_reload_case c =
  let sz (nv, cls) = Printf.sprintf "%d vars/%d clauses" nv (List.length cls) in
  Printf.sprintf "A %s, B %s, modes %d->%d, rank seed %d, proof %b, drat %b, perturb %b"
    (sz c.a) (sz c.b) c.mode_a c.mode_b c.rank_seed c.proof c.drat c.perturb

let reload_case_gen =
  let open QCheck.Gen in
  (* 3-SAT around its threshold, so that searches conflict, learn,
     restart and reduce *)
  let clause nv = list_repeat 3 (pair (0 -- (nv - 1)) bool) in
  let formula nv = list_size ((3 * nv) -- (5 * nv)) (clause nv) in
  let* nv_b = 3 -- 24 in
  let* cls_b = formula nv_b in
  let* shape = 0 -- 2 in
  let* a =
    match shape with
    | 0 ->
      (* growing prefix: A's clauses are B's first ones, over fewer variables *)
      let* k = 0 -- List.length cls_b in
      let cls = List.filteri (fun i _ -> i < k) cls_b in
      let nv =
        List.fold_left (fun m c -> List.fold_left (fun m (v, _) -> max m (v + 1)) m c) 1 cls
      in
      return (nv, cls)
    | 1 ->
      let* nv = 3 -- 24 in
      let* cls = formula nv in
      return (nv, cls)
    | _ ->
      (* a larger A: B is the smaller formula *)
      let* nv = (nv_b + 1) -- (nv_b + 8) in
      let* cls = list_size (List.length cls_b -- (5 * nv)) (clause nv) in
      return (nv, cls)
  in
  let* mode_a = 0 -- 2 in
  let* mode_b = 0 -- 2 in
  let* rank_seed = 1 -- 97 in
  let* proof = bool in
  let* drat = bool in
  let* perturb = bool in
  return { a; b = (nv_b, cls_b); mode_a; mode_b; rank_seed; proof; drat; perturb }

let order_of ~nv ~seed = function
  | 0 -> Sat.Order.Vsids
  | m ->
    let rank = Array.init nv (fun i -> float_of_int ((i * seed) mod 7)) in
    if m = 1 then Sat.Order.Static rank else Sat.Order.Dynamic rank

(* Outcome, counters, model, core (with an interpolant: the learnt-clause
   table) and DRAT log after one solve. *)
let observe ~proof ~drat s outcome =
  let st = Sat.Solver.stats s in
  ( outcome_str outcome,
    Sat.Stats.
      [
        st.decisions;
        st.decisions_rank;
        st.decisions_vsids;
        st.propagations;
        st.conflicts;
        st.learned;
        st.deleted;
        st.restarts;
        st.heuristic_switches;
        st.max_decision_level;
        st.blocker_hits;
        st.arena_bytes;
        st.arena_compactions;
        st.shared_exported;
        Sat.Solver.proof_edges s;
      ],
    (match outcome with Sat.Solver.Sat -> Some (Sat.Solver.model s) | _ -> None),
    (match outcome with
    | Sat.Solver.Unsat when proof ->
      Some (Sat.Solver.core s, Sat.Solver.interpolant s ~a_side:(fun i -> i land 1 = 0))
    | _ -> None),
    if drat then Some (Sat.Solver.drat_events s) else None )

(* Solve under a small learnt limit (database reduction in small
   searches), inprocess, then keep going incrementally over new variables
   with clause export on: reaches the learnt list, the frozen and
   eliminated marks, the storage past the formula's variables and the taint
   marks. *)
let observe_run ~proof ~drat s =
  Sat.Solver.set_max_learnts s 10;
  let first = observe ~proof ~drat s (Sat.Solver.solve s) in
  List.iter (Sat.Solver.freeze s) [ 0; 1; 2 ];
  let inpr = Sat.Solver.inprocess s in
  inpr.Sat.Inprocess.time <- 0.0;
  let exported = ref [] in
  Sat.Solver.set_share s ~max_lbd:max_int
    ~export:(fun lits ~lbd:_ ~src_id:_ -> exported := Array.to_list lits :: !exported)
    ~import:(fun () -> []);
  let u = Sat.Solver.new_var s in
  let v = Sat.Solver.new_var s in
  Sat.Solver.add_clause s [ Sat.Lit.neg u; Sat.Lit.neg 0; Sat.Lit.pos 1 ];
  Sat.Solver.add_clause s [ Sat.Lit.pos u; Sat.Lit.pos v; Sat.Lit.pos 2 ];
  let second = observe ~proof ~drat s (Sat.Solver.solve s) in
  (first, inpr, second, !exported)

let prop_reload_equals_create =
  QCheck.Test.make ~name:"reload = create (outcome, counters, model, core, DRAT)" ~count:400
    (QCheck.make ~print:print_reload_case reload_case_gen) (fun c ->
      let proof = c.proof and drat = c.drat in
      let mode_of (nv, _) m = order_of ~nv ~seed:c.rank_seed m in
      let s =
        Sat.Solver.create ~with_proof:proof ~with_drat:drat ~mode:(mode_of c.a c.mode_a)
          (build c.a)
      in
      if c.perturb then begin
        (* every setting a reload must drop, and some incremental history *)
        Sat.Solver.set_restart_base s 1;
        Sat.Solver.set_max_learnts s 7;
        Sat.Solver.set_gc_fraction s 1e9;
        Sat.Solver.set_share s ~max_lbd:max_int ~export:(fun _ ~lbd:_ ~src_id:_ -> ())
          ~import:(fun () -> []);
        Sat.Solver.set_order s (mode_of c.a c.mode_a)
          ~hooks:
            {
              Sat.Solver.hk_name = "bias";
              hk_on_conflict = ignore;
              hk_on_restart = ignore;
              hk_bias = (fun _ -> Some true);
            };
        Sat.Solver.mark_local s 0;
        (* variable 0 recurs in the clause added below; the rest must
           thaw again in the reloaded solver *)
        for v = 0 to fst c.a - 1 do
          Sat.Solver.freeze s v
        done
      end;
      ignore (Sat.Solver.solve s);
      if c.perturb then begin
        ignore (Sat.Solver.inprocess s);
        let fresh = Sat.Solver.new_var s in
        Sat.Solver.add_clause s [ Sat.Lit.pos fresh; Sat.Lit.pos 0 ];
        ignore (Sat.Solver.solve ~assumptions:[ Sat.Lit.neg fresh ] s)
      end;
      let mode_b = mode_of c.b c.mode_b in
      Sat.Solver.reload ~mode:mode_b s (build c.b);
      let reloaded = observe_run ~proof ~drat s in
      let created =
        observe_run ~proof ~drat
          (Sat.Solver.create ~with_proof:proof ~with_drat:drat ~mode:mode_b (build c.b))
      in
      reloaded = created)

let tests =
  [
    Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
    Alcotest.test_case "arena walk" `Quick test_arena_walk;
    Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
    Alcotest.test_case "empty formula" `Quick test_empty_formula_sat;
    Alcotest.test_case "empty clause" `Quick test_empty_clause_unsat;
    Alcotest.test_case "implication chain" `Quick test_implication_chain;
    Alcotest.test_case "pigeonhole 3/2" `Quick test_pigeonhole_3_2;
    Alcotest.test_case "satisfiable 3sat" `Quick test_satisfiable_3sat;
    Alcotest.test_case "duplicates and tautologies" `Quick test_duplicate_and_tautological_clauses;
    Alcotest.test_case "conflicting units" `Quick test_conflicting_units_at_creation;
    Alcotest.test_case "solve idempotent" `Quick test_solve_idempotent;
    Alcotest.test_case "conflict budget" `Quick test_conflict_budget;
    Alcotest.test_case "propagation budget" `Quick test_propagation_budget;
    Alcotest.test_case "stop hook aborts" `Quick test_stop_hook_aborts;
    Alcotest.test_case "stop hook bounded latency" `Quick test_stop_hook_bounded_latency;
    Alcotest.test_case "stop hook observed mid-BCP" `Quick test_stop_hook_mid_bcp;
    Alcotest.test_case "stop hook inert" `Quick test_stop_hook_inert;
    Alcotest.test_case "dynamic switch fires" `Quick test_dynamic_switch_fires;
    Alcotest.test_case "core subset" `Quick test_core_subset_of_clauses;
    Alcotest.test_case "core requires proof" `Quick test_unsat_core_requires_proof;
    Alcotest.test_case "caller's clauses untouched" `Quick test_caller_clauses_untouched;
    Alcotest.test_case "model on unsat rejected" `Quick test_model_on_unsat_rejected;
    Alcotest.test_case "wide clauses" `Quick test_wide_clauses;
    Alcotest.test_case "php(6,5) completes" `Quick test_hard_instance_completes_without_budget;
    Alcotest.test_case "modes agree on php" `Quick test_modes_agree;
    Alcotest.test_case "compaction neutral (php)" `Quick test_compaction_neutral_php;
    Alcotest.test_case "compaction neutral (incremental)" `Quick
      test_compaction_neutral_incremental;
    Alcotest.test_case "arena stats populated" `Quick test_arena_stats_populated;
    QCheck_alcotest.to_alcotest prop_compaction_neutral_randomised;
    QCheck_alcotest.to_alcotest prop_agrees_with_brute_force;
    QCheck_alcotest.to_alcotest prop_models_are_valid;
    QCheck_alcotest.to_alcotest prop_cores_are_unsat;
    QCheck_alcotest.to_alcotest prop_core_vars_cover_core;
    QCheck_alcotest.to_alcotest prop_modes_agree_randomised;
    QCheck_alcotest.to_alcotest prop_reload_equals_create;
  ]
