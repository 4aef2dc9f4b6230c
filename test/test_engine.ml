(* The refine_order_bmc driver: integration against the oracle, per-depth
   statistics, budgets, core refinement behaviour. *)

(* The four built-in orderings, resolved by name through the registry like
   every other ordering. *)
let modes =
  List.map
    (fun name -> Option.get (Ordering.mode_of_name name))
    [ "standard"; "static"; "dynamic"; "shtrichman" ]

let verdict_matches (expect : Circuit.Generators.expect) (v : Bmc.Session.verdict) =
  match (expect, v) with
  | Circuit.Generators.Fails_at k, Bmc.Session.Falsified t -> t.Bmc.Trace.depth = k
  | Circuit.Generators.Holds, Bmc.Session.Bounded_pass _ -> true
  | ( (Circuit.Generators.Fails_at _ | Circuit.Generators.Holds),
      (Bmc.Session.Falsified _ | Bmc.Session.Bounded_pass _ | Bmc.Session.Aborted _) ) ->
    false

(* Every mode must agree with the analytic verdict on every tiny case. *)
let test_all_modes_all_tiny_cases () =
  List.iter
    (fun (case : Circuit.Generators.case) ->
      match case.expect with
      | None -> ()
      | Some expect ->
        List.iter
          (fun mode ->
            let config = Bmc.Session.make_config ~mode ~max_depth:case.suggested_depth () in
            let r =
              Bmc.Session.check ~config ~policy:Bmc.Session.Fresh case.netlist
                ~property:case.property
            in
            if not (verdict_matches expect r.verdict) then
              Alcotest.failf "%s in mode %a: expected %a, got %a" case.name Bmc.Session.pp_mode
                mode Circuit.Generators.pp_expect expect Bmc.Session.pp_verdict r.verdict)
          modes)
    (Circuit.Generators.tiny_suite ())

let test_per_depth_stats_shape () =
  let case = Circuit.Generators.counter ~bits:3 ~target:5 () in
  let r =
    Bmc.Session.check
      ~config:(Bmc.Session.make_config ~mode:Bmc.Session.Static ~max_depth:10 ())
      ~policy:Bmc.Session.Fresh case.netlist ~property:case.property
  in
  Alcotest.(check int) "one stat per depth 0..5" 6 (List.length r.per_depth);
  List.iteri
    (fun i (d : Bmc.Session.depth_stat) -> Alcotest.(check int) "depths ascending" i d.depth)
    r.per_depth;
  let last = List.nth r.per_depth 5 in
  Alcotest.(check string) "last is SAT" "SAT" (Format.asprintf "%a" Sat.Solver.pp_outcome last.outcome)

let test_core_refinement_populates_scores () =
  (* in Static mode, UNSAT depths must report non-empty cores *)
  let case = Circuit.Generators.ring ~len:4 () in
  let r =
    Bmc.Session.check
      ~config:(Bmc.Session.make_config ~mode:Bmc.Session.Static ~max_depth:5 ())
      ~policy:Bmc.Session.Fresh case.netlist ~property:case.property
  in
  List.iter
    (fun (d : Bmc.Session.depth_stat) ->
      Alcotest.(check bool)
        (Printf.sprintf "core at depth %d nonempty" d.depth)
        true (d.core_size > 0 && d.core_var_count > 0))
    r.per_depth

let test_standard_mode_skips_proof_logging () =
  let case = Circuit.Generators.ring ~len:4 () in
  let r =
    Bmc.Session.check
      ~config:(Bmc.Session.make_config ~mode:Bmc.Session.Standard ~max_depth:4 ())
      ~policy:Bmc.Session.Fresh case.netlist ~property:case.property
  in
  List.iter
    (fun (d : Bmc.Session.depth_stat) ->
      Alcotest.(check int) "no cores collected" 0 d.core_size)
    r.per_depth

let test_collect_cores_flag () =
  let case = Circuit.Generators.ring ~len:4 () in
  let r =
    Bmc.Session.check
      ~config:
        (Bmc.Session.make_config ~mode:Bmc.Session.Standard ~collect_cores:true ~max_depth:4 ())
      ~policy:Bmc.Session.Fresh case.netlist ~property:case.property
  in
  List.iter
    (fun (d : Bmc.Session.depth_stat) ->
      Alcotest.(check bool) "cores collected in standard mode" true (d.core_size > 0))
    r.per_depth

let test_budget_aborts () =
  let case = Circuit.Generators.parity_pipe ~stages:12 () in
  let budget =
    { Sat.Solver.max_conflicts = Some 1; max_propagations = Some 10; max_seconds = None; stop = None }
  in
  let r =
    Bmc.Session.check
      ~config:(Bmc.Session.make_config ~mode:Bmc.Session.Standard ~budget ~max_depth:24 ())
      ~policy:Bmc.Session.Fresh case.netlist ~property:case.property
  in
  match r.verdict with
  | Bmc.Session.Aborted _ -> ()
  | v -> Alcotest.failf "expected abort on tiny budget, got %a" Bmc.Session.pp_verdict v

let test_coi_equivalent_results () =
  let case = Circuit.Generators.counter ~bits:3 ~target:5 ~noise:6 () in
  let run coi =
    Bmc.Session.check
      ~config:(Bmc.Session.make_config ~mode:Bmc.Session.Dynamic ~coi ~max_depth:6 ())
      ~policy:Bmc.Session.Fresh case.netlist ~property:case.property
  in
  match ((run false).verdict, (run true).verdict) with
  | Bmc.Session.Falsified a, Bmc.Session.Falsified b ->
    Alcotest.(check int) "same depth with and without COI" a.Bmc.Trace.depth b.Bmc.Trace.depth
  | _, _ -> Alcotest.fail "both runs must falsify"

let test_totals_are_sums () =
  let case = Circuit.Generators.fifo_safe ~bits:3 () in
  let r =
    Bmc.Session.check
      ~config:(Bmc.Session.make_config ~mode:Bmc.Session.Dynamic ~max_depth:6 ())
      ~policy:Bmc.Session.Fresh case.netlist ~property:case.property
  in
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 r.per_depth in
  Alcotest.(check int) "decisions" (sum (fun (d : Bmc.Session.depth_stat) -> d.decisions))
    r.total_decisions;
  Alcotest.(check int) "implications" (sum (fun (d : Bmc.Session.depth_stat) -> d.implications))
    r.total_implications;
  Alcotest.(check int) "conflicts" (sum (fun (d : Bmc.Session.depth_stat) -> d.conflicts))
    r.total_conflicts

let test_weightings_agree_on_verdict () =
  let case = Circuit.Generators.johnson ~width:5 () in
  List.iter
    (fun weighting ->
      let r =
        Bmc.Session.check
          ~config:(Bmc.Session.make_config ~mode:Bmc.Session.Static ~weighting ~max_depth:8 ())
          ~policy:Bmc.Session.Fresh case.netlist ~property:case.property
      in
      match r.verdict with
      | Bmc.Session.Bounded_pass 8 -> ()
      | v -> Alcotest.failf "weighting changed verdict: %a" Bmc.Session.pp_verdict v)
    [ Bmc.Score.Linear; Bmc.Score.Uniform; Bmc.Score.Last_only ]

(* The registry is the one ordering namespace: every entry's mode prints
   as its name, and so does the mode its name resolves to.  Names are
   compared, not modes: [=] on a [Custom] mode raises on its closures. *)
let test_mode_round_trip () =
  List.iter
    (fun spec ->
      let name = Ordering.name spec in
      Alcotest.(check string) ("spec " ^ name) name (Bmc.Session.mode_string (Ordering.mode spec));
      match Ordering.mode_of_name name with
      | Some m -> Alcotest.(check string) ("resolve " ^ name) name (Bmc.Session.mode_string m)
      | None -> Alcotest.failf "registry name %s does not resolve" name)
    (Ordering.specs ());
  Alcotest.(check bool) "unknown name rejected" true
    (Option.is_none (Ordering.mode_of_name "vsids"))

(* Randomised integration: random small circuits, engine vs oracle. *)
let random_case_gen =
  let open QCheck.Gen in
  let noise = oneofl [ 0; 2; 4 ] in
  oneof
    [
      (pair (1 -- 6) noise >|= fun (t, z) ->
       Circuit.Generators.counter ~bits:3 ~target:t ~noise:z ());
      (pair (1 -- 6) noise >|= fun (t, z) ->
       Circuit.Generators.counter_en ~bits:3 ~target:t ~noise:z ());
      (pair (2 -- 5) noise >|= fun (l, z) -> Circuit.Generators.shift_in ~len:l ~noise:z ());
      (pair (3 -- 6) noise >|= fun (l, z) -> Circuit.Generators.ring ~len:l ~noise:z ());
      (pair (2 -- 4) noise >|= fun (s, z) ->
       Circuit.Generators.parity_pipe ~stages:s ~noise:z ());
      (pair (4 -- 6) noise >|= fun (w, z) -> Circuit.Generators.johnson ~width:w ~noise:z ());
    ]

let prop_engine_matches_oracle =
  QCheck.Test.make ~name:"engine verdict = oracle verdict (all modes)" ~count:40
    (QCheck.make ~print:(fun (c : Circuit.Generators.case) -> c.name) random_case_gen)
    (fun case ->
      let oracle = Circuit.Reach.check case.netlist ~property:case.property in
      List.for_all
        (fun mode ->
          let config = Bmc.Session.make_config ~mode ~max_depth:case.suggested_depth () in
          let r =
            Bmc.Session.check ~config ~policy:Bmc.Session.Fresh case.netlist
              ~property:case.property
          in
          match (oracle, r.verdict) with
          | Circuit.Reach.Fails_at k, Bmc.Session.Falsified t -> t.Bmc.Trace.depth = k
          | Circuit.Reach.Holds _, Bmc.Session.Bounded_pass _ -> true
          | Circuit.Reach.Too_large, _ -> true
          | (Circuit.Reach.Fails_at _ | Circuit.Reach.Holds _), _ -> false)
        modes)

let tests =
  [
    Alcotest.test_case "all modes, all tiny cases" `Slow test_all_modes_all_tiny_cases;
    Alcotest.test_case "per-depth stats" `Quick test_per_depth_stats_shape;
    Alcotest.test_case "core refinement" `Quick test_core_refinement_populates_scores;
    Alcotest.test_case "standard skips proofs" `Quick test_standard_mode_skips_proof_logging;
    Alcotest.test_case "collect_cores flag" `Quick test_collect_cores_flag;
    Alcotest.test_case "budget aborts" `Quick test_budget_aborts;
    Alcotest.test_case "COI equivalence" `Quick test_coi_equivalent_results;
    Alcotest.test_case "totals are sums" `Quick test_totals_are_sums;
    Alcotest.test_case "weightings agree" `Quick test_weightings_agree_on_verdict;
    Alcotest.test_case "mode round trip" `Quick test_mode_round_trip;
    QCheck_alcotest.to_alcotest prop_engine_matches_oracle;
  ]
