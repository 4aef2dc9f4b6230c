(* Cross-engine differential testing on random circuits.

   Every engine in the repository claims to decide the same question — "is
   the invariant violated within k steps, and if not, does it hold?" — so on
   circuits small enough for the explicit-state oracle they must all agree:

     explicit Reach  =  symbolic (BDD)  =  BMC  =  incremental BMC

   and where the oracle proves the property, induction/abstraction may only
   ever say Proved or Unknown, never Falsified.  Random circuits exercise
   gate mixes, nondeterministic initial values and degenerate properties
   (constants, inputs as properties) that the hand-written generators never
   produce. *)

let random_case_gen =
  let open QCheck.Gen in
  let* seed = 0 -- 100_000 in
  let* regs = 1 -- 6 in
  let* gates = 1 -- 25 in
  let* inputs = 0 -- 3 in
  return (Circuit.Generators.random ~seed ~regs ~gates ~inputs)

let arb =
  QCheck.make ~print:(fun (c : Circuit.Generators.case) -> c.name) random_case_gen


let prop_bmc_engines_match_oracle =
  QCheck.Test.make ~name:"random circuits: BMC (all modes) = explicit oracle" ~count:60 arb
    (fun case ->
      match Circuit.Reach.check case.netlist ~property:case.property with
      | Circuit.Reach.Too_large -> true
      | oracle ->
        let depth =
          match oracle with
          | Circuit.Reach.Fails_at j -> j + 2
          | Circuit.Reach.Holds { diameter } -> diameter + 2
          | Circuit.Reach.Too_large -> assert false
        in
        List.for_all
          (fun mode ->
            let config = Bmc.Session.make_config ~mode ~max_depth:depth () in
            let r =
              Bmc.Session.check ~config ~policy:Bmc.Session.Fresh case.netlist
                ~property:case.property
            in
            match (oracle, r.verdict) with
            | Circuit.Reach.Fails_at j, Bmc.Session.Falsified t -> t.Bmc.Trace.depth = j
            | Circuit.Reach.Holds _, Bmc.Session.Bounded_pass _ -> true
            | (Circuit.Reach.Fails_at _ | Circuit.Reach.Holds _ | Circuit.Reach.Too_large), _
              ->
              false)
          Test_engine.modes)

let prop_incremental_matches_oracle =
  QCheck.Test.make ~name:"random circuits: incremental BMC = explicit oracle" ~count:60 arb
    (fun case ->
      match Circuit.Reach.check case.netlist ~property:case.property with
      | Circuit.Reach.Too_large -> true
      | oracle ->
        let depth =
          match oracle with
          | Circuit.Reach.Fails_at j -> j + 2
          | Circuit.Reach.Holds { diameter } -> diameter + 2
          | Circuit.Reach.Too_large -> assert false
        in
        let config = Bmc.Session.make_config ~mode:Bmc.Session.Dynamic ~max_depth:depth () in
        let r =
          Bmc.Session.check ~config ~policy:Bmc.Session.Persistent case.netlist
            ~property:case.property
        in
        (match (oracle, r.verdict) with
        | Circuit.Reach.Fails_at j, Bmc.Session.Falsified t -> t.Bmc.Trace.depth = j
        | Circuit.Reach.Holds _, Bmc.Session.Bounded_pass _ -> true
        | (Circuit.Reach.Fails_at _ | Circuit.Reach.Holds _ | Circuit.Reach.Too_large), _ ->
          false))

let prop_symbolic_matches_oracle =
  QCheck.Test.make ~name:"random circuits: symbolic = explicit oracle (with diameters)"
    ~count:80 arb (fun case ->
      match Circuit.Reach.check case.netlist ~property:case.property with
      | Circuit.Reach.Too_large -> true
      | oracle -> (
        match (oracle, Bmc.Symbolic.check case.netlist ~property:case.property) with
        | Circuit.Reach.Fails_at a, Bmc.Symbolic.Fails_at b -> a = b
        | Circuit.Reach.Holds { diameter = a }, Bmc.Symbolic.Holds { diameter = b } -> a = b
        | (Circuit.Reach.Fails_at _ | Circuit.Reach.Holds _ | Circuit.Reach.Too_large), _ ->
          false))

let prop_proof_engines_never_unsound =
  QCheck.Test.make ~name:"random circuits: induction/abstraction never contradict the oracle"
    ~count:40 arb (fun case ->
      match Circuit.Reach.check case.netlist ~property:case.property with
      | Circuit.Reach.Too_large -> true
      | oracle ->
        let config = Bmc.Session.make_config ~mode:Bmc.Session.Static ~max_depth:8 () in
        let ind = (Bmc.Induction.prove ~config case.netlist ~property:case.property).verdict in
        let abs =
          (Bmc.Abstraction.prove ~config case.netlist ~property:case.property).verdict
        in
        let ind_ok =
          match (oracle, ind) with
          | Circuit.Reach.Holds _, (Bmc.Induction.Proved _ | Bmc.Induction.Unknown _) -> true
          | Circuit.Reach.Fails_at j, Bmc.Induction.Falsified t ->
            j = t.Bmc.Trace.depth
          | Circuit.Reach.Fails_at j, Bmc.Induction.Unknown _ -> j > 8
          | (Circuit.Reach.Fails_at _ | Circuit.Reach.Holds _ | Circuit.Reach.Too_large), _ ->
            false
        in
        let abs_ok =
          match (oracle, abs) with
          | Circuit.Reach.Holds _, (Bmc.Abstraction.Proved _ | Bmc.Abstraction.Unknown _) ->
            true
          | Circuit.Reach.Fails_at j, Bmc.Abstraction.Falsified t -> j = t.Bmc.Trace.depth
          | Circuit.Reach.Fails_at j, Bmc.Abstraction.Unknown _ -> j > 8
          | (Circuit.Reach.Fails_at _ | Circuit.Reach.Holds _ | Circuit.Reach.Too_large), _ ->
            false
        in
        ind_ok && abs_ok)

let prop_formats_preserve_random_circuits =
  QCheck.Test.make ~name:"random circuits: .rnl and AIGER roundtrips preserve the verdict"
    ~count:60 arb (fun case ->
      let reference = Circuit.Reach.check case.netlist ~property:case.property in
      let via_rnl =
        let nl, p =
          Circuit.Textio.parse_string
            (Circuit.Textio.to_string case.netlist ~property:case.property)
        in
        Circuit.Reach.check nl ~property:p
      in
      let via_aiger =
        let nl, p =
          Circuit.Aiger.parse_string
            (Circuit.Aiger.to_binary case.netlist ~property:case.property)
        in
        Circuit.Reach.check nl ~property:p
      in
      (* the cone can change shape under lowering, so compare only the
         verdict kind and depth, not diameters *)
      let same a b =
        match (a, b) with
        | Circuit.Reach.Fails_at x, Circuit.Reach.Fails_at y -> x = y
        | Circuit.Reach.Holds _, Circuit.Reach.Holds _ -> true
        | Circuit.Reach.Too_large, _ | _, Circuit.Reach.Too_large -> true
        | (Circuit.Reach.Fails_at _ | Circuit.Reach.Holds _), _ -> false
      in
      same reference via_rnl && same reference via_aiger)

let prop_drat_on_random_bmc_instances =
  QCheck.Test.make ~name:"random circuits: BMC instances' refutations pass the RUP checker"
    ~count:40 arb (fun case ->
      let u = Bmc.Unroll.create case.netlist ~property:case.property in
      let ok = ref true in
      for k = 0 to 3 do
        let cnf = Bmc.Unroll.instance u ~k in
        let s = Sat.Solver.create ~with_drat:true cnf in
        match Sat.Solver.solve s with
        | Sat.Solver.Unsat ->
          if Sat.Checker.check_refutation cnf (Sat.Solver.drat_events s) <> Ok () then
            ok := false
        | Sat.Solver.Sat | Sat.Solver.Unknown -> ()
      done;
      !ok)

let prop_compaction_neutral_on_bmc_instances =
  QCheck.Test.make
    ~name:"random circuits: forced arena compaction preserves BMC outcomes and cores" ~count:40
    arb (fun case ->
      let u = Bmc.Unroll.create case.netlist ~property:case.property in
      let ok = ref true in
      for k = 0 to 3 do
        let cnf = Bmc.Unroll.instance u ~k in
        let solve_with ~gc =
          (* a tiny learnt limit forces reduce_db every few conflicts; the
             gc flag then decides whether each reduction also compacts *)
          let s = Sat.Solver.create ~with_proof:true cnf in
          Sat.Solver.set_max_learnts s 5;
          Sat.Solver.set_gc_fraction s (if gc then 0.0 else infinity);
          (Sat.Solver.solve s, s)
        in
        let o1, s1 = solve_with ~gc:true in
        let o2, s2 = solve_with ~gc:false in
        (* identical deletion schedule: compaction must be invisible *)
        if Sat.Solver.outcome_string o1 <> Sat.Solver.outcome_string o2 then ok := false;
        (* and neither run may disagree with an untouched solver's answer *)
        let o3 = Sat.Solver.solve (Sat.Solver.create cnf) in
        if Sat.Solver.outcome_string o1 <> Sat.Solver.outcome_string o3 then ok := false;
        match (o1, o2) with
        | Sat.Solver.Unsat, Sat.Solver.Unsat ->
          if Sat.Solver.unsat_core s1 <> Sat.Solver.unsat_core s2 then ok := false;
          if Sat.Solver.core_vars s1 <> Sat.Solver.core_vars s2 then ok := false
        | _ -> ()
      done;
      !ok)

(* The service layer is one more engine claiming the same answer: a served
   request (cold, and again warm from the cache) must agree with a direct
   incremental session on random circuits. *)
let test_serve_matches_session () =
  let cfg = Serve.Server.make_config ~mode:Bmc.Session.Dynamic () in
  let t = Serve.Server.create cfg in
  Fun.protect ~finally:(fun () -> Serve.Server.shutdown t) @@ fun () ->
  List.iter
    (fun seed ->
      let case = Circuit.Generators.random ~seed ~regs:4 ~gates:15 ~inputs:2 in
      let depth = 6 in
      let config = Bmc.Session.make_config ~mode:Bmc.Session.Dynamic ~max_depth:depth () in
      let want =
        Bmc.Session.check ~config ~policy:Bmc.Session.Persistent case.netlist
          ~property:case.property
      in
      let request id =
        {
          Serve.Protocol.rq_id = Printf.sprintf "%d/%s" seed id;
          rq_src =
            Serve.Protocol.Inline
              (Circuit.Textio.to_string case.netlist ~property:case.property);
          rq_depth = depth;
          rq_mode = None;
          rq_deadline_ms = None;
          rq_stats = false;
        }
      in
      let verdict rs =
        match rs.Serve.Protocol.rs_reply with
        | Serve.Protocol.Answer b -> b
        | _ -> Alcotest.failf "seed %d: request refused" seed
      in
      let check_against what (b : Serve.Protocol.body) =
        match (want.Bmc.Session.verdict, b.Serve.Protocol.rs_verdict) with
        | Bmc.Session.Falsified tr, Serve.Protocol.Falsified (d, tj) ->
          Alcotest.(check int) (Printf.sprintf "seed %d %s: failure depth" seed what)
            tr.Bmc.Trace.depth d;
          Alcotest.(check string) (Printf.sprintf "seed %d %s: trace" seed what)
            (Obs.Json.to_string (Serve.Protocol.trace_to_json case.netlist tr))
            (Obs.Json.to_string tj)
        | Bmc.Session.Bounded_pass k, Serve.Protocol.Bounded_pass d ->
          Alcotest.(check int) (Printf.sprintf "seed %d %s: bound" seed what) k d
        | _ -> Alcotest.failf "seed %d %s: session and serve verdicts diverge" seed what
      in
      let cold = verdict (Serve.Server.check_now t (request "cold")) in
      check_against "cold" cold;
      let warm = verdict (Serve.Server.check_now t (request "repeat")) in
      Alcotest.(check string) (Printf.sprintf "seed %d: repeat served from cache" seed)
        "hit"
        (Serve.Protocol.cache_class_string warm.Serve.Protocol.rs_cache);
      check_against "repeat" warm)
    [ 3; 1415; 92653; 58979; 32384; 62643; 38327; 95028; 84197; 16939 ]

let tests =
  [
    Alcotest.test_case "serve = incremental session (cold and cached)" `Quick
      test_serve_matches_session;
    QCheck_alcotest.to_alcotest prop_bmc_engines_match_oracle;
    QCheck_alcotest.to_alcotest prop_incremental_matches_oracle;
    QCheck_alcotest.to_alcotest prop_symbolic_matches_oracle;
    QCheck_alcotest.to_alcotest prop_proof_engines_never_unsound;
    QCheck_alcotest.to_alcotest prop_formats_preserve_random_circuits;
    QCheck_alcotest.to_alcotest prop_drat_on_random_bmc_instances;
  ]
