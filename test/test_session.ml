(* The session layer: frame-delta loading is exactly the monolithic
   unrolling in pieces, each frame enters the persistent solver once
   (the O(delta) clause-construction claim), and both policies are
   observationally equal to the seed per-depth algorithm. *)

let lit_ints clause = List.map Sat.Lit.to_index clause

let clauses_of_cnf cnf =
  let acc = ref [] in
  Sat.Cnf.iter_clauses (fun _ c -> acc := lit_ints (Array.to_list c) :: !acc) cnf;
  List.rev !acc

(* Concatenating the frame deltas 0..k of one unroller must reproduce
   [base_cnf ~k] of another clause-for-clause, in order, at every depth. *)
let delta_concat_agrees (case : Circuit.Generators.case) ~max_k =
  let whole = Bmc.Unroll.create case.netlist ~property:case.property in
  let delta = Bmc.Unroll.create case.netlist ~property:case.property in
  let ok = ref true in
  for k = 0 to max_k do
    let base = Bmc.Unroll.base_cnf whole ~k in
    let concatenated =
      List.concat_map
        (fun f -> clauses_of_cnf (Bmc.Unroll.delta_cnf delta ~frame:f))
        (List.init (k + 1) Fun.id)
    in
    if clauses_of_cnf base <> concatenated then ok := false;
    if Sat.Cnf.num_vars base <> Sat.Cnf.num_vars (Bmc.Unroll.delta_cnf delta ~frame:k) then
      ok := false
  done;
  !ok

let test_delta_concatenation () =
  List.iter
    (fun (case : Circuit.Generators.case) ->
      Alcotest.(check bool)
        (case.name ^ ": concatenated deltas = monolithic unrolling")
        true
        (delta_concat_agrees case ~max_k:(min 6 case.suggested_depth)))
    (Circuit.Generators.tiny_suite ())

let random_case_gen =
  let open QCheck.Gen in
  let* seed = 0 -- 100_000 in
  let* regs = 1 -- 6 in
  let* gates = 1 -- 25 in
  let* inputs = 0 -- 3 in
  return (Circuit.Generators.random ~seed ~regs ~gates ~inputs)

let arb =
  QCheck.make ~print:(fun (c : Circuit.Generators.case) -> c.name) random_case_gen

let prop_delta_concat_random =
  QCheck.Test.make ~name:"random circuits: frame deltas concatenate to base_cnf" ~count:80 arb
    (fun case -> delta_concat_agrees case ~max_k:4)

(* Drive a persistent session through every depth: the total clauses loaded
   must equal the unroller's base clause count — each frame entered the
   solver exactly once, never rebuilt. *)
let test_each_frame_loaded_once () =
  let case = Circuit.Generators.ring ~len:6 () in
  let config = Bmc.Session.make_config ~mode:Bmc.Session.Static ~max_depth:8 () in
  let s =
    Bmc.Session.create ~policy:Bmc.Session.Persistent config case.netlist
      ~property:case.property
  in
  for k = 0 to 8 do
    Bmc.Session.begin_instance s ~k;
    Bmc.Session.constrain s [ Sat.Lit.neg (Bmc.Session.var_of s ~node:case.property ~frame:k) ];
    ignore (Bmc.Session.solve_instance s)
  done;
  Alcotest.(check int) "clauses loaded = base clauses (each frame exactly once)"
    (Bmc.Unroll.num_base_clauses (Bmc.Session.unroll s))
    (Bmc.Session.loaded_clauses s)

(* ------------------------------------------------------------------ *)
(* Differential: the session's Fresh policy vs an inline transcription *)
(* of the seed per-depth algorithm (rebuild Unroll.instance, fresh     *)
(* solver, Score.update on cores).  Outcomes, decision counts and the  *)
(* exact core variable sets must coincide at every depth.              *)
(* ------------------------------------------------------------------ *)

type instance_log = {
  i_depth : int;
  i_outcome : string;
  i_decisions : int;
  i_core_vars : int list;
}

let pp_log l =
  Printf.sprintf "k=%d %s dec=%d core=[%s]" l.i_depth l.i_outcome l.i_decisions
    (String.concat "," (List.map string_of_int l.i_core_vars))

let run_seed_style (case : Circuit.Generators.case) ~mode ~max_depth =
  let cfg = Bmc.Session.make_config ~mode ~max_depth () in
  let unroll = Bmc.Unroll.create case.netlist ~property:case.property in
  let score = Bmc.Score.create () in
  let with_proof = Bmc.Session.uses_cores mode in
  let rec loop k acc =
    if k > max_depth then (List.rev acc, None)
    else begin
      let cnf = Bmc.Unroll.instance unroll ~k in
      let solver =
        Sat.Solver.create ~with_proof ~mode:(Bmc.Session.order_mode cfg unroll score ~k) cnf
      in
      let outcome = Sat.Solver.solve solver in
      let stats = Sat.Solver.stats solver in
      let core_vars =
        match outcome with
        | Sat.Solver.Unsat when with_proof -> Sat.Solver.core_vars solver
        | Sat.Solver.Unsat | Sat.Solver.Sat | Sat.Solver.Unknown -> []
      in
      let entry =
        {
          i_depth = k;
          i_outcome = Sat.Solver.outcome_string outcome;
          i_decisions = stats.Sat.Stats.decisions;
          i_core_vars = core_vars;
        }
      in
      match outcome with
      | Sat.Solver.Unsat ->
        if with_proof then Bmc.Score.update score ~instance:k ~core_vars;
        loop (k + 1) (entry :: acc)
      | Sat.Solver.Sat ->
        let trace = Bmc.Trace.of_model unroll ~k ~model:(Sat.Solver.model solver) in
        (List.rev (entry :: acc), Some trace)
      | Sat.Solver.Unknown -> (List.rev (entry :: acc), None)
    end
  in
  loop 0 []

let run_session_fresh (case : Circuit.Generators.case) ~mode ~max_depth =
  let cfg = Bmc.Session.make_config ~mode ~max_depth () in
  let s =
    Bmc.Session.create ~policy:Bmc.Session.Fresh cfg case.netlist ~property:case.property
  in
  let rec loop k acc =
    if k > max_depth then (List.rev acc, None)
    else begin
      Bmc.Session.begin_instance s ~k;
      Bmc.Session.constrain s
        [ Sat.Lit.neg (Bmc.Session.var_of s ~node:case.property ~frame:k) ];
      let st = Bmc.Session.solve_instance s in
      let entry =
        {
          i_depth = k;
          i_outcome = Sat.Solver.outcome_string st.Bmc.Session.outcome;
          i_decisions = st.Bmc.Session.decisions;
          i_core_vars = Bmc.Session.last_core_vars s;
        }
      in
      match st.Bmc.Session.outcome with
      | Sat.Solver.Unsat -> loop (k + 1) (entry :: acc)
      | Sat.Solver.Sat -> (List.rev (entry :: acc), Some (Bmc.Session.trace s))
      | Sat.Solver.Unknown -> (List.rev (entry :: acc), None)
    end
  in
  loop 0 []

let test_fresh_policy_equals_seed_algorithm () =
  List.iter
    (fun ((case : Circuit.Generators.case), max_depth) ->
      List.iter
        (fun mode ->
          let seed_log, seed_trace = run_seed_style case ~mode ~max_depth in
          let sess_log, sess_trace = run_session_fresh case ~mode ~max_depth in
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%s: identical per-depth instances" case.name
               (Format.asprintf "%a" Bmc.Session.pp_mode mode))
            (List.map pp_log seed_log) (List.map pp_log sess_log);
          Alcotest.(check bool)
            (case.name ^ ": identical counterexample traces")
            true
            (seed_trace = sess_trace))
        [ Bmc.Session.Standard; Bmc.Session.Static ])
    [
      (Circuit.Generators.counter_en ~bits:3 ~target:5 (), 8);
      (Circuit.Generators.ring ~len:4 (), 5);
      (Circuit.Generators.fifo_overflow ~bits:2 (), 6);
    ]

(* Core churn is a diff against the previous instance's core: over an
   all-UNSAT chain, each depth's core is the previous one minus what was
   dropped plus what is new, and some variables must carry over (a diff
   against an empty core would report every variable as new). *)
let test_core_churn_is_a_diff () =
  let case = Circuit.Generators.ring ~len:8 () in
  List.iter
    (fun policy ->
      let config = Bmc.Session.make_config ~mode:Bmc.Session.Dynamic ~max_depth:8 () in
      let r = Bmc.Session.check ~config ~policy case.netlist ~property:case.property in
      let name = Format.asprintf "%a" Bmc.Session.pp_policy policy in
      let carried = ref false in
      ignore
        (List.fold_left
           (fun prev (d : Bmc.Session.depth_stat) ->
             Alcotest.(check string) (name ^ ": UNSAT chain") "unsat"
               (Sat.Solver.outcome_string d.outcome);
             Alcotest.(check int)
               (Printf.sprintf "%s k=%d: |core| = |prev| - dropped + new" name d.depth)
               d.core_var_count
               (prev - d.core_dropped + d.core_new);
             if d.core_new < d.core_var_count then carried := true;
             d.core_var_count)
           0 r.Bmc.Session.per_depth);
      Alcotest.(check bool) (name ^ ": some core variables carry over") true !carried)
    [ Bmc.Session.Persistent; Bmc.Session.Fresh ]

(* ------------------------------------------------------------------ *)
(* Fresh vs Persistent: the two substrates may search differently but  *)
(* must decide identically, engine by engine.                          *)
(* ------------------------------------------------------------------ *)

let test_policies_agree_invariant () =
  List.iter
    (fun (case : Circuit.Generators.case) ->
      let config =
        Bmc.Session.make_config ~mode:Bmc.Session.Static ~max_depth:case.suggested_depth ()
      in
      let f =
        Bmc.Session.check ~config ~policy:Bmc.Session.Fresh case.netlist
          ~property:case.property
      in
      let p =
        Bmc.Session.check ~config ~policy:Bmc.Session.Persistent case.netlist
          ~property:case.property
      in
      (match (f.Bmc.Session.verdict, p.Bmc.Session.verdict) with
      | Bmc.Session.Falsified a, Bmc.Session.Falsified b ->
        Alcotest.(check int) (case.name ^ ": same cex depth") a.Bmc.Trace.depth b.Bmc.Trace.depth;
        Alcotest.(check bool) (case.name ^ ": persistent trace replays") true
          (Bmc.Trace.replay b case.netlist ~property:case.property)
      | Bmc.Session.Bounded_pass a, Bmc.Session.Bounded_pass b ->
        Alcotest.(check int) (case.name ^ ": same bound") a b
      | a, b ->
        Alcotest.failf "%s: policies disagree: %a vs %a" case.name Bmc.Session.pp_verdict a
          Bmc.Session.pp_verdict b);
      Alcotest.(check (list string))
        (case.name ^ ": same per-depth outcomes")
        (List.map
           (fun (d : Bmc.Session.depth_stat) -> Sat.Solver.outcome_string d.outcome)
           f.Bmc.Session.per_depth)
        (List.map
           (fun (d : Bmc.Session.depth_stat) -> Sat.Solver.outcome_string d.outcome)
           p.Bmc.Session.per_depth))
    (Circuit.Generators.tiny_suite ())

let test_policies_agree_induction () =
  List.iter
    (fun (case : Circuit.Generators.case) ->
      let config = Bmc.Session.make_config ~mode:Bmc.Session.Static ~max_depth:10 () in
      let f = Bmc.Induction.prove ~config ~policy:Bmc.Session.Fresh case.netlist ~property:case.property in
      let p =
        Bmc.Induction.prove ~config ~policy:Bmc.Session.Persistent case.netlist
          ~property:case.property
      in
      match (f.Bmc.Induction.verdict, p.Bmc.Induction.verdict) with
      | Bmc.Induction.Proved a, Bmc.Induction.Proved b ->
        Alcotest.(check int) (case.name ^ ": same proof depth") a b
      | Bmc.Induction.Falsified a, Bmc.Induction.Falsified b ->
        Alcotest.(check int) (case.name ^ ": same cex depth") a.Bmc.Trace.depth b.Bmc.Trace.depth;
        Alcotest.(check bool) (case.name ^ ": persistent trace replays") true
          (Bmc.Trace.replay b case.netlist ~property:case.property)
      | Bmc.Induction.Unknown a, Bmc.Induction.Unknown b ->
        Alcotest.(check int) (case.name ^ ": same give-up depth") a b
      | a, b ->
        Alcotest.failf "%s: policies disagree: %a vs %a" case.name Bmc.Induction.pp_verdict a
          Bmc.Induction.pp_verdict b)
    [
      Circuit.Generators.ring ~len:5 ();
      Circuit.Generators.counter ~bits:3 ~target:5 ();
      Circuit.Generators.arbiter ~clients:4 ();
    ]

let test_policies_agree_ltl () =
  let case = Circuit.Generators.counter_en ~bits:3 ~target:5 () in
  List.iter
    (fun formula ->
      let config = Bmc.Session.make_config ~mode:Bmc.Session.Static ~max_depth:8 () in
      let f = Bmc.Ltl.check ~config ~policy:Bmc.Session.Fresh case.netlist formula in
      let p = Bmc.Ltl.check ~config ~policy:Bmc.Session.Persistent case.netlist formula in
      match (f.Bmc.Ltl.verdict, p.Bmc.Ltl.verdict) with
      | Bmc.Ltl.Falsified a, Bmc.Ltl.Falsified b ->
        Alcotest.(check int) "same witness depth" a.Bmc.Ltl.depth b.Bmc.Ltl.depth;
        Alcotest.(check (option int)) "same loop shape" a.Bmc.Ltl.loop_start b.Bmc.Ltl.loop_start
      | Bmc.Ltl.Bounded_pass a, Bmc.Ltl.Bounded_pass b ->
        Alcotest.(check int) "same bound" a b
      | (Bmc.Ltl.Falsified _ | Bmc.Ltl.Bounded_pass _ | Bmc.Ltl.Aborted _), _ ->
        Alcotest.fail "policies disagree on the LTL verdict")
    [
      Bmc.Ltl.always (Bmc.Ltl.atom case.property);
      Bmc.Ltl.eventually (Bmc.Ltl.not_ (Bmc.Ltl.atom case.property));
    ]

let tests =
  [
    Alcotest.test_case "deltas concatenate to base_cnf" `Quick test_delta_concatenation;
    QCheck_alcotest.to_alcotest prop_delta_concat_random;
    Alcotest.test_case "each frame loads exactly once" `Quick test_each_frame_loaded_once;
    Alcotest.test_case "core churn diffs consecutive cores" `Quick test_core_churn_is_a_diff;
    Alcotest.test_case "Fresh policy = seed per-depth algorithm" `Quick
      test_fresh_policy_equals_seed_algorithm;
    Alcotest.test_case "Fresh = Persistent (invariant)" `Quick test_policies_agree_invariant;
    Alcotest.test_case "Fresh = Persistent (induction)" `Slow test_policies_agree_induction;
    Alcotest.test_case "Fresh = Persistent (LTL)" `Quick test_policies_agree_ltl;
  ]
