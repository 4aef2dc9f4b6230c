(* Proving instead of bounding: k-induction on top of the refined ordering.

   BMC alone answers "no counterexample up to depth k"; temporal induction
   closes the argument.  This example proves the arbiter's mutual-exclusion
   property outright — it needs the simple-path strengthening, because the
   property is not k-inductive on its own — and contrasts the incremental
   BMC engine with the per-depth one on the same circuit.

     dune exec examples/prove_it.exe
*)

let () =
  let case = Circuit.Generators.arbiter ~clients:6 () in
  Format.printf "circuit: %s (property: at most one grant)@.@." case.name;

  (* 1. BMC gives only a bounded answer. *)
  let config = Bmc.Session.make_config ~mode:Bmc.Session.Dynamic ~max_depth:10 () in
  let bounded =
    Bmc.Session.check ~config ~policy:Bmc.Session.Fresh case.netlist ~property:case.property
  in
  Format.printf "BMC:                 %a@." Bmc.Session.pp_verdict bounded.verdict;

  (* 2. Plain induction is stuck: the property is not inductive. *)
  let plain = Bmc.Induction.prove_case ~config case in
  Format.printf "plain induction:     %a@." Bmc.Induction.pp_verdict plain.verdict;

  (* 3. With simple-path constraints the method is complete. *)
  let proved = Bmc.Induction.prove_case ~config ~simple_path:true case in
  Format.printf "simple-path:         %a@.@." Bmc.Induction.pp_verdict proved.verdict;

  (* 4. The same refined ordering also drives the incremental engine, which
        keeps one solver alive across depths and reuses its learnt clauses. *)
  let a =
    Bmc.Session.check ~config ~policy:Bmc.Session.Fresh case.netlist ~property:case.property
  in
  let b =
    Bmc.Session.check ~config ~policy:Bmc.Session.Persistent case.netlist ~property:case.property
  in
  Format.printf "per-depth engine:    %d decisions over %d instances@." a.total_decisions
    (List.length a.per_depth);
  Format.printf "incremental engine:  %d decisions over %d instances@." b.total_decisions
    (List.length b.per_depth)
