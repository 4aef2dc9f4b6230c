(* Auditing a passing property, and why the refined ordering matters.

   A round-robin arbiter surrounded by a large block of logic that is
   irrelevant to the mutual-exclusion property (the industrial situation the
   paper targets).  We verify the property to a fixed depth with each
   decision-ordering strategy and compare the work done.

     dune exec examples/arbiter_audit.exe
*)

let () =
  let case = Circuit.Generators.arbiter ~clients:8 ~noise:24 () in
  let depth = 14 in
  Format.printf "auditing %s up to depth %d (property: at most one grant)@.@." case.name depth;

  let budget =
    { Sat.Solver.max_conflicts = Some 200_000; max_propagations = None; max_seconds = Some 20.0; stop = None }
  in
  Format.printf "%-11s %10s %12s %14s %8s@." "mode" "time(s)" "decisions" "implications"
    "verdict";
  List.iter
    (fun name ->
      let mode = Option.get (Ordering.mode_of_name name) in
      let config = Bmc.Session.make_config ~mode ~budget ~max_depth:depth () in
      let r =
        Bmc.Session.check ~config ~policy:Bmc.Session.Fresh case.netlist ~property:case.property
      in
      Format.printf "%-11s %10.3f %12d %14d %8s@."
        name
        r.total_time r.total_decisions r.total_implications
        (match r.verdict with
        | Bmc.Session.Bounded_pass _ -> "pass"
        | Bmc.Session.Falsified _ -> "FAIL"
        | Bmc.Session.Aborted k -> Printf.sprintf "abort@%d" k))
    [ "standard"; "static"; "dynamic"; "shtrichman" ];

  Format.printf
    "@.The static/dynamic rows decide unsat-core variables first (the paper's@.\
     refinement); the standard row is Chaff's plain VSIDS.  The speedup comes@.\
     from not exploring the noise block at all.@."
