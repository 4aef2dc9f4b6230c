(* Bug hunting: a FIFO occupancy counter with a sticky overflow flag that
   can actually rise.  BMC finds the shortest counterexample, replays it on
   the simulator, and prints the input waveform that triggers the bug.

     dune exec examples/counter_overflow.exe
*)

let () =
  let case = Circuit.Generators.fifo_overflow ~bits:3 () in
  Format.printf "checking %s (expected: %a)@." case.name Circuit.Generators.pp_expect
    (Option.get case.expect);

  let config =
    Bmc.Session.make_config ~mode:Bmc.Session.Dynamic ~max_depth:case.suggested_depth ()
  in
  let result =
    Bmc.Session.check ~config ~policy:Bmc.Session.Fresh case.netlist ~property:case.property
  in

  match result.verdict with
  | Bmc.Session.Falsified trace ->
    Format.printf "@.bug found: %a@." Bmc.Session.pp_verdict result.verdict;
    (* The engine replays every trace before reporting it, but we can do it
       again here to show the API. *)
    let confirmed = Bmc.Trace.replay trace case.netlist ~property:case.property in
    Format.printf "replay on the cycle-accurate simulator confirms it: %b@.@." confirmed;
    Format.printf "%a@." (Bmc.Trace.pp ~netlist:case.netlist ()) trace;
    (* Inspect how the refinement narrowed the search over the UNSAT prefix. *)
    Format.printf "UNSAT-core sizes on the way down:@.";
    List.iter
      (fun (d : Bmc.Session.depth_stat) ->
        if d.core_size > 0 then
          Format.printf "  depth %2d: %4d core clauses over %3d variables@." d.depth d.core_size
            d.core_var_count)
      result.per_depth
  | Bmc.Session.Bounded_pass k ->
    Format.printf "no bug up to depth %d (unexpected for this design!)@." k
  | Bmc.Session.Aborted k -> Format.printf "gave up at depth %d@." k
