(* Quickstart: build a circuit with the netlist API, check an invariant by
   BMC with the paper's refined decision ordering, and inspect the result.

   The design is a tiny bounded queue-occupancy counter: it must never
   report full and empty at the same time.  Run with:

     dune exec examples/quickstart.exe
*)

let () =
  (* 1. Describe the circuit. *)
  let nl = Circuit.Netlist.create () in
  let push = Circuit.Netlist.input nl "push" in
  let pop = Circuit.Netlist.input nl "pop" in
  let count = Circuit.Word.regs nl ~prefix:"count" ~width:3 ~init:(Some 0) in
  let full = Circuit.Word.eq_const nl count 7 in
  let empty = Circuit.Word.is_zero nl count in
  let inc, _ = Circuit.Word.increment nl count in
  let dec, _ = Circuit.Word.decrement nl count in
  let do_inc =
    Circuit.Netlist.and_list nl [ push; Circuit.Netlist.not_ nl pop; Circuit.Netlist.not_ nl full ]
  in
  let do_dec =
    Circuit.Netlist.and_list nl [ pop; Circuit.Netlist.not_ nl push; Circuit.Netlist.not_ nl empty ]
  in
  let next =
    Circuit.Word.mux nl ~sel:do_inc ~hi:inc
      ~lo:(Circuit.Word.mux nl ~sel:do_dec ~hi:dec ~lo:count)
  in
  Circuit.Word.connect nl count next;

  (* 2. State the invariant: never full and empty simultaneously. *)
  let property = Circuit.Netlist.not_ nl (Circuit.Netlist.and_ nl full empty) in

  (* 3. Check it by BMC with the dynamic refined ordering (the paper's best
        configuration), up to depth 12. *)
  let config = Bmc.Session.make_config ~mode:Bmc.Session.Dynamic ~max_depth:12 () in
  let result = Bmc.Session.check ~config ~policy:Bmc.Session.Fresh nl ~property in

  Format.printf "verdict: %a@." Bmc.Session.pp_verdict result.verdict;
  Format.printf "total: %.3fs, %d decisions, %d implications, %d conflicts@."
    result.total_time result.total_decisions result.total_implications result.total_conflicts;

  (* 4. The per-depth log shows the refinement at work: each UNSAT instance
        contributes its unsatisfiable core to the next instance's ordering. *)
  Format.printf "@.depth  outcome  decisions  core-vars@.";
  List.iter
    (fun (d : Bmc.Session.depth_stat) ->
      Format.printf "%5d  %-7s  %9d  %9d@." d.depth
        (Format.asprintf "%a" Sat.Solver.pp_outcome d.outcome)
        d.decisions d.core_var_count)
    result.per_depth
