(* Every verification engine in the repository, pointed at one problem.

   The circuit is a token ring wrapped in property-irrelevant noise — small
   enough that each engine answers quickly, large enough (2^36 raw states)
   that explicit enumeration of the full design is out of the question.

     dune exec examples/engines_tour.exe
*)

let () =
  let case = Circuit.Generators.ring ~len:10 ~noise:24 () in
  let nl = case.netlist in
  let property = case.property in
  Format.printf "circuit: %s — %d registers, %d nodes; property: at most one token@.@."
    case.name
    (List.length (Circuit.Netlist.regs nl))
    (Circuit.Netlist.num_nodes nl);

  let time f =
    let t0 = Sys.time () in
    let v = f () in
    (v, Sys.time () -. t0)
  in
  let row name (answer, dt) = Format.printf "  %-34s %-46s %6.3fs@." name answer dt in
  let config = Bmc.Session.make_config ~mode:Bmc.Session.Dynamic ~max_depth:16 () in

  row "BMC (refined dynamic ordering)"
    (time (fun () ->
         Format.asprintf "%a" Bmc.Session.pp_verdict
           (Bmc.Session.check ~config ~policy:Bmc.Session.Fresh nl ~property).verdict));
  row "incremental BMC (clause reuse)"
    (time (fun () ->
         Format.asprintf "%a" Bmc.Session.pp_verdict
           (Bmc.Session.check ~config ~policy:Bmc.Session.Persistent nl ~property).verdict));
  row "k-induction (simple path)"
    (time (fun () ->
         Format.asprintf "%a" Bmc.Induction.pp_verdict
           (Bmc.Induction.prove ~config ~simple_path:true nl ~property).verdict));
  row "proof-based abstraction (cores)"
    (time (fun () ->
         Format.asprintf "%a" Bmc.Abstraction.pp_verdict
           (Bmc.Abstraction.prove ~config nl ~property).verdict));
  row "symbolic reachability (BDDs)"
    (time (fun () ->
         Format.asprintf "%a" Bmc.Symbolic.pp_verdict (Bmc.Symbolic.check nl ~property)));
  row "interpolation (McMillan 2003)"
    (time (fun () ->
         Format.asprintf "%a" Bmc.Interpolation.pp_verdict
           (Bmc.Interpolation.prove nl ~property).verdict));
  row "IC3 / PDR"
    (time (fun () ->
         Format.asprintf "%a" Bmc.Pdr.pp_verdict (Bmc.Pdr.prove nl ~property).verdict));
  row "bounded LTL (G property)"
    (time (fun () ->
         match (Bmc.Ltl.check ~config nl (Bmc.Ltl.always (Bmc.Ltl.atom property))).verdict with
         | Bmc.Ltl.Falsified w -> Printf.sprintf "falsified at depth %d" w.depth
         | Bmc.Ltl.Bounded_pass k -> Printf.sprintf "no counterexample up to depth %d" k
         | Bmc.Ltl.Aborted k -> Printf.sprintf "aborted at depth %d" k));

  Format.printf
    "@.The bounded engines report a depth-limited pass; induction, abstraction,@.\
     interpolation and IC3 close the argument with unbounded proofs; the BDD@.\
     engine agrees through an entirely different technology.  All of them@.\
     share the circuit substrate, and the SAT-based ones share the refined@.\
     decision ordering.@."
