(* Beyond invariants: bounded LTL model checking.

   The paper's Section 2 notes that "model checking a property with a
   finite-size witness or counter-example can be translated into a series
   of SAT problems" and treats the invariant GP as the worked example.
   This tour exercises the general translation (Biere et al., the paper's
   reference [1]): liveness and response properties whose counterexamples
   are (k,l)-lassos rather than finite paths — all solved under the same
   core-refined decision ordering.

     dune exec examples/liveness_tour.exe
*)

let describe nl result =
  match result.Bmc.Ltl.verdict with
  | Bmc.Ltl.Falsified w ->
    Format.printf "FALSIFIED at depth %d — %s@."
      w.Bmc.Ltl.depth
      (match w.Bmc.Ltl.loop_start with
      | Some l -> Printf.sprintf "lasso looping back to state %d" l
      | None -> "finite informative prefix");
    ignore nl
  | Bmc.Ltl.Bounded_pass k -> Format.printf "no counterexample up to depth %d@." k
  | Bmc.Ltl.Aborted k -> Format.printf "aborted at depth %d@." k

let () =
  let case = Circuit.Generators.ring ~len:5 () in
  let nl = case.netlist in
  let config = Bmc.Session.make_config ~mode:Bmc.Session.Static ~max_depth:12 () in
  let check text =
    Format.printf "%-28s ... " text;
    describe nl (Bmc.Ltl.check ~config nl (Bmc.Ltl.parse nl text))
  in

  Format.printf "circuit: a 5-stage token ring that only advances on 'tick'@.@.";

  (* Safety as LTL: two stages never hold the token together. *)
  check "G !(t0 & t1)";
  (* Response without fairness fails: the environment can stop ticking —
     the counterexample is a lasso, not a finite path. *)
  check "G (t1 -> F t0)";
  (* The same response under a fairness assumption holds. *)
  check "G F tick -> G (t1 -> F t0)";
  (* Step-response with X: if the token is at 0 and we tick, it moves. *)
  check "G ((tick & t0) -> X t1)";
  (* Until: the token sits at position 0 until the first tick. *)
  check "t0 U tick";
  (* ... which fails (never tick), but the weak version holds: *)
  check "(t0 U tick) | G t0";

  Format.printf
    "@.Lasso counterexamples are validated before being reported: the engine@.\
     re-simulates the prefix, checks that the loop closes, and re-evaluates@.\
     the formula on the concrete lasso (Bmc.Ltl.holds_on_lasso).@."
