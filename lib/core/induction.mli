(** Temporal induction (k-induction) with refined decision orderings.

    BMC alone can only refute or bound-check an invariant; temporal
    induction (Eén–Sörensson, the paper's reference [5]) proves it outright:

    - {e base case} — the ordinary depth-k BMC instance
      [I(V⁰) ∧ ⋀T ∧ ¬P(V^k)] is unsatisfiable (no counterexample of length
      k);
    - {e step case} — the instance
      [⋀_{1≤i≤k+1}T(V^{i-1},W^i,V^i) ∧ P(V⁰) ∧ ... ∧ P(V^k) ∧ ¬P(V^{k+1})]
      over an {e arbitrary} (unconstrained) starting state is
      unsatisfiable: k+1 consecutive P-states can never step into a ¬P
      state.

    When both hold the property is proved for every depth.  The optional
    {e simple-path} strengthening conjoins pairwise state-disequality
    constraints over the step path, which makes the method complete (at the
    price of O(k²·registers) clauses).

    The base instances are the same correlated UNSAT sequence the paper
    exploits, so the refined ordering applies unchanged: cores from base
    instance k seed the decision ordering of instance k+1 — both cases run
    under the configured {!Session.mode}.

    Both cases run as {!Session}s sharing one {!Score} — by default two
    persistent solvers (frame deltas loaded once, the per-depth property
    and uniqueness constraints guarded by activation literals and retired
    between depths); [~policy:Fresh] reproduces the seed's
    solver-per-instance behaviour.  The step session never feeds the score:
    its instances are not part of the correlated refutation sequence. *)

type verdict =
  | Proved of int
      (** the property is invariant; induction succeeded at this depth *)
  | Falsified of Trace.t  (** counterexample found by a base case *)
  | Unknown of int
      (** neither proved nor refuted up to [max_depth] (or budget hit) *)

type step_stat = {
  depth : int;
  base_outcome : Sat.Solver.outcome;
  step_outcome : Sat.Solver.outcome option;
      (** [None] when the base case already decided this depth *)
  base_decisions : int;
  step_decisions : int;
  time : float;
}

type result = {
  verdict : verdict;
  per_depth : step_stat list;
  total_time : float;
}

val prove :
  ?config:Session.config ->
  ?policy:Session.policy ->
  ?simple_path:bool ->
  Circuit.Netlist.t ->
  property:Circuit.Netlist.node ->
  result
(** Run the base/step alternation for k = 0, 1, ...  [config.max_depth]
    bounds k; [config.budget] caps each SAT call; [config.mode] selects the
    decision ordering of both cases.  [policy] (default [Persistent])
    selects the session substrate for both cases.  [simple_path] (default
    [false]) adds the pairwise-distinct-states constraints to the step
    case.
    @raise Invalid_argument if the netlist does not validate. *)

val prove_case :
  ?config:Session.config ->
  ?policy:Session.policy ->
  ?simple_path:bool ->
  Circuit.Generators.case ->
  result

val pp_verdict : Format.formatter -> verdict -> unit
