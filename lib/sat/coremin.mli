(** Destructive unsat-core minimisation (Dershowitz, Hanna & Nadel,
    "A scalable algorithm for minimal unsatisfiable core extraction",
    SAT 2006 — the selector-variable formulation).

    The proof-derived core ({!Solver.unsat_core}) is whatever set of
    original clauses the refutation happened to touch; it is exact but
    rarely {e minimal}.  This module re-solves the candidate core on its
    own, each clause guarded by a fresh {e selector} variable ([s_i] added
    negated to clause [i], assumed true to activate it):

    - every UNSAT answer's failed assumptions name the selectors actually
      used, shrinking the candidate wholesale (clause-set refinement);
    - then each remaining clause is dropped in turn and the rest re-solved
      — UNSAT means the clause was redundant and it is removed for good,
      SAT proves it necessary (destructive minimisation).

    When the loop completes, no clause can be removed: the core is minimal.
    A {!budget} bounds the work (the result is then still a correct core,
    just not necessarily minimal).  The final core is re-proved from
    scratch by an independent solver with clausal (DRAT) logging and
    certified by {!Checker.check_refutation} — every core this module
    reports is machine-checked unsatisfiable, not merely believed so. *)

type budget = {
  max_solves : int option;  (** solver calls, counting the certification *)
  max_seconds : float option;  (** wall-clock seconds ({!Telemetry.wall}) *)
}

val no_budget : budget

type stats = {
  initial : int;  (** candidate clauses in *)
  final : int;  (** clauses kept *)
  solves : int;  (** solver calls spent (certification included) *)
  seconds : float;  (** seconds spent *)
  minimal : bool;
      (** the destructive loop completed: no kept clause is removable *)
  certified : bool;
      (** the kept set (plus assumptions) was re-proved UNSAT and the DRAT
          proof accepted by {!Checker.check_refutation} *)
}

val minimise :
  ?budget:budget ->
  ?assumptions:Lit.t list ->
  ?certify:bool ->
  num_vars:int ->
  clauses:(int * Lit.t list) list ->
  unit ->
  int list * stats
(** [minimise ~num_vars ~clauses ()] minimises the candidate core
    [clauses], a list of [(caller id, literals)] pairs whose conjunction —
    together with [assumptions], each forced as a unit — is expected to be
    unsatisfiable.  Returns the kept caller ids (in input order) and the
    run's statistics.  [num_vars] is the variable space of the original
    formula (selectors are allocated above it and above every mentioned
    variable).  [assumptions] (default none) are activation-style literals
    the core is relative to; they are assumed during minimisation and added
    as unit clauses for certification.  [certify] (default [true]) runs the
    independent re-proof; switch it off for throwaway calls.

    If the candidate turns out satisfiable (it was not a core — e.g. the
    local projection of a sharing run whose imports were load-bearing), the
    input is returned unchanged with [minimal = false] and
    [certified = false]: the caller keeps a well-defined, if unimproved,
    result. *)
