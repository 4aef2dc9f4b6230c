(** Independent refutation checking (the paper's reference [18]:
    Zhang & Malik, "Validating SAT solvers using an independent
    resolution-based checker", DATE 2003).

    The solver can record, besides the pseudo-ID dependency graph, the
    {e clausal proof}: every learnt clause (with its literals) and every
    deletion, in order — the DRAT format's content.  This module replays
    such a proof with its own, deliberately simple unit propagation and
    accepts it only if every learnt clause is a {e reverse unit propagation}
    (RUP) consequence of the clauses active at that point, ending in the
    empty clause.  A bug anywhere in the solver's learning, watching or
    deletion logic surfaces here as a rejected proof.

    The checker shares no search code with the solver, but it does use the
    two standard pieces of checker machinery (as drat-trim does): the
    unit-propagation fixpoint of the formula is kept as a persistent root
    assignment that queries stack their negated candidate on top of, and
    each clause watches two literals so a query only visits clauses whose
    watch it falsified.  That keeps certification roughly linear in proof
    length instead of quadratic; every visited clause is still re-examined
    literal by literal over a plain array — no arena, no blocking
    literals, none of the solver's data structures. *)

type event =
  | Learnt of Lit.t list
      (** clause added by conflict analysis, in derivation order; the empty
          clause terminates a refutation *)
  | Deleted of Lit.t list  (** clause removed by database reduction *)

val check_refutation : Cnf.t -> event list -> (unit, string) result
(** Replay the proof against the formula.  [Ok ()] iff every [Learnt]
    clause passes the RUP test against the originals plus the previously
    accepted (and not yet deleted) learnt clauses, and the proof derives
    the empty clause. *)

val to_drat : event list -> string
(** Serialise in the standard DRAT text format (one clause per line,
    deletions prefixed with [d], DIMACS literals, 0-terminated). *)

val of_drat : string -> event list
(** Parse DRAT text.
    @raise Failure on malformed input. *)
