(** CNF formulas.

    A formula is a conjunction of clauses over variables [0 .. num_vars-1];
    each clause is a disjunction of literals.  This module is the neutral
    exchange format between the circuit encoder, the DIMACS reader and the
    solver; it performs no solving itself. *)

type clause = Lit.t array
(** A clause, as added by the client.  Order is preserved.  Clause arrays
    are immutable once added: formulas, their {!copy}, the solver loaded
    from them and the unroller that built them share the same arrays, and
    nobody mutates one. *)

type t

val create : ?num_vars:int -> ?capacity:int -> unit -> t
(** Fresh formula with [num_vars] pre-allocated variables (default 0) and
    room for [capacity] clauses before it regrows (default 16). *)

val num_vars : t -> int

val num_clauses : t -> int

val fresh_var : t -> Lit.var
(** Allocate one new variable and return it. *)

val ensure_vars : t -> int -> unit
(** [ensure_vars f n] grows the variable count to at least [n]. *)

val add_clause : t -> Lit.t list -> unit
(** Append a clause.  Literals over not-yet-declared variables grow the
    variable count automatically.  The empty clause is legal (and makes the
    formula trivially unsatisfiable). *)

val add_clause_a : t -> Lit.t array -> unit
(** Like {!add_clause} from an array.  The array is shared, not copied:
    the caller must not mutate it afterwards. *)

val get_clause : t -> int -> clause
(** [get_clause f i] is the [i]-th clause (0-based, in insertion order).
    The returned array must not be mutated. *)

val iter_clauses : (int -> clause -> unit) -> t -> unit
(** Iterate clauses with their indices, in insertion order. *)

val fold_clauses : ('acc -> clause -> 'acc) -> 'acc -> t -> 'acc

val num_literals : t -> int
(** Total number of literal occurrences over all clauses. *)

val occurrences : t -> int array
(** Occurrences of each literal over all clauses, indexed by
    {!Lit.to_index} (length [2 * num_vars]). *)

val normalize_into : clause -> into:Lit.t array -> int
(** The clause normaliser.  [normalize_into c ~into] writes the literals of
    [c] into the first slots of [into], sorted ascending by {!Lit.compare}
    with duplicates removed, and returns how many it wrote; it returns [-1]
    if the clause is a tautology (contains [l] and [¬l]).  [c] is left
    unchanged unless [into] is [c] itself, which normalises in place.
    Allocates nothing for clauses of up to 16 literals.
    @raise Invalid_argument if [into] is shorter than [c]. *)

val normalize_clause : Lit.t list -> Lit.t list option
(** {!normalize_into} on a list: sorted, duplicate-free, or [None] for a
    tautology. *)

val eval : t -> (Lit.var -> bool) -> bool
(** Evaluate the formula under a total assignment.  O(size). *)

val eval_clause : clause -> (Lit.var -> bool) -> bool

val copy : t -> t
(** An independent formula over the same clauses: adding to either leaves
    the other unchanged.  The clause arrays themselves are shared. *)

val pp : Format.formatter -> t -> unit
(** Human-readable listing, one clause per line in DIMACS notation. *)
