(** Simplified Conflict Dependency Graph (paper, Section 3.1).

    Every clause the solver ever sees — original or learnt — is assigned
    an integer {e pseudo ID}.  For each learnt (conflict) clause we record
    only the IDs of its antecedents: the clauses resolved on while deriving
    it.  When the formula is refuted, the final (empty-clause) conflict
    records its antecedents too.  The {e unsatisfiable core} is the set of
    original clauses reachable backwards from the final conflict.

    Crucially the graph stores no literals, so the solver remains free to
    delete learnt clauses from its database: deletion never breaks the
    dependency information, which is the point of the paper's
    simplification.  The memory cost is one small [int array] per learnt
    clause. *)

type t

val create : ?timed:bool -> unit -> t
(** [timed] (default [false]) clocks the bookkeeping done while solving —
    learnt registration, final-conflict recording, and the backwards core
    walk — accumulating into {!cdg_seconds}.  This makes the paper's
    "about 5%" CDG overhead claim directly measurable; when off, the only
    cost is a boolean check per operation.  Original registration is never
    clocked: it happens while a formula loads, outside every window that
    reports CDG time. *)

val reset : t -> unit
(** Drop every node, the final conflict and the CDG clock, keeping the
    node vector's storage and [timed]: the state {!create} builds. *)

val register_original : t -> int
(** Allocate a pseudo ID for an original clause.  IDs are dense from 0, in
    registration order, so they coincide with {!Cnf} clause indices when
    originals are registered first and in order. *)

val register_learnt : t -> antecedents:int list -> int
(** Allocate a pseudo ID for a learnt clause derived by resolving the listed
    antecedents.  @raise Invalid_argument if an antecedent ID is unknown. *)

val set_final : t -> antecedents:int list -> unit
(** Record the final, unresolvable conflict (the empty clause). *)

val has_final : t -> bool

val clear_final : t -> unit
(** Forget the final conflict (incremental solving: each solve call records
    its own refutation; the clause graph itself is kept). *)

val core : t -> int list
(** The original-clause IDs reachable backwards from the final conflict,
    ascending, from one walk of the graph.
    @raise Invalid_argument if {!set_final} was never called. *)

val antecedents : t -> int -> int array option
(** The antecedent list of a learnt clause's pseudo ID (derivation order);
    [None] for originals or unknown IDs. *)

val final : t -> int array option
(** The final conflict's antecedents, if recorded. *)

val num_original : t -> int

val num_learnt : t -> int

val num_edges : t -> int
(** Total antecedent references stored — the memory-overhead figure. *)

val cdg_seconds : t -> float
(** Seconds spent in the CDG bookkeeping so far (0 unless the graph was
    created [~timed:true]). *)
