(** Simplified Conflict Dependency Graph (paper, Section 3.1), provenance
    aware.

    Every clause the solver ever sees — original, imported or learnt — is
    assigned an integer {e pseudo ID}, local to its solver's shard of the
    graph.  Globally a clause is named by the pair (solver id, local id):
    each solver's CDG is one {e shard} of a single cross-solver dependency
    graph.  For each learnt (conflict) clause we record only the IDs of its
    antecedents: the clauses resolved on while deriving it.  A clause
    imported from a sibling solver through the learnt-clause exchange is an
    {!register_import} node carrying its origin (solver id, local id) — a
    {e cross-edge} into the sibling's shard rather than an opaque leaf.
    When the formula is refuted, the final (empty-clause) conflict records
    its antecedents too.  The {e unsatisfiable core} is the set of original
    clauses reachable backwards from the final conflict — within one shard
    ({!core}) or across all shards ({!stitched_core}).

    Crucially the graph stores no literals, so the solver remains free to
    delete learnt clauses from its database: deletion never breaks the
    dependency information, which is the point of the paper's
    simplification.  The memory cost is one small [int array] per learnt
    clause (plus two ints per import). *)

type t

val create : ?timed:bool -> ?solver_id:int -> unit -> t
(** [timed] (default [false]) clocks the bookkeeping done while solving —
    learnt and import registration, final-conflict recording, and the
    backwards core walk — accumulating into {!cdg_seconds}.  This makes the
    paper's "about 5%" CDG overhead claim directly measurable; when off,
    the only cost is a boolean check per operation.  Original registration
    is never clocked: it happens while a formula loads, outside every
    window that reports CDG time.  [solver_id] (default [0]) is this shard's
    global provenance id; callers that intend to stitch shards (the
    portfolio coordinator) must allocate distinct ids. *)

val reset : t -> unit
(** Drop every node, the final conflict and the CDG clock, keeping the
    node vector's storage, [timed] and the solver id: the state {!create}
    builds. *)

val solver_id : t -> int
(** This shard's provenance id. *)

val register_original : t -> int
(** Allocate a pseudo ID for an original clause.  IDs are dense from 0, in
    registration order, so they coincide with {!Cnf} clause indices when
    originals are registered first and in order. *)

val register_import : t -> origin:int * int -> int
(** Allocate a pseudo ID for a clause imported from a sibling solver.
    [origin] is the clause's global provenance — the exporting solver's id
    and the clause's pseudo ID {e in that solver's shard}.  The node is a
    cross-edge: {!core} reports it as an import leaf (a single shard
    cannot see past it) while {!stitched_core} follows it into the origin
    shard.  @raise Invalid_argument on a negative origin id. *)

val register_learnt : t -> antecedents:int list -> int
(** Allocate a pseudo ID for a learnt clause derived by resolving the listed
    antecedents.  Antecedents are local IDs of this shard and may name
    {!register_import} nodes — that is how a foreign clause participates in
    a local derivation.  @raise Invalid_argument if an antecedent ID is
    unknown. *)

val set_final : t -> antecedents:int list -> unit
(** Record the final, unresolvable conflict (the empty clause). *)

val has_final : t -> bool

val clear_final : t -> unit
(** Forget the final conflict (incremental solving: each solve call records
    its own refutation; the clause graph itself is kept). *)

type core = {
  originals : int list;
      (** original-clause IDs of {e this shard} reachable from the final
          conflict, ascending — the exact core when no imports are
          registered, the local-shard projection otherwise (use
          {!stitched_core} for exactness) *)
  imports : int list;
      (** the import-node IDs reachable from the final conflict, ascending:
          the foreign leaves the local core stops at *)
}
(** The leaves of the local refutation.  [originals] and [imports]
    together are its complete leaf set. *)

val core : t -> core
(** One backwards walk from the final conflict, returning both kinds of
    leaf.  Import nodes are leaves: a single shard cannot see past them.
    @raise Invalid_argument if {!set_final} was never called. *)

val stitched_core : t -> lookup:(int -> t option) -> (int * int list) list
(** The exact cross-solver core: original-clause IDs reachable from this
    shard's final conflict, following import cross-edges into the shards
    [lookup] resolves.  Returns one [(solver id, ascending original IDs)]
    pair per shard that contributes at least one original, ascending by
    solver id.  [lookup] is never called for this shard's own id.  The
    merged graph is a DAG: a clause is published strictly before any
    sibling can import it, so cross-edges only reach already-complete
    derivations.
    @raise Invalid_argument if {!set_final} was never called, if [lookup]
    cannot resolve a referenced shard, or if an origin id is unknown in its
    shard. *)

val antecedents : t -> int -> int array option
(** The antecedent list of a learnt clause's pseudo ID (derivation order);
    [None] for originals, imports or unknown IDs. *)

val origin_of : t -> int -> (int * int) option
(** The provenance of an import node's pseudo ID; [None] for originals,
    learnts or unknown IDs. *)

val final : t -> int array option
(** The final conflict's antecedents, if recorded. *)

val num_original : t -> int

val num_import : t -> int

val num_learnt : t -> int

val num_edges : t -> int
(** Total antecedent references stored — the memory-overhead figure
    (imports count one edge each). *)

val cdg_seconds : t -> float
(** Seconds spent in the CDG bookkeeping so far (0 unless the graph was
    created [~timed:true]). *)
