(** A Chaff-style CDCL SAT solver (paper, Section 2 and 3.3).

    The solver implements the DLL search loop of the paper's Figure 1 with
    the machinery the paper's method is defined against:

    - two-watched-literal Boolean constraint propagation;
    - first-UIP conflict analysis with conflict-clause learning and
      non-chronological backtracking;
    - Chaff's per-literal VSIDS decision heuristic ([cha_score] halved every
      256 conflicts, incremented by conflict-clause occurrences), optionally
      combined with an external per-variable ranking ({!Order.mode});
    - periodic deletion of low-activity conflict clauses;
    - Luby restarts;
    - an optional simplified Conflict Dependency Graph ({!Proof}) from which
      the unsatisfiable core is extracted after an UNSAT answer, without
      interfering with clause deletion.

    The solver is incremental: after a {!solve} call, more clauses can be
    added with {!add_clause} (and variables with {!new_var}), and {!solve}
    can be called again — learnt clauses, literal activities and the proof
    graph survive between calls.  A call may pass {e assumptions}: literals
    temporarily forced true; an [Unsat] answer then means "unsatisfiable
    under these assumptions" and {!failed_assumptions} names a responsible
    subset, while the {!unsat_core} machinery reports the clauses used.
    This is the substrate for the incremental-BMC combination the paper's
    conclusion anticipates. *)

type t

type outcome =
  | Sat
  | Unsat
  | Unknown  (** resource budget exhausted *)

type budget = {
  max_conflicts : int option;
      (** per {!solve} call — an incremental solver grants every call the
          full allowance, whatever earlier calls consumed *)
  max_propagations : int option;  (** per {!solve} call, like [max_conflicts] *)
  max_seconds : float option;  (** wall-clock seconds per {!solve} call ({!Telemetry.wall}) *)
  stop : (unit -> bool) option;
      (** External cooperative-stop hook.  Polled together with the other
          budget checks — after every conflict, every 1024 decisions and
          every 4096 propagations (the last one inside BCP itself, so even a
          conflict-free solve chewing through huge implication chains
          observes cancellation promptly).  At most one restart interval
          elapses between the hook first returning [true] and the solve
          returning [Unknown].  The hook must be cheap and thread-safe (the
          serve layer passes a wall-clock deadline comparison); it is
          called from the solver's own domain. *)
}

val no_budget : budget

val create :
  ?with_proof:bool ->
  ?with_drat:bool ->
  ?minimize:bool ->
  ?mode:Order.mode ->
  ?telemetry:Telemetry.t ->
  Cnf.t ->
  t
(** [create cnf] prepares a solver over a snapshot of [cnf] (later
    additions to [cnf] are not seen; the immutable clause arrays are
    shared, not copied).  Each clause is normalised once, straight into
    the clause arena, which is presized from the formula.  [create] is
    {!reload} applied to empty storage.  [with_proof]
    (default [false]) enables the simplified-CDG bookkeeping needed for
    {!unsat_core}.  [minimize] (default [false]) enables conflict-clause
    minimisation — off by default because the paper's substrate, Chaff,
    predates it.  [mode] selects the
    decision ordering (default {!Order.Vsids}); in [Dynamic] mode the
    fallback threshold is [num_literals cnf / 64] decisions, as in the
    paper.  [with_drat] (default [false]) additionally records the clausal
    (DRAT) proof for {!drat_events} / {!Checker}.  [telemetry] (default
    {!Telemetry.disabled}) turns on structured tracing: per-solve phase
    spans ("bcp", "analyze", "cdg", "solve" — a call on a formula already
    refuted while loading still emits its "solve" span), "reduce_db" and
    "inprocess" spans, instant "restart", "switch", "reduce_db"
    [{removed, kept}] and "compact" [{before, after}] (arena bytes)
    events — all low-rate, so a flight recorder can ride along — and
    per-solve
    "decisions.rank" /
    "decisions.vsids" counters (the decision-source histogram, attributed
    per variable by {!Order.decided_by_rank} and published coalesced —
    never as per-decision events); it also feeds the wall-time fields of
    {!Stats.t} and enables the timed CDG bookkeeping.  The attribution
    counters in {!Stats.t} are maintained unconditionally. *)

val reload : ?mode:Order.mode -> t -> Cnf.t -> unit
(** [reload ~mode t cnf] resets [t] in place to exactly the solver
    [create ~mode cnf] would build with [t]'s own creation options, and
    keeps [t]'s storage: the per-variable arrays, the watch lists
    (emptied, their capacity kept), the clause arena, the order heap, the
    proof-node vector, the trail and the DRAT log.  A formula that
    outgrows the storage grows it geometrically (×2).  [create] itself is
    this reset applied to empty storage, so the two agree by
    construction: the same load order, normalisation, initial activities,
    ranking, thresholds and Luby sequence, hence the same search.

    What survives a reload: [with_proof], [with_drat], [minimize] and
    [telemetry].  What is reset, exactly as {!create} sets
    it: the formula and [mode] (default {!Order.Vsids}), every {!Stats.t}
    counter (zeroed in place, so [stats t] reads zero again), the learnt
    clauses and proof graph, the Luby sequence (a {!set_restart_base} is
    undone), the learnt limit ({!set_max_learnts}), the GC fraction
    ({!set_gc_fraction}), the [Dynamic] threshold, the outcome and any
    assumption state, the {!set_order} hooks, and the inprocessing state (frozen and eliminated variables and the
    model-reconstruction stack).  The last
    model and core are gone: read them before reloading.

    This is how a per-depth BMC loop (the paper's Figure 5) keeps one
    solver's heap instead of building a new solver at every depth. *)

val solve : ?budget:budget -> ?assumptions:Lit.t list -> t -> outcome
(** Run the search, optionally under assumptions.  Each call starts from
    decision level 0 but keeps learnt clauses and activities.  With
    assumptions, [Unsat] is relative to them unless the formula itself is
    refuted. *)

val add_clause : t -> Lit.t list -> unit
(** Add a clause between solve calls.  Retracts all decisions first.
    Variables beyond {!num_vars} are created automatically. *)

val add_clause_a : t -> Lit.t array -> unit
(** {!add_clause} from an array, which the solver's formula keeps as is:
    the caller must not mutate it afterwards. *)

val new_var : t -> Lit.var
(** Allocate a fresh variable (incremental use). *)

val failed_assumptions : t -> Lit.t list
(** After an [Unsat] answer under assumptions: a subset of the assumptions
    responsible for the conflict (empty when the formula itself is
    unsatisfiable).
    @raise Invalid_argument unless the last outcome was [Unsat]. *)

(** {2 Pluggable branching heuristics (the ordering laboratory)}

    The solver's Chaff core stays fixed; an external heuristic plugs in
    through three narrow callbacks.  All heuristic state lives behind the
    closures — the solver never inspects it, so registries of heuristics
    (see [lib/ordering]) compose without touching this module. *)

type hooks = {
  hk_name : string;  (** heuristic name, for ledgers *)
  hk_on_conflict : Lit.t list -> unit;
      (** fired once per learnt conflict clause (after the built-in
          activity bumps), with the learnt literals *)
  hk_on_restart : unit -> unit;  (** fired at every restart boundary *)
  hk_bias : Lit.var -> bool option;
      (** consulted once per decision: [Some b] overrides the sign of the
          decision literal on that variable, [None] keeps the heap's pick *)
}

val set_order : ?hooks:hooks -> t -> Order.mode -> unit
(** Swap the decision-ordering mode on a live solver between {!solve}
    calls (retracting any outstanding decisions first), and install (or,
    when [hooks] is absent, remove) the pluggable heuristic callbacks.
    What survives the swap: the accumulated VSIDS literal activities
    ([cha_score]), learnt clauses and the proof graph — the solver's
    search experience.  What is replaced: the external per-variable rank
    array ([Static] / [Dynamic] install the new ranking, [Vsids] clears
    it), and a [Dynamic] swap re-arms the fallback-to-VSIDS trigger.  The
    decision heap itself is rebuilt against the new keys at the start of
    the next {!solve}.  This is how a {!Session}-style incremental BMC run
    re-ranks one persistent solver from each instance's unsat core instead
    of seeding a fresh solver per depth.  (The historical [set_mode] alias
    is gone: this is the single entry point of the heuristic registry.) *)

val set_rank : t -> Lit.var -> float -> unit
(** Point update of one variable's rank in the live decision order (see
    {!Order.set_rank}) — the mutation path for conflict-frequency
    heuristics that refine their ranking from inside [hk_on_conflict]. *)

(** {2 Inprocessing}

    Proof-aware in-solver simplification, run between {!solve} calls —
    the {!Session} calls it at BMC depth boundaries.  One {!inprocess}
    run saturates level-0 propagation, performs failed-literal probing
    (each failed probe becomes an ordinary learnt unit), removes
    level-0-satisfied clauses, and runs the {!Inprocess} engine —
    subsumption, self-subsuming resolution and bounded variable
    elimination — over the live clause database.  Every derived clause is
    registered in the proof graph with its antecedent IDs and logged as a
    DRAT addition before its parents' deletions, so {!unsat_core} and
    {!drat_events} stay exact.

    An eliminated variable leaves the search space: it is never decided,
    clauses over it are removed, and {!model} extends satisfying
    assignments over it from the saved occurrence lists, so callers see a
    complete model.  Because later {!add_clause} / {!solve} calls must
    not mention eliminated variables (that would be unsound without
    clause restoration), callers {!freeze} every variable that can recur
    — assumption variables, variables future clauses will mention.
    Frozen variables are exempt from elimination only; everything else
    still applies to them. *)

val freeze : t -> Lit.var -> unit
(** Exempt a variable from elimination by {!inprocess}.  Grows the
    variable space if needed.  Freezing is idempotent and reversible with
    {!melt}; it has no effect on an already-eliminated variable. *)

val melt : t -> Lit.var -> unit
(** Undo {!freeze}: the variable becomes eliminable again from the next
    {!inprocess} run on. *)

val inprocess : ?config:Inprocess.config -> t -> Inprocess.stats
(** Run one inprocessing pass under [config] (default
    {!Inprocess.default}) and return its statistics (also accumulated
    into {!stats} as the [inpr_*] fields).  Retracts all decisions
    first and clears any cached outcome and pending assumption state.  A
    refutation discovered during the run (a failed probe propagating to a
    level-0 conflict, or an empty resolvent) is recorded exactly like a
    search refutation: the next {!solve} answers [Unsat] with the proof
    final already set.  No-op when the solver is already refuted.  With
    [time_slice = None] (the default) a run is deterministic. *)

val set_restart_base : t -> int -> unit
(** Replace the Luby restart sequence with one of the given unit (default
    128), restarting the sequence.  Nothing in the BMC layers changes the
    unit; the reload property sets it to check that {!reload} undoes it.
    @raise Invalid_argument if the base is < 1 (via {!Luby.create}). *)

val set_max_learnts : t -> int -> unit
(** Override the learnt-clause limit that triggers database reduction
    (clamped to at least 1).  The default is
    [max 4000 (num_clauses / 3)]; tests set a tiny limit to force frequent
    {e reduce_db} / arena-compaction cycles. *)

val set_gc_fraction : t -> float -> unit
(** Set the wasted/size ratio of the clause arena above which a database
    reduction is followed by a compacting arena GC (default 0.2).  [0.0]
    compacts after every reduction that deleted something; a huge value
    disables compaction.
    @raise Invalid_argument if negative. *)

val arena_bytes : t -> int
(** Current clause-arena footprint in bytes (live plus not-yet-compacted
    waste). *)

val model : t -> bool array
(** Satisfying assignment indexed by variable.
    @raise Invalid_argument unless the outcome was [Sat]. *)

type core = {
  clauses : int list;  (** {!unsat_core} *)
  vars : Lit.var list;  (** {!core_vars} *)
}

val core : t -> core
(** The core's clauses and variables from a single walk of the proof
    graph — what a caller needing both should use.
    @raise Invalid_argument as {!unsat_core}. *)

val unsat_core : t -> int list
(** Indices (into the original formula's clause list) of an unsatisfiable
    core, ascending.
    @raise Invalid_argument unless the outcome was [Unsat] and the solver
    was created [~with_proof:true]. *)

val original_clause : t -> int -> Lit.t list
(** The literals of original clause [i], as loaded (before normalisation) —
    the contents behind {!unsat_core} indices, e.g. for re-solving a
    candidate core under {!Coremin}. *)

val core_vars : t -> Lit.var list
(** Variables appearing in the {!unsat_core} clauses, ascending — the
    [unsatVars] of the paper's Figure 5.
    @raise Invalid_argument as {!unsat_core}. *)

val interpolant : t -> a_side:(int -> bool) -> Itp.form
(** After an unconditional [Unsat] with proof logging: the McMillan
    interpolant of the partition that puts original clause [i] in A iff
    [a_side i].  A ⊨ I, I ∧ B is unsatisfiable, and I only mentions
    variables shared between the two sides.
    @raise Invalid_argument unless the outcome was [Unsat] with
    [~with_proof:true] and no assumptions. *)

val stats : t -> Stats.t

val num_vars : t -> int

val drat_events : t -> Checker.event list
(** The clausal proof recorded so far, in derivation order (ends with the
    empty clause after an unconditional UNSAT answer).  Meaningful for
    single-shot solving without assumptions; feed it to
    {!Checker.check_refutation}.
    @raise Invalid_argument if the solver was not created
    [~with_drat:true]. *)

val proof_edges : t -> int
(** Antecedent references stored in the CDG (0 when proof logging is off) —
    the memory-overhead figure of Section 3.1. *)

val cdg_seconds : t -> float
(** Seconds spent in the CDG bookkeeping (0 unless proof logging and
    telemetry are both on) — the runtime half of the Section 3.1 overhead
    claim. *)

val outcome_string : outcome -> string
(** Lower-case tag: ["sat"], ["unsat"] or ["unknown"] (used in telemetry
    events). *)

val pp_outcome : Format.formatter -> outcome -> unit
