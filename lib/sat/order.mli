(** Variable decision ordering (paper, Section 3.3).

    Chaff associates a score [cha_score(l)] with every {e literal}: its
    initial value is the literal's occurrence count in the CNF formula, and
    periodically [cha_score(l) <- cha_score(l)/2 + new_lit_counts(l)] where
    [new_lit_counts] counts occurrences in conflict clauses learnt since the
    last update.  The unassigned literal with the highest score is decided
    (and set to true).

    The paper adds a pre-computed per-variable [bmc_score] and combines the
    two keys lexicographically: [bmc_score] first, [cha_score] as tiebreaker.
    In {e static} mode this holds for the whole run; in {e dynamic} mode the
    solver calls {!switch_to_vsids} when its decision budget heuristic fires,
    after which only [cha_score] is used.

    Implementation: an indexed binary max-heap over {e variables}, one
    entry each.  Scores stay per literal; a variable is keyed by its rank
    (when ranked), then the activity of its better literal (the higher of
    its two, the positive one on a tie), then that literal's index, lower
    first.  That orders variables exactly as a heap over all literals would
    order their best literals, so {!pop_best} returns the literal such a
    heap pops.  Assigned variables are discarded lazily when they reach the
    top.  Score bumps only increase keys (sift-up); the periodic halving
    rescales every key by the same factor, which preserves heap order, so no
    restructuring is needed.

    The heap is {e live} only while a solve searches: from {!rebuild},
    which every solve call begins with, to {!suspend}, which ends it.
    Outside that window bumps and rank updates only record the new scores,
    and unassignments do nothing: the next {!rebuild} refills the heap with
    every unassigned variable anyway. *)

type t

type mode =
  | Vsids  (** Chaff's default heuristic, [cha_score] only. *)
  | Static of float array
      (** [Static rank]: decide by [(rank.(var), cha_score)] lexicographic
          for the whole run.  [rank] is indexed by variable; variables beyond
          its length score 0. *)
  | Dynamic of float array
      (** Like [Static] until the solver detects the estimate is poor and
          calls {!switch_to_vsids}. *)

val create : num_vars:int -> mode -> t

val reset : t -> num_vars:int -> mode -> unit
(** Return [t] to the state [create ~num_vars mode] builds: scores zero,
    heap empty, [mode]'s ranking installed.  The arrays are reused, and
    grow geometrically when [num_vars] outgrows them; {!create} is this
    reset applied to empty storage. *)

val mode_uses_rank : t -> bool
(** Whether the rank component is currently part of the decision key. *)

val is_dynamic : t -> bool
(** Whether the order was created in [Dynamic] mode (regardless of whether
    the switch already happened). *)

val init_activity : t -> int array -> unit
(** Set every literal's score to its occurrence count in the formula, as
    {!Cnf.count_occurrences} gives it.  Entries past the order's literals
    are ignored, so a longer reused count buffer works too. *)

val rebuild : t -> is_unassigned:(Lit.var -> bool) -> unit
(** Fill the heap with every currently unassigned variable, heapify it
    under the current key, and make it live.  Call once before the search
    starts. *)

val suspend : t -> unit
(** End the live window at the end of a search: until the next
    {!rebuild}, {!bump}, {!bump_by}, {!set_rank} and {!on_unassign} only
    update scores, and {!pop_best} must not be called. *)

val bump : t -> Lit.t -> unit
(** Add 1 to the literal's score (a new conflict-clause occurrence). *)

val halve_all : t -> unit
(** The periodic decay: every literal score is halved. *)

val on_unassign : t -> Lit.var -> unit
(** Re-insert the variable after backtracking unassigns it (a no-op when
    it is still in the heap, or when the heap is not live). *)

val pop_best : t -> is_unassigned:(Lit.var -> bool) -> Lit.t option
(** Remove the highest-keyed unassigned variable and return its better
    literal, the one to decide; [None] when all variables are assigned.
    Stale (assigned) entries met on the way are discarded.  Only valid
    while the heap is live. *)

val switch_to_vsids : t -> unit
(** Dynamic mode's fallback: drop the rank component and re-heapify the
    surviving entries keyed by [cha_score] alone.  Idempotent. *)

val activity : t -> Lit.t -> float

val decided_by_rank : t -> Lit.var -> bool
(** Whether a decision on [v] {e right now} is attributable to the
    [bmc_score] ranking: the rank component is active and [v] carries a
    positive rank.  A ranked order still breaks ties among zero-rank
    variables by activity — those branches are VSIDS's, not the
    paper's — so this is the per-variable refinement of
    {!mode_uses_rank}. *)

val grow : t -> num_vars:int -> unit
(** Extend the variable space (incremental solving).  New variables start
    with zero scores and rank. *)

val set_mode : t -> mode -> unit
(** Replace the ranking component and mode before a new solve call, keeping
    the accumulated literal activities.  The heap stops being live: it must
    be {!rebuild}t before the next {!pop_best}. *)

val bump_by : t -> Lit.t -> float -> unit
(** Like {!bump} with an explicit non-negative amount (used when attaching
    clauses incrementally: the initial score of a literal is its occurrence
    count). *)

val set_rank : t -> Lit.var -> float -> unit
(** Point update of one variable's rank while the search runs — the
    mutation path of pluggable heuristics (e.g. conflict-frequency
    branching) that refine their ranking per conflict instead of
    installing a whole new array via {!set_mode}.  Repairs the variable's
    heap position while the heap is live (a rank may fall as well as
    rise).  No-op on the rank key when the current mode ignores ranks,
    but the stored value still updates so a later ranked mode sees it. *)

val comparisons : t -> int
(** Heap-key comparisons since {!create} or {!reset}: a deterministic
    measure of the heap's work. *)
