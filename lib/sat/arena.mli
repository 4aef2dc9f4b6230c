(** Flat clause arena (MiniSat 2.2 memory layout).

    Clauses live in one growable [int array] as contiguous blocks

    {v [header | cid | activity | lit_0 ... lit_{n-1}] v}

    addressed by an integer {e clause reference} ([cref]): the offset of the
    header word.  The header packs the literal count with three flag bits
    (learnt, deleted, relocated).  Compared to boxed clause records behind
    pointers, this layout removes a dereference per clause visit in BCP,
    keeps the clause database off the OCaml heap scan, and makes the whole
    database one cache-friendly allocation.

    The [cid] slot carries the proof pseudo ID assigned by {!Proof}, so the
    conflict-dependency-graph machinery (and with it unsat cores and
    interpolants) is independent of where the clause bytes live — deletion
    and compaction never disturb the proof.

    Clause {e activity} is stored as a fixed-point integer
    ({!activity_unit} = 1.0): bumps add one unit and the periodic decay
    shifts right, so the reduce-db ordering needs no float boxing.

    Deletion only flags the block and counts its words as wasted; space is
    reclaimed by copying compaction: the solver relocates every live root
    ({!reloc}) into a fresh arena and then {!commit}s it.  A relocated block
    stores its forwarding cref in the [cid] slot, so shared references
    (watchers, reasons, the learnt list) relocate to the same copy. *)

type t

type cref = int
(** Offset of a clause block in the arena. *)

val none : cref
(** Sentinel for "no clause" (reason slots, propagation result). *)

val activity_unit : int
(** Fixed-point scale: the integer value representing activity 1.0. *)

val words : clauses:int -> literals:int -> int
(** Words that [clauses] blocks holding [literals] literals in total
    occupy — the capacity to presize an arena for a formula. *)

val create : ?capacity:int -> unit -> t
(** Fresh arena. [capacity] (default 1024) pre-allocates that many words
    (see {!words}). *)

val reset : t -> capacity:int -> unit
(** Drop every block, keeping the storage, and make room for at least
    [capacity] words: an arena short of it grows to
    [max capacity (2 * current)] words. *)

val alloc : t -> cid:int -> learnt:bool -> Lit.t array -> int -> cref
(** [alloc a ~cid ~learnt lits n] appends a block holding the first [n]
    literals of [lits] — a whole clause array, or a scratch buffer the
    caller normalised into.  The literals are copied.  Learnt clauses
    start with activity 1.0, originals with 0. *)

val size : t -> cref -> int
(** Number of literals in the clause. *)

val lit : t -> cref -> int -> Lit.t
(** [lit a cr i] is the [i]-th literal, 0-based.  Unchecked. *)

val set_lit : t -> cref -> int -> Lit.t -> unit

val swap_lits : t -> cref -> int -> int -> unit

val cid : t -> cref -> int
(** The clause's proof pseudo ID (or CNF clause index when proof logging is
    off). *)

val learnt : t -> cref -> bool

val deleted : t -> cref -> bool

val delete : t -> cref -> unit
(** Flag the clause deleted and account its words as wasted.  Idempotent.
    The block stays readable until the next compaction. *)

val activity : t -> cref -> int
(** Fixed-point activity (see {!activity_unit}). *)

val bump_activity : t -> cref -> unit
(** Add 1.0 (one {!activity_unit}). *)

val halve_activity : t -> cref -> unit
(** The periodic decay: arithmetic shift right by one. *)

val iter_lits : t -> cref -> (Lit.t -> unit) -> unit

val lits_list : t -> cref -> Lit.t list
(** The literals as a fresh list (proof/DRAT use, not the hot path). *)

val lits_array : t -> cref -> Lit.t array
(** The literals as a fresh array, in stored order. *)

val extent : t -> int
(** Words in use, deleted blocks included: every cref is below it, so an
    array of this length can carry one mark per cref. *)

val iter : t -> (cref -> unit) -> unit
(** [iter a f] calls [f] on every block in ascending cref (allocation)
    order, deleted blocks included.  [f] may delete clauses but must not
    allocate. *)

val live_words : t -> int
(** Words in use minus wasted words. *)

val bytes : t -> int
(** Bytes occupied by blocks in use (live + wasted), excluding spare
    capacity. *)

val should_gc : t -> max_waste:float -> bool
(** Whether wasted words exceed [max_waste] of the words in use. *)

(** {2 Copying compaction}

    Protocol: create a fresh arena [into], {!reloc} every root reference
    (watcher crefs, reason crefs of assigned variables, the learnt list) —
    duplicates are forwarded to a single copy — then {!commit} to replace
    the old arena's storage with the compacted one. *)

val reloc : t -> into:t -> cref -> cref
(** Move the clause into [into] (first call) or return its forwarding cref
    (subsequent calls).
    @raise Invalid_argument on a deleted clause: deleted clauses must be
    unreachable from any root by the time compaction runs. *)

val relocated : t -> cref -> bool

val commit : t -> into:t -> unit
(** Adopt [into]'s storage as [t]'s, completing the compaction. *)

(** Watcher lists as flat [(blocker, cref)] int pairs.

    One watcher list per literal.  The {e blocker} is some other literal of
    the clause (for a freshly attached clause, the other watched one); if
    the blocker is already true the clause is satisfied and BCP skips it
    without touching clause memory — the cache win that motivates packing
    the pair into the watcher itself. *)
module Watch : sig
  type w

  val create : ?capacity:int -> unit -> w
  (** An empty list with room for [capacity] pairs (default 0). *)

  val length : w -> int
  (** Number of pairs. *)

  val blocker : w -> int -> Lit.t

  val cref : w -> int -> cref

  val set : w -> int -> Lit.t -> cref -> unit

  val push : w -> Lit.t -> cref -> unit

  val truncate : w -> int -> unit
  (** Keep the first [n] pairs; capacity (and the int payload) is retained,
      no dummy-filling needed. *)

  val reset : w -> capacity:int -> unit
  (** Empty the list and make room for at least [capacity] pairs: a list
      short of it grows to [max capacity (2 * current)] pairs, one that
      has it keeps its storage. *)

  val filter_crefs : w -> (cref -> bool) -> unit
  (** Keep only pairs whose cref satisfies the predicate, preserving order
      and capacity (the watch-list rebuild after clause-DB reduction). *)

  val map_crefs : w -> (cref -> cref) -> unit
  (** Rewrite every cref in place (compaction patching). *)

  val fold_crefs : ('a -> cref -> 'a) -> 'a -> w -> 'a
end
