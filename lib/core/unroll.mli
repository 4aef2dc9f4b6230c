(** Time-frame expansion with Tseitin CNF encoding (paper, Eq. 1).

    The unroller maintains a growing {e base} formula encoding
    [I(V⁰) ∧ ⋀_{1≤i≤k} T(V^{i-1}, W^i, V^i)] for the frames materialised so
    far, over the stable variable numbering of {!Varmap}.  The per-instance
    formula for depth k is the base restricted to frames 0..k plus the unit
    clause [¬P(V^k)].

    Encoding: one SAT variable per (node, frame); standard Tseitin clauses
    per gate; registers at frame 0 constrained to their declared initial
    value (free if nondeterministic), and at frame f > 0 equated to their
    next-state node at frame f-1.  With [~coi:true] only the property's cone
    of influence is encoded (VIS-style reduction); the default encodes the
    whole netlist, as an industrial front-end without COI would. *)

type t

val create :
  ?coi:bool -> ?constrain_init:bool -> Circuit.Netlist.t -> property:Circuit.Netlist.node -> t
(** @raise Invalid_argument if the netlist does not validate.
    [constrain_init] (default [true]) emits the frame-0 initial-value unit
    clauses; k-induction's step case turns it off so paths start in an
    arbitrary state. *)

val netlist : t -> Circuit.Netlist.t

val property : t -> Circuit.Netlist.node

val extend_to : t -> int -> unit
(** Materialise frames up to and including the given depth. *)

val depth : t -> int
(** Highest frame materialised so far, or -1 initially. *)

val base_cnf : t -> k:int -> Sat.Cnf.t
(** Frames 0..k without any property constraint — the raw
    [I(V⁰) ∧ ⋀ T(...)] (or just the transitions when [constrain_init] is
    off).  Callers add their own property units.  The formula shares the
    unroller's clause arrays: each clause is built once, when its frame is
    materialised, and is never mutated. *)

val fill_base : t -> k:int -> Sat.Cnf.t -> unit
(** Make the given formula {!base_cnf} [~k] in place ({!Sat.Cnf.refill}):
    the per-depth refill of a {!Session}'s [Fresh] instance formula, which
    keeps the base clauses it already holds and appends the new frames'. *)

val instance : t -> k:int -> Sat.Cnf.t
(** The depth-k BMC instance: base clauses for frames 0..k plus [¬P(V^k)].
    Extends the unrolling as needed.  The returned formula is a snapshot;
    its clause indices are only meaningful against itself.

    {b Deprecated as an engine substrate}: rebuilding the monolithic
    instance at every depth is O(k²) clause construction across a run.
    Engines go through {!Session}, which feeds a persistent solver one
    {!iter_delta} frame at a time; [instance] remains for single-shot
    tools, the benchmark harness and tests. *)

val var_of : t -> node:Circuit.Netlist.node -> frame:int -> Sat.Lit.var
(** The SAT variable of a node at a frame (allocating if new). *)

val varmap : t -> Varmap.t

val frame_of_var : t -> Sat.Lit.var -> int option
(** Frame a SAT variable belongs to ([None] if unknown to the map). *)

val iter_delta : t -> frame:int -> (Sat.Lit.t array -> unit) -> unit
(** Iterate, in emission order, over exactly the base clauses produced by
    materialising that frame (its {e delta}).  The arrays are the
    unroller's own and must not be mutated.  Extends the unrolling if
    needed.  Concatenating the deltas for frames 0..k yields {!base_cnf}
    [~k] clause for clause, in the same order — this is what lets a
    {!Session} load each frame into a persistent solver exactly once. *)

val delta_cnf : t -> frame:int -> Sat.Cnf.t
(** The frame's delta as a standalone formula over the full variable range
    allocated once the frame is materialised (clauses of earlier frames are
    {e not} included). *)

val clause_frame : t -> int -> int
(** Frame tag of the [i]-th base clause (indices align with {!base_cnf} /
    {!instance} when the unrolling was materialised to exactly the
    requested depth). *)

val clause_is_link : t -> int -> bool
(** Whether the [i]-th base clause is a register-link clause
    [v(reg, f) ↔ v(next, f−1)] (the interpolation partition needs to put
    frame-1 links on the A side). *)

val num_base_clauses : t -> int
