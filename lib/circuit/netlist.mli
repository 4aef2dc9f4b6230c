(** Gate-level sequential circuits.

    The model of the paper's Section 2: a tuple ⟨V, W, I, T⟩ where V are the
    registers (present-state variables), W the primary inputs, I the initial
    state predicate (given per-register initial values, with [None] meaning
    uninitialised / nondeterministic) and T the transition relation defined
    structurally by the gate network feeding each register's [next] input.

    Nodes are dense integer IDs.  Construction is via the builder functions
    below; registers are created first and their [next] function connected
    afterwards with {!set_next}, which is what permits feedback loops.
    Combinational gates are hash-consed, so building the same gate twice
    returns the same node. *)

type t

type node = int
(** Node IDs are dense, 0-based, in creation order. *)

type gate =
  | Input of string
  | Const of bool
  | Not of node
  | And of node * node
  | Or of node * node
  | Xor of node * node
  | Mux of node * node * node  (** [Mux (sel, hi, lo)]: [hi] when [sel] *)
  | Reg of string
      (** A register, identified by name; initial value and next-state input
          are queried with {!reg_init} and {!reg_next}. *)

val create : unit -> t

val num_nodes : t -> int

val gate : t -> node -> gate
(** @raise Invalid_argument on an unknown node. *)

(** {2 Builders} *)

val input : t -> string -> node
(** Fresh primary input.  @raise Invalid_argument on a duplicate name. *)

val const_true : t -> node

val const_false : t -> node

val not_ : t -> node -> node

val and_ : t -> node -> node -> node

val or_ : t -> node -> node -> node

val xor_ : t -> node -> node -> node

val mux : t -> sel:node -> hi:node -> lo:node -> node

val nor_ : t -> node -> node -> node

val xnor_ : t -> node -> node -> node
(** Equivalence (a ↔ b). *)

val implies : t -> node -> node -> node

val and_list : t -> node list -> node
(** Conjunction; the constant true on []. *)

val or_list : t -> node list -> node
(** Disjunction; the constant false on []. *)

val reg : t -> name:string -> init:bool option -> node
(** Fresh register.  [init = None] means nondeterministic initial value.
    The next-state input must be connected with {!set_next} before the
    netlist is used.  @raise Invalid_argument on a duplicate name. *)

val set_next : t -> node -> node -> unit
(** [set_next t r n] connects register [r]'s next-state input to node [n].
    @raise Invalid_argument if [r] is not a register or already connected. *)

(** {2 Queries} *)

val reg_init : t -> node -> bool option
(** @raise Invalid_argument if not a register. *)

val reg_next : t -> node -> node
(** @raise Invalid_argument if not a register, or if its next input was
    never connected. *)

val inputs : t -> node list
(** Primary inputs, in creation order. *)

val regs : t -> node list
(** Registers, in creation order. *)

val name_node : t -> string -> node -> unit
(** Attach a (or another) name to any node, e.g. for pretty traces.
    @raise Invalid_argument on a duplicate name. *)

val find : t -> string -> node option
(** Look a node up by name (inputs, registers and {!name_node} aliases). *)

val name_of : t -> node -> string option
(** Canonical name of a node if it has one. *)

val fanins : gate -> node list
(** Combinational fanins of a gate ([Reg] has none — its next input is a
    sequential edge). *)

val validate : t -> (unit, string) result
(** Check that every register's next input is connected and that the
    combinational part is acyclic (every cycle passes through a register). *)

val transitive_fanin : t -> node list -> (node -> bool)
(** [transitive_fanin t roots] is the membership predicate of the cone of
    influence of [roots]: everything reachable through combinational fanins
    {e and} register next-inputs. *)

val digest : t -> string
(** Structural digest (MD5 hex) of the circuit: the gate array in creation
    order, every register's initial value and next-state node, and the
    names carried by [Input]/[Reg] gates.  Names added with {!name_node}
    are presentation-only and excluded.  Because node IDs are dense and
    creation-ordered, equal digests mean {e byte-identical} structures with
    identical node numbering — e.g. two {!Textio.parse_string} runs over
    the same text — so digest-equal netlists can soundly share warm solver
    state ([(node, frame)] variable keys coincide).
    Registers with unconnected next inputs digest with a [-1] sentinel
    rather than raising.  O(nodes) per call; cache it if hot. *)

val abstract_registers : t -> keep:(node -> bool) -> t * (node -> node)
(** [abstract_registers t ~keep] is the localisation abstraction of [t]:
    registers satisfying [keep] survive; every other register becomes a
    fresh primary input (an unconstrained value every cycle), which
    over-approximates the original behaviour.  Returns the new netlist and
    the node mapping (old → new); gates are rebuilt through the
    simplifying constructors, so distinct old nodes may map to one new
    node. *)

val pp_gate : Format.formatter -> gate -> unit
