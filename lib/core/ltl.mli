(** Bounded LTL model checking (Biere–Cimatti–Clarke–Zhu, TACAS 1999 — the
    paper's reference [1]).

    The paper describes BMC as checking "a linear time property" with
    bounded counter-examples; invariants ([G p], {!Session.check}) are the
    special case.  This module implements the general bounded semantics: a
    length-k witness for the {e negation} of the property is either a
    finite path (informative prefix) or a (k,l)-lasso — a path of k+1
    states whose successor of state k loops back to state l.  Both shapes
    are encoded into the depth-k instance; the without-loop translation is
    pessimistic (it never wrongly claims a witness), the with-loop
    translations use the two-lap fixpoint encoding for U/R.

    The SAT instances form the same correlated UNSAT sequence as invariant
    BMC, so the paper's core-based ordering refinement drives them
    unchanged (choose the mode through {!Session.make_config}). *)

(** Formulas over netlist signals.  Use the smart constructors; negation is
    pushed to the atoms internally (negation normal form). *)
type formula

val atom : Circuit.Netlist.node -> formula
(** The boolean signal is true now. *)

val not_ : formula -> formula

val and_ : formula -> formula -> formula

val or_ : formula -> formula -> formula

val implies : formula -> formula -> formula

val next : formula -> formula
(** X φ: φ holds in the next state. *)

val eventually : formula -> formula
(** F φ. *)

val always : formula -> formula
(** G φ. *)

val until : formula -> formula -> formula
(** φ U ψ (strong until). *)

val release : formula -> formula -> formula
(** φ R ψ. *)

val pp : ?netlist:Circuit.Netlist.t -> unit -> Format.formatter -> formula -> unit

exception Parse_error of string

val parse : Circuit.Netlist.t -> string -> formula
(** Parse the concrete syntax

    {v φ ::= name | true | false | !φ | G φ | F φ | X φ
           | φ & φ | φ '|' φ | φ U φ | φ R φ | φ -> φ | (φ) v}

    where [name] resolves through {!Circuit.Netlist.find}.  Precedence,
    loosest first: [->] (right), [U]/[R] (right), [|], [&], prefixes.
    @raise Parse_error on syntax errors or unknown signal names. *)

type witness = {
  depth : int;  (** k: the witness spans states 0..k *)
  loop_start : int option;
      (** [Some l] for a (k,l)-lasso; [None] for a finite informative
          prefix *)
  trace : Trace.t;  (** inputs and initial registers, frames 0..k *)
}

type verdict =
  | Falsified of witness  (** a witness for ¬φ exists: the property fails *)
  | Bounded_pass of int  (** no witness up to this bound *)
  | Aborted of int

type result = {
  verdict : verdict;
  per_depth : Session.depth_stat list;
  total_time : float;
}

val check :
  ?config:Session.config -> ?policy:Session.policy -> Circuit.Netlist.t -> formula -> result
(** Search for a bounded witness of the property's negation, depth by
    depth, refining the decision ordering from each UNSAT instance's core
    exactly as the invariant engine does.  Witnesses are re-simulated and
    re-evaluated on the concrete lasso before being reported.

    Runs on a {!Session} ([policy] defaults to [Persistent]): the
    transition relation loads frame by frame into one live solver, while
    the per-depth witness-shape encoding (Tseitin auxiliaries and all) is
    guarded behind the instance's activation literal and retired when the
    search deepens.  [~policy:Fresh] reproduces the seed's
    solver-per-depth behaviour.
    @raise Invalid_argument if the netlist does not validate or a formula
    atom is not a node of it. *)

val holds_on_lasso :
  Circuit.Netlist.t ->
  formula ->
  init:(Circuit.Netlist.node * bool) list ->
  inputs:(Circuit.Netlist.node * bool) list array ->
  loop_start:int option ->
  bool
(** Evaluate the formula on the concrete (possibly looping) execution
    described by the initial registers and per-frame inputs, under the
    bounded semantics matching the encoder (pessimistic without loop).
    Used to validate witnesses; exposed for testing. *)
