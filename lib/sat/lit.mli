(** Propositional literals.

    A literal is a Boolean variable or its negation.  Variables are dense
    non-negative integers allocated by the caller (0-based).  The concrete
    representation is the usual [2 * var + sign] packing, so a literal can
    index arrays of size [2 * num_vars] directly via {!to_index}. *)

type t [@@immediate]
(** A literal.  Total order and equality are structural.  Immediate, so
    literal arrays are flat int arrays to the compiler: no float-array
    check on reads, no write barrier on stores. *)

type var = int
(** Variables are 0-based dense integers. *)

val make : var -> bool -> t
(** [make v positive] is [v] if [positive], else [¬v].
    @raise Invalid_argument on a negative variable. *)

val pos : var -> t
(** Positive literal of a variable. *)

val neg : var -> t
(** Negative literal of a variable. *)

val var : t -> var

val is_pos : t -> bool

val negate : t -> t

val to_index : t -> int
(** Dense index in [0 .. 2*num_vars-1].  Positive literals are even. *)

val of_index : int -> t
(** Inverse of {!to_index}. @raise Invalid_argument on negative input. *)

val to_dimacs : t -> int
(** DIMACS integer: [var+1] for positive, [-(var+1)] for negative. *)

val of_dimacs : int -> t
(** @raise Invalid_argument on 0. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Prints in DIMACS form, e.g. [-3]. *)
