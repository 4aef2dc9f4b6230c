(** Stable (circuit node, time frame) → SAT variable numbering.

    BMC instance k+1 must reuse instance k's variable numbers for the shared
    frames — that is what makes a variable identity (and hence the paper's
    [bmc_score]) transferable between instances.  Variables are allocated
    monotonically on first request and never re-numbered: extending the
    unrolling only appends. *)

type t

val create : unit -> t

val var : t -> node:Circuit.Netlist.node -> frame:int -> Sat.Lit.var
(** Allocate-on-first-use lookup.  @raise Invalid_argument on a negative
    frame. *)

val key_of : t -> Sat.Lit.var -> (Circuit.Netlist.node * int) option
(** Reverse mapping: which circuit node at which frame a SAT variable
    denotes; [None] for variables not allocated by this map. *)

val num_vars : t -> int
(** Variables allocated so far. *)
