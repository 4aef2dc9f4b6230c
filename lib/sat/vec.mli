(** Growable arrays.

    A thin, mutable dynamic-array abstraction used throughout the solver for
    trails, watch lists and clause databases.  All operations are amortised
    O(1) unless stated otherwise.  A [dummy] element is required at creation
    time to fill unused slots (the solver never reads it). *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** Fresh empty vector.  [capacity] pre-allocates storage. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** [get v i] is the [i]-th element.  @raise Invalid_argument if out of
    bounds. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit
(** Append one element, growing the backing store if needed. *)

val pop : 'a t -> 'a
(** Remove and return the last element.  @raise Invalid_argument if empty. *)

val last : 'a t -> 'a

val clear : 'a t -> unit
(** Logical reset to length 0; storage is retained and stale slots are
    overwritten with the dummy so old values can be collected. *)

val shrink : 'a t -> int -> unit
(** [shrink v n] truncates [v] to its first [n] elements.  Stale slots are
    overwritten with the dummy so old values can be collected. *)

val shrink_retain : 'a t -> int -> unit
(** Like {!shrink} but without dummy-filling the tail: the stale slots keep
    their old values.  Only safe when retaining them cannot leak memory —
    i.e. for immediate payloads (ints, literals, crefs).  Used on the hot
    paths (trail backtracking, watcher compaction) where the [Array.fill]
    of {!shrink} is pure overhead. *)

val clear_retain : 'a t -> unit
(** Logical reset to length 0 without dummy-filling; same safety caveat as
    {!shrink_retain}.  Reuses capacity across refills. *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val exists : ('a -> bool) -> 'a t -> bool

val to_list : 'a t -> 'a list

val of_list : dummy:'a -> 'a list -> 'a t

val to_array : 'a t -> 'a array

val copy : 'a t -> 'a t
(** An independent vector holding the same elements (a shallow copy). *)

val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keep only elements satisfying the predicate, preserving order.  O(n). *)
