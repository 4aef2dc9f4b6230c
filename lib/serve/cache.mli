(** The warm-session cache: digest-keyed entries, LRU-evicted by resident
    clause-arena bytes.

    An entry remembers, for one (structural digest, property, ordering
    mode) triple, the warm {!Bmc.Session} together with what it has
    already proven: [ce_next_k] depths of UNSAT instances, a memoised
    counterexample once falsified, and the deepest instance's unsat core.
    Repeat requests at or below the proven bound are answered from the
    memo without touching a solver; deeper requests resume the warm
    session from [ce_next_k].

    {b Threading.}  The table and every entry field except [ce_session]
    are owned by the server's front-end thread: workers communicate
    results back through the server's mutex-protected completion queue,
    and the front end applies them — so entry mutation is single-threaded
    and eviction decisions race with nothing.  [ce_session] itself is
    created and used only inside the entry's pinned pool worker
    ([ce_affinity] — sessions are domain-confined); the front end only
    ever {e drops} the reference when evicting a quiescent ([ce_busy =
    false]) entry, which is safe because the completion queue's mutex
    ordered the worker's last write before the front end observed the
    entry idle.

    The ['a] parameter is the server's pending-request record: requests
    arriving while an entry is busy queue on [ce_waiting] (newest first)
    and are re-dispatched by the front end as completions arrive. *)

type 'a entry = {
  ce_key : string;  (** digest + property + mode *)
  ce_digest : string;  (** {!Circuit.Netlist.digest} of the circuit *)
  ce_netlist : Circuit.Netlist.t;
  ce_property : Circuit.Netlist.node;
  ce_mode : Bmc.Session.mode;
  ce_affinity : int;
      (** the pool worker every job for this entry pins to — sessions are
          domain-confined, so an entry's solves serialise on one worker *)
  ce_deadline : float ref;
      (** absolute wall-clock deadline of the {e running} request
          ([infinity] when none); written by the front end before
          dispatch, read by the session's budget stop hook *)
  mutable ce_session : Bmc.Session.t option;  (** worker-confined *)
  mutable ce_next_k : int;  (** depths [0..ce_next_k-1] proven UNSAT *)
  mutable ce_falsified : (int * Obs.Json.t) option;
      (** memoised counterexample: depth and serialized trace *)
  mutable ce_core : Sat.Lit.var list;
      (** unsat-core variables of depth [ce_next_k - 1] *)
  mutable ce_bytes : int;  (** resident clause-arena bytes (LRU weight) *)
  mutable ce_stamp : int;  (** last-use tick of the LRU clock *)
  mutable ce_busy : bool;  (** a job for this entry is in flight *)
  mutable ce_waiting : 'a list;  (** queued requests, newest first *)
}

type 'a t

val create : max_bytes:int -> jobs:int -> unit -> 'a t
(** [jobs] is the pool size; entry affinities spread over it by key
    hash. *)

val find : 'a t -> string -> 'a entry option
(** Lookup by key; touches the LRU stamp. *)

val add :
  'a t ->
  key:string ->
  digest:string ->
  netlist:Circuit.Netlist.t ->
  property:Circuit.Netlist.node ->
  mode:Bmc.Session.mode ->
  'a entry
(** Insert a cold entry.  @raise Invalid_argument if the key exists. *)

val invalidate : 'a entry -> unit
(** Reset an entry to cold: drop the session reference and everything
    proven.  Used after an aborted (deadline / budget) or failed request,
    whose session is stuck at an instance the depth rule will not let it
    re-solve.  Memoised counterexamples survive only full {!drop}. *)

val drop : 'a t -> 'a entry -> unit
(** Remove the entry from the table (no-op if already gone). *)

val evict : 'a t -> 'a entry list
(** Evict least-recently-used idle entries until resident bytes fit the
    budget; busy entries are never evicted.  Returns what was dropped. *)

val resident_bytes : 'a t -> int

val size : 'a t -> int

val entries : 'a t -> 'a entry list
(** Unordered. *)
