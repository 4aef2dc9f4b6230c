(** Learnt-clause exchange between sibling solvers.

    One {!t} (exchange) is shared by all participants solving instances of
    the {e same} circuit; each participant attaches an {!endpoint}.  Clauses
    travel as flat arrays of {e packed literal keys} — solver-independent
    [(node, frame, sign)] triples packed into single non-negative ints — so
    an importer can remap them through its own variable numbering, which
    need not agree with the exporter's.

    The transport is a {!Ring}: publishing never blocks, a slow consumer
    loses the oldest clauses (counted as {e dropped-stale}), and every
    endpoint sees every clause published by the others exactly once
    (modulo overwriting).  Per-endpoint hash dedup suppresses re-imports
    and re-exports of a clause already seen.

    Endpoints are domain-confined like the solvers they serve: create one
    per worker and only touch it there.  The exchange itself — its ring and
    aggregate counters — is freely shared. *)

(** {1 Packed literal keys} *)

val max_node : int
(** Exclusive upper bound on circuit node ids a key can carry. *)

val max_frame : int
(** Exclusive upper bound on time frames a key can carry. *)

val pack_lit : node:int -> frame:int -> neg:bool -> int
(** Pack a literal over circuit node [node] at time frame [frame].  The
    caller must check [0 <= node < max_node] and [0 <= frame < max_frame]
    (session-private pseudo-nodes are negative and must never be packed —
    that is the export filter's taint rule). *)

val unpack_lit : int -> int * int * bool
(** Inverse of {!pack_lit}: [(node, frame, neg)]. *)

(** {1 The exchange} *)

type config = {
  capacity : int;  (** ring slots *)
  max_size : int;  (** longest clause (literals) eligible for export *)
  max_lbd : int;  (** highest literal-block distance eligible for export *)
  restart_budget : int;
      (** exports a participating solver may make per restart interval
          ([max_int] = unlimited) — the static half of the adaptive
          sharing throttle *)
}

val default_config : config
(** 1024 slots, clauses up to 8 literals with LBD up to 4 — the short
    low-LBD clauses that carry most of the pruning power — and an
    unlimited per-restart export budget. *)

type t

val create : ?config:config -> unit -> t
(** @raise Invalid_argument if any config field is < 1. *)

val config : t -> config

type endpoint

val endpoint : t -> name:string -> endpoint
(** Attach a participant.  Thread-safe (workers attach lazily from their
    own domains); the returned endpoint is confined to the calling
    domain. *)

val name : endpoint -> string

val endpoint_id : endpoint -> int
(** The endpoint's id — dense from 0 in attach order, unique within the
    exchange.  Doubles as the participant's global {e solver id} for proof
    provenance: racers create their proof shards with it, so the [(solver
    id, clause id)] pairs travelling with clauses resolve unambiguously. *)

val max_size : endpoint -> int

val max_lbd : endpoint -> int

val publish : ?src_id:int -> endpoint -> int array -> lbd:int -> bool
(** Offer a clause of packed literal keys to the siblings.  [src_id]
    (default [-1] = none) is the clause's pseudo ID in the exporter's proof
    shard; importers receive it as the clause's provenance.  Returns
    [false] (and publishes nothing) if the clause is empty, over the
    size/LBD caps, or a duplicate of one this endpoint already published or
    imported.  The array is owned by the exchange afterwards — do not
    mutate it. *)

val drain : endpoint -> (int array -> origin:(int * int) option -> unit) -> int
(** Deliver every clause published by {e other} endpoints since the last
    drain, newest ones included, skipping duplicates.  [origin] is the
    clause's global provenance — the publishing endpoint's id and the
    clause's pseudo ID in the publisher's proof shard — or [None] if the
    publisher exported without one.  Returns the number delivered.  The
    callback must not call back into the exchange. *)

val note_dropped : endpoint -> int -> unit
(** Account clauses the importer had to discard (e.g. mentioning frames its
    varmap has not materialised) as dropped-stale. *)

val note_rejected_tainted : endpoint -> int -> unit
(** Account clauses the exporting solver withheld because their derivation
    was tainted by an instance-local (activation/auxiliary) literal. *)

(** {1 Adaptive throttling} *)

val note_import_used : endpoint -> int -> unit
(** Account imports that turned out load-bearing: after an UNSAT answer,
    the session reports how many imported clauses the refutation's
    backward closure reached ([Solver.core]'s [imports]).  Feeds both
    the per-endpoint usefulness ratio behind {!tune} and the aggregate
    [import_used] counter. *)

val restart_budget : endpoint -> int
(** The configured per-restart export budget (pass to
    [Solver.set_share ~export_budget]). *)

val lbd_cap : endpoint -> int
(** The endpoint's current adaptive export LBD cap (starts at the
    configured [max_lbd], moved by {!tune}). *)

val tune : endpoint -> int option
(** One adaptation step, meant as the solver's restart-boundary tune hook:
    once enough imports accumulated since the last move, a high
    used/delivered ratio (>= 1/4) widens the export LBD cap towards the
    configured maximum and a low one (< 1/16) narrows it towards 1;
    otherwise the cap holds.  Deterministic given the counter history;
    always returns the (possibly unchanged) current cap. *)

(** {1 Counters} *)

type stats = {
  exported : int;  (** clauses published to the ring *)
  imported : int;  (** distinct clauses consumed by at least one sibling *)
  delivered : int;  (** total deliveries summed over endpoints *)
  rejected_tainted : int;  (** exports withheld by the taint filter *)
  dropped_stale : int;  (** overwritten before consumption, or unmappable *)
  import_used : int;
      (** imported clauses later reported load-bearing in a refutation
          (see {!note_import_used}) *)
  occupancy : int;  (** clauses currently readable in the ring *)
  capacity : int;
}

val stats : t -> stats
(** A consistent-enough snapshot of the aggregate counters.  [imported <=
    exported] always holds: a clause counts as imported the first time any
    sibling consumes it ([delivered] counts every consumption). *)

val dump : t -> int array list
(** The packed clauses currently readable in the ring (test/debug use;
    racy while producers are active). *)

val stats_fields : stats -> (string * int) list
(** The counters as stable [(key, value)] pairs, in declaration order —
    for structured emission (telemetry counters, run ledgers, Prometheus
    export) without each consumer hand-listing the record fields. *)

val pp_stats : Format.formatter -> stats -> unit
