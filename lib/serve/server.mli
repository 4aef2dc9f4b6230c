(** The long-lived model-checking engine behind [bmcserve].

    The server couples three existing subsystems: requests are solved on
    the {!Portfolio.Pool}'s worker domains, warm {!Bmc.Session}s are kept
    in the digest-keyed {!Cache} between requests, and every answer is
    streamed to telemetry and a per-request ledger that [bmcprof serve]
    aggregates.

    {b Threading model.}  One {e front-end} thread (whichever thread calls
    {!submit} / {!process} / {!drain} — the select loop in [bmcserve], the
    bench driver, or a test) owns the cache and all bookkeeping.  Worker
    domains only run solve jobs and push results onto an internal
    mutex-protected completion queue, waking the front end through
    [on_wake] (e.g. a self-pipe write that interrupts a [select]).  The
    front end applies completions in {!process}, which is where responses
    are issued, waiters re-dispatched and the LRU budget enforced.

    {b Request lifecycle.}  {!submit} either answers immediately — shed
    (admission queue full), draining, malformed, or a {e cache hit}
    answered from the entry's memo without touching a solver — or
    dispatches a job pinned to the entry's worker.  A dispatched request
    resumes the entry's warm session at its first unproven depth ({e
    warm}), or builds a session cold ({e miss}).  Per-request deadlines
    arm the session budget's stop hook; a deadline/budget abort answers
    [Aborted] and invalidates the entry (the depth rule forbids re-solving
    an aborted instance), so the next request rebuilds cold. *)

type config = {
  sv_jobs : int;  (** pool worker domains *)
  sv_cache_bytes : int;  (** LRU budget over resident clause-arena bytes *)
  sv_max_pending : int;
      (** admission bound: in-flight + queued requests above this are
          shed *)
  sv_mode : Bmc.Session.mode;  (** ordering for requests without one *)
  sv_depth_cap : int;  (** requests with a deeper budget are rejected *)
  sv_max_conflicts : int option;  (** per-instance conflict budget *)
  sv_telemetry : Telemetry.t;
      (** every session and solver of the server emits here; a flight
          recorder rides on it (tee [Obs.Recorder.sink] into its sink) *)
  sv_ledger : (Obs.Json.t -> unit) option;  (** per-request ledger sink *)
}

val make_config :
  ?jobs:int ->
  ?cache_bytes:int ->
  ?max_pending:int ->
  ?mode:Bmc.Session.mode ->
  ?depth_cap:int ->
  ?max_conflicts:int ->
  ?telemetry:Telemetry.t ->
  ?ledger:(Obs.Json.t -> unit) ->
  unit ->
  config
(** Defaults: 1 job, 64 MiB cache, 64 pending, [Dynamic] ordering, depth cap 64, no conflict budget, telemetry disabled. *)

type t

val create : ?on_wake:(unit -> unit) -> config -> t
(** Spawns the worker pool.  [on_wake] is called from worker domains each
    time a completion is queued (default: nothing) — front ends blocked in
    [select] use it to wake themselves; loops built on {!wait} don't need
    it. *)

val submit : t -> respond:(Protocol.response -> unit) -> Protocol.request -> unit
(** Front-end thread only.  [respond] fires exactly once — synchronously
    for shed / draining / malformed / cache-hit answers, else from a later
    {!process} call on the same thread. *)

val process : t -> unit
(** Apply queued completions: update cache entries, answer their
    requests, re-dispatch waiters, enforce the LRU budget.  Front-end
    thread only; cheap when idle. *)

val wait : t -> unit
(** Block until a completion is queued (returns immediately when nothing
    is in flight).  [wait]/[process] is the engine's event loop for front
    ends without their own [select]. *)

val pending : t -> int
(** Requests admitted but not yet answered (running + queued). *)

val begin_drain : t -> unit
(** Stop admission: subsequent {!submit}s answer [Draining].  In-flight
    requests keep running. *)

val draining : t -> bool

val drain : t -> unit
(** {!begin_drain}, then {!wait}/{!process} until nothing is pending.
    Every admitted request is answered before this returns — the SIGTERM
    path of [bmcserve]. *)

val shutdown : t -> unit
(** {!drain}, then shut the worker pool down.  The server is dead after
    this. *)

val check_now : t -> Protocol.request -> Protocol.response
(** Synchronous convenience for tests and the bench driver: submit, pump
    {!wait}/{!process} until this request's answer arrives, return it.
    Front-end thread only. *)

type stats = {
  st_answered : int;  (** requests answered with a verdict *)
  st_hits : int;  (** answered from the memo, no solver touched *)
  st_warm : int;  (** resumed a warm session *)
  st_misses : int;  (** solved cold *)
  st_shed : int;
  st_errors : int;  (** malformed requests and failed jobs *)
  st_evicted : int;  (** cache entries dropped by the LRU budget *)
  st_entries : int;  (** current cache population *)
  st_bytes : int;  (** current resident clause-arena bytes *)
}

val stats : t -> stats
