(** A fixed pool of [Domain.t] workers behind a mutex/condition job queue.

    The pool is the substrate of {!Portfolio.check_batch}, which submits
    one job per property to the shared queue, and of the serve layer,
    which pins each warm session's jobs to one worker.  The pool
    guarantees {e affinity}: a job submitted with [~affinity:i] always
    runs on worker [i mod size], so state a job creates on its worker (a
    {!Bmc.Session}, which is domain-confined) can be reused by every
    later job with the same affinity.

    Jobs never block on other jobs (no job-to-job dependencies), so any
    pool size is safe: pinned jobs sharing a worker serialise in
    submission order.

    When the pool has a telemetry handle, every executed job emits a
    ["queue_wait"] span (wall-clock seconds between submission and the
    moment a worker picks the job up, tagged with the worker id) — the
    scheduling-pressure signal of the per-worker telemetry. *)

type t

val create : ?telemetry:Telemetry.t -> jobs:int -> unit -> t
(** Spawn [jobs] worker domains (clamped to at least 1).  [telemetry]
    (default {!Telemetry.disabled}) receives the per-job "queue_wait"
    spans; share a handle whose sink is domain-safe (the stock
    {!Telemetry.Sink} constructors are). *)

val size : t -> int
(** Number of worker domains. *)

val wall : unit -> float
(** {!Telemetry.wall}: the wall clock every timing in [lib/] reads. *)

(** {1 Futures} *)

type 'a future

val submit : ?affinity:int -> ?label:string -> t -> (unit -> 'a) -> 'a future
(** Enqueue a job.  Without [affinity] it goes to the shared queue (any
    idle worker steals it); with [~affinity:i] it is pinned to worker
    [i mod size].  [label] tags the job's "queue_wait" telemetry span.
    Jobs pinned to one worker run in submission order.
    @raise Invalid_argument if the pool has been shut down. *)

val await : 'a future -> 'a
(** Block until the job finishes; returns its value or re-raises its
    exception (in the caller's domain). *)

val map_list : ?label:string -> t -> ('a -> 'b) -> 'a list -> 'b list
(** Submit one unpinned job per element, await them all, preserve order.
    Exceptions re-raise after every job has settled (first one wins). *)

(** {1 Shutdown} *)

val shutdown : t -> unit
(** Drain every queued job, then join all workers.  Idempotent. *)

val with_pool : ?telemetry:Telemetry.t -> jobs:int -> (t -> 'a) -> 'a
(** [create], run the body, and {!shutdown} (also on exception). *)
