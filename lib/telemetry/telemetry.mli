(** Structured tracing with near-zero cost when disabled.

    A handle is either {!disabled} — every operation is a single branch on an
    immutable [false], no clock reads, no allocation — or created over a
    {!Sink.t} that receives timestamped events.  Producers guard hot-path
    emissions with {!enabled} so that field lists are never even built when
    telemetry is off; the solver's bench ablation verifies the disabled
    configuration is indistinguishable from an uninstrumented build.

    Event kinds used across this repository (see the README's
    "Observability" section for the full schema):

    - ["span"]: a timed phase.  Fields [name], [dur] (seconds); {!span}
      additionally records [nest] (enclosing-span depth), while pre-measured
      {!span_event}s may carry a [count] of coalesced calls.
    - ["counter"] / ["gauge"]: named monotonic sums / last-value readings.
    - ["restart"], ["switch"], ["reduce_db"], ["compact"]: instant solver
      events.
    - ["depth"]: one per BMC unrolling depth, emitted by the engines (a
      property batch adds the item's name as a [property] field).

    This one stream feeds the JSONL trace, the aggregate (which the
    metrics report and the run ledger, and through it the Prometheus
    export, are read off) and the flight recorder, each a sink teed into
    the handle ([Obs.Run] sets them up for the command-line tools). *)

module Sink = Sink

val wall : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]): the one clock of [lib/].
    Every timing, seconds budget and deadline in the solver, the BMC
    engines, the worker pool and the flight recorder reads it.  A process
    CPU clock would be wrong under multicore OCaml: it sums the CPU time of
    every domain, so one batch item's seconds would include the work of
    the items on the other workers. *)

type t

val disabled : t
(** The no-op handle. *)

val create : ?clock:(unit -> float) -> ?timing:bool -> Sink.t -> t
(** An enabled handle over the sink.  [clock] (default {!wall}) is read
    once at creation; event timestamps are seconds since then.  Tests pass a
    deterministic clock.  [timing] (default [true]) additionally enables
    hot-path phase timing — clock reads around every BCP and conflict
    analysis; pass [~timing:false] for event-stream-only consumers (run
    ledgers, flight recorders) that must stay cheap enough to
    leave on. *)

val map_sink : t -> (Sink.t -> Sink.t) -> t
(** [map_sink t f] emits through [f]'s wrapping of [t]'s sink, with [t]'s
    clock, epoch, timing switch and span nesting, so its events
    interleave with [t]'s on one timeline.  {!disabled} stays disabled. *)

val enabled : t -> bool
(** [false] only for {!disabled}.  Guard any emission whose argument list is
    expensive to build. *)

val timing : t -> bool
(** Whether producers should pay per-call clock reads for phase timing.
    [false] for {!disabled} and for handles created with [~timing:false];
    implies {!enabled} when [true] by construction of {!create}. *)

val now : t -> float
(** Seconds since the handle was created (0 when disabled). *)

val event : t -> string -> (string * Sink.value) list -> unit
(** Emit an instant event of the given kind. *)

val counter : t -> string -> int -> unit
(** Emit a "counter" event; aggregating sinks sum the values per name. *)

val gauge : t -> string -> float -> unit
(** Emit a "gauge" event; aggregating sinks keep the last value per name. *)

val span : t -> string -> ?fields:(string * Sink.value) list -> (unit -> 'a) -> 'a
(** [span t name f] times [f ()] and emits a "span" event when it returns
    (or raises — the event is emitted either way and the exception
    re-raised).  The event's [ts] is the span's start; [nest] records how
    many spans were open around it {e on the calling domain} — nesting
    depth is domain-local, so concurrent workers sharing a handle do not
    corrupt each other's depths.  When disabled this is exactly
    [f ()]. *)

val span_event : t -> string -> dur:float -> (string * Sink.value) list -> unit
(** Emit a "span" event for an externally measured duration — used to
    publish coalesced hot-path timings (e.g. total BCP time of one solve
    call) as a single event. *)

val flush : t -> unit
