(** Flight recorder: a bounded, per-domain telemetry sink.

    A recorder is a {!Telemetry.Sink.t} ({!sink}) that keeps the last
    [capacity] events {e per domain} that ever emits through it, in one
    ring per domain (allocated lazily via domain-local storage).  Tee it
    into a run's telemetry handle and every event the run produces — the
    solver's restarts, switches, database reductions and compactions,
    the per-solve and per-depth summaries, the
    portfolio's racer starts, wins and cancellations — lands in the ring
    of the domain that emitted it, stamped with wall-clock microseconds.
    Recording is two array stores, one clock read and one atomic publish;
    a run that spins for hours still holds only the last [capacity]
    events per domain.

    {2 Memory model}

    Each ring has a single writer (its owning domain).  The writer stores
    the event and its stamp into slot [seq mod capacity] with plain
    stores, then publishes by bumping the ring's atomic sequence counter
    (release).  A snapshotting domain reads the counter (acquire), copies
    the live window, and re-reads the counter: any event whose slot the
    writer may since have re-entered — index [<= c2 - capacity] — is
    discarded, so a snapshot never pairs an event with another event's
    stamp.  Events are immutable, and a racy read of a slot yields either
    the old or the new event, never a torn one, under the OCaml memory
    model.

    A full ring retains [capacity] event records with their field lists,
    about 50 words per event for a solver's [solve] span; see the README's
    "Flight recorder" section for measured sizes.

    Snapshots can be taken at any time from any domain — on demand, from a
    SIGUSR1 handler ({!on_sigusr1}) or an [at_exit] hook — which is what
    makes a wedged portfolio run diagnosable post-mortem. *)

type t

val create : ?capacity:int -> unit -> t
(** A recorder whose per-domain rings hold the last [capacity] (default
    4096) events each.  @raise Invalid_argument if [capacity < 2]. *)

val sink : t -> Telemetry.Sink.t
(** The recording sink: [emit] appends the event to the calling domain's
    ring, overwriting the oldest once full; [flush] does nothing.  Needs
    no lock — each domain writes only its own ring. *)

val snapshot : t -> Telemetry.Sink.event list
(** A consistent copy of every domain's surviving events, merged and
    sorted by wall-clock stamp (ties: domain, then sequence).  Each event
    carries three fields appended to its own: [dom] (the recording
    domain's id), [seq] (its per-domain sequence number) and [t_us]
    (microseconds since {!create}).  Safe to call from any domain while
    writers are still recording; per ring, at most one in-flight event's
    worth of history is conservatively dropped. *)

val dump : t -> string -> unit
(** [dump t path] writes {!snapshot} to [path] (truncating) as
    {!Jsonl} lines — a trace [bmcprof trace] folds and [bmcprof timeline]
    draws. *)

val on_signal : t -> signal:int -> path:string -> unit
(** Install a handler on [signal] that dumps a snapshot to [path].
    Best-effort: silently a no-op on platforms without that signal.
    Long-lived processes with their own shutdown sequence (the serve
    layer's SIGTERM drain) should instead call {!dump} explicitly once
    quiesced, so the dump is ordered after the last solver event. *)

val on_sigusr1 : t -> path:string -> unit
(** [on_signal] on SIGUSR1 — poke a wedged run with [kill -USR1] to see
    what its solvers are doing. *)
