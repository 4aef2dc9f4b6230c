(** One command-line run's path from its telemetry stream to its
    artefacts.

    [bmccheck], [satcheck] and [bmcserve] each build their telemetry
    handle here, from the artefact flags they were given: a JSONL trace
    file ([--trace]), a phase-breakdown report ([--metrics]), a run
    ledger ([--ledger]) and a flight recording ([--flight-recorder]).
    One {!Telemetry.Sink.aggregate} serves both the report and the
    ledger, folding the stream as the run goes; the flight recorder's
    ring is teed in with a SIGUSR1 handler that dumps it.

    Hot-path phase timing (two clock reads per BCP and conflict
    analysis) is on only when a trace or a metrics report will read
    it; a ledger- or recorder-only run gets the event stream alone. *)

val setup :
  tool:string ->
  ?trace:string ->
  ?metrics:Format.formatter ->
  ?ledger:string ->
  ?flight:string ->
  unit ->
  Telemetry.t * (unit -> unit)
(** [setup ~tool ?trace ?metrics ?ledger ?flight ()] returns the run's
    handle ({!Telemetry.disabled} when no artefact is asked for) and its
    [finish].  [finish] flushes and closes the trace, writes the ledger
    and the flight recording, and prints the report to [metrics] — the
    phase breakdown, then the ledger's per-depth table when the run has
    depth rows.  Call it once, after every emitting domain has been
    joined: from [at_exit] in a tool that exits on many paths, or after
    a server's drain.  Progress and write errors go to stderr prefixed
    with [tool]; a trace file that cannot be opened exits the process
    with status 2. *)
