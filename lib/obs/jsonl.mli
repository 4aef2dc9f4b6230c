(** The telemetry trace on disk: one {!Telemetry.Sink.event} per line,
    printed and parsed by {!Json}.

    Each line is a compact JSON object with [ts] (seconds since the
    telemetry handle was created) and [ev] (the event kind) first, then the
    event's fields in emission order:

    {v {"ts":0.0213,"ev":"span","name":"bcp","dur":0.0034,"count":1841} v}

    [bmccheck --trace], [satcheck --trace] and [bmcserve --trace] write
    this format through {!of_channel}; [bmcprof trace] reads it back
    through {!events_of_string}. *)

val to_line : Telemetry.Sink.event -> string
(** One line, no trailing newline. *)

val of_line : string -> (Telemetry.Sink.event, string) result
(** Parse one line produced by {!to_line}: a JSON object whose members
    are all scalars.  The [ts] and [ev] members are extracted; everything
    else becomes [fields]. *)

val events_of_string : string -> Telemetry.Sink.event list
(** Parse a whole JSONL document (blank lines ignored).
    @raise Failure on malformed input. *)

val of_channel : out_channel -> Telemetry.Sink.t
(** Write one line per event; [flush] flushes the channel.  Emission is
    wrapped in {!Telemetry.Sink.locked}, so lines from several domains
    never interleave. *)

val aggregate_to_json : Telemetry.Sink.aggregate -> Json.t
(** The aggregate's machine-readable summary:
    [{"spans":{...},"counters":{...},"gauges":{...},"events":{...},
    "depths":[...]}], every table sorted by name and the depth rows in
    emission order. *)
