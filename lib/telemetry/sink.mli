(** Telemetry event consumers.

    An {!event} is a timestamped, typed record with a flat list of scalar
    fields; a sink decides what happens to it: dropped ({!null}), kept in
    memory ({!memory}), folded into running totals ({!aggregate}), or
    fanned out ({!tee}).  This library has no dependencies, so the sinks
    that serialise events — the JSONL trace writer and the aggregate's
    JSON summary — live in [Obs.Jsonl], over [Obs.Json]. *)

type value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

type event = {
  ts : float;  (** seconds since the owning handle was created *)
  kind : string;  (** "span", "counter", "gauge", "depth", "restart", ... *)
  fields : (string * value) list;
}

type t = {
  emit : event -> unit;
  flush : unit -> unit;
}

(** {1 Field helpers} *)

val find_int : (string * value) list -> string -> int option

val find_float : (string * value) list -> string -> float option
(** Accepts [Int] fields too (JSON does not distinguish). *)

val find_str : (string * value) list -> string -> string option

(** {1 Sinks} *)

val null : t
(** Drops everything. *)

val tee : t list -> t
(** Forward every event to all of the given sinks, in list order.  With two
    or more sinks the whole fan-out is serialised behind one mutex, so every
    sink sees concurrent domains' events in the same order; a single sink is
    returned as is. *)

val locked : t -> t
(** Serialise [emit] / [flush] calls to the wrapped sink behind a fresh
    mutex, making it safe to share across domains.  The stateful sinks
    below ({!memory}, {!of_aggregate}) and [Obs.Jsonl.of_channel] are
    already wrapped; use this for hand-rolled sinks that mutate shared
    state. *)

val memory : unit -> t * (unit -> event list)
(** A sink that records events; the closure returns them in emission
    order.  Emission is mutex-serialised; call the read-back closure only
    after emitting domains have been joined (or otherwise quiesced). *)

(** {1 Aggregation} *)

type aggregate
(** Running totals: per-span-name call counts and seconds, counter sums,
    last-value gauges, instant-event tallies, and the ordered lists of
    per-depth summary events and portfolio race rounds — everything a run
    ledger ([Obs.Ledger.of_aggregate]) is read from. *)

val aggregate : unit -> aggregate

val of_aggregate : aggregate -> t
(** The sink that folds events into the given aggregate.  Emission is
    mutex-serialised; the accessors below are unlocked, so read them only
    after emitting domains have quiesced (e.g. after [Domain.join]). *)

val span_seconds : aggregate -> string -> float
(** Total seconds recorded under this span name (0 if never seen). *)

val span_count : aggregate -> string -> int

val counter_value : aggregate -> string -> int

val gauge_value : aggregate -> string -> float option

val tally_value : aggregate -> string -> int
(** Occurrences of an instant-event kind, e.g. ["decision.vsids"]. *)

val depth_rows : aggregate -> (string * value) list list
(** The fields of every "depth" event seen, in emission order. *)

val race_rows : aggregate -> (string * value) list list
(** The fields of every "race" event seen, in emission order ("race"
    events are tallied like any other instant event as well). *)

(** {2 Totals by name}

    Each list is sorted by name. *)

val spans : aggregate -> (string * (int * float)) list
(** Per span name, its call count and total seconds. *)

val counters : aggregate -> (string * int) list

val gauges : aggregate -> (string * float) list

val tallies : aggregate -> (string * int) list
(** Per instant-event kind, and per [kind.src] for events with a [src]
    field. *)

val pp_report : Format.formatter -> aggregate -> unit
(** Human-readable phase breakdown: span table (sorted by total seconds),
    counters, gauges and event tallies.  The per-depth table is the run
    ledger's ([Obs.Ledger.pp_depth_table]). *)

val report_to_string : aggregate -> string
