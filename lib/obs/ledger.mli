(** The run ledger: a versioned, structured per-check report.

    A ledger is read off a telemetry aggregate ({!of_aggregate}) — the
    same fold whether the events were aggregated in-process as the run
    went ([bmccheck --ledger], which shares the aggregate with
    [--metrics]) or re-read from a JSONL trace file ([bmcprof trace],
    through {!of_events}).  It captures what the paper's refinement is
    supposed to change: per-depth decision/conflict/propagation work, the
    decision-source histogram (branches taken from the [bmc_score] rank
    versus VSIDS-activity fallback), and core-variable churn between
    depths.

    The JSON codec is field-order-deterministic: [to_string] after
    {!of_string} reproduces the input byte-for-byte, which the schema
    round-trip test asserts. *)

val version : string
(** ["bmc-ledger/v1"]. *)

type depth_row = {
  l_property : string option;
      (** the batch item the row belongs to ({!Portfolio.check_batch} tags
          its items' rows); [None] in a single run.  Serialised first and
          only when set, so single-run ledgers keep their bytes *)
  l_depth : int;
  l_mode : string;  (** configured ordering for this depth *)
  l_outcome : string;  (** "unsat" | "sat" | "unknown" *)
  l_decisions : int;
  l_dec_rank : int;  (** decisions whose variable carried a positive rank *)
  l_dec_vsids : int;  (** decisions taken on activity alone *)
  l_implications : int;
  l_conflicts : int;
  l_core_clauses : int;
  l_core_vars : int;
  l_core_new : int;  (** core vars not in the previous depth's core *)
  l_core_dropped : int;  (** previous core vars gone from this one *)
  l_core_pre : int;
      (** core clauses {e before} minimisation ([l_core_clauses] is the
          post-minimisation size).  Equal to [l_core_clauses] when
          minimisation did not run; the JSON column (with [coremin_s]) is
          emitted only when the row actually minimised, and parses with a
          pre-equals-post default, so pre-coremin ledgers round-trip
          byte-identically *)
  l_coremin_s : float;  (** seconds of core minimisation *)
  l_switched : bool;  (** dynamic fallback fired during this depth *)
  l_build_s : float;
  l_solve_s : float;
  l_bcp_s : float;
  l_cdg_s : float;
  l_inpr_elim : int;
      (** variables eliminated by the boundary inprocessing before this
          depth (0 with inprocessing off, and in pre-inprocessing ledgers
          — the columns below parse with a 0 default, schema unchanged) *)
  l_inpr_sub : int;  (** clauses subsumed at the boundary *)
  l_inpr_str : int;  (** self-subsuming resolutions at the boundary *)
  l_inpr_probe_failed : int;  (** failed-literal probes at the boundary *)
  l_inpr_s : float;  (** seconds of boundary inprocessing *)
}

type t = {
  schema : string;
  depths : depth_row list;
  restarts : int;
  switches : int;
}

val of_aggregate : Telemetry.Sink.aggregate -> t
(** The ledger of everything folded into the aggregate: its "depth" rows
    (parsed by the same row decoder as a ledger file, so an absent column
    reads as its file default), and [restarts] and [switches] from its
    event tallies.  Read it once the emitting domains
    have quiesced. *)

val of_events : Telemetry.Sink.event list -> t
(** {!of_aggregate} of a fresh aggregate the events are folded into. *)

(** {1 Codec} *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
(** Members the schema does not name are ignored, so ledgers written by
    older builds load as they are: a [share] member from the builds with
    clause sharing, and the [races] and [wins] members from the builds
    that raced orderings. *)

val to_string : ?indent:bool -> t -> string
(** Pretty-printed by default (ledgers are meant to be read). *)

val of_string : string -> (t, string) result

(** {1 Aggregates} *)

val decisions : t -> int
val dec_rank : t -> int
val dec_vsids : t -> int
val conflicts : t -> int
val rank_share : t -> float
(** Percentage of attributed decisions that branched on a ranked variable
    (0 when nothing was attributed). *)

(** {1 Reports} *)

val pp_depth_table : Format.formatter -> t -> unit
(** The per-depth table ([bmcprof report], [bmccheck --metrics]):
    decision heat bars, rank share, implications, conflicts, core size,
    core churn, fallback markers, build / solve / CDG seconds, a
    [coremin pre->post] tail on rows whose core was minimised, and a
    TOTAL row. *)

val pp_effectiveness : Format.formatter -> t -> unit
(** The ordering-effectiveness report: decision-source split, fallback
    and restart counts, and core churn.  Never empty, even for a ledger
    with no depth rows. *)

(** {1 Regression diff} *)

type severity = Fail | Warn

type finding = { severity : severity; message : string }

val diff : ?warn_pct:float -> t -> t -> finding list
(** [diff baseline candidate]: [Fail] on a row's outcome changing, rows
    paired by (property, depth, mode, occurrence).  Each row is its own
    instance (an induction ledger's step and base rows share a depth and
    a mode), and the property keeps a batch's items apart whatever order
    they finished in.  [Warn] on decision/conflict drift beyond
    [warn_pct] (default 25%), a candidate core growing past the
    baseline's by more than [warn_pct], a row present on only one side, a
    fallback firing differently, or the rank-guided share moving more
    than 10 points.  Two equal ledgers produce []. *)

val pp_finding : Format.formatter -> finding -> unit
