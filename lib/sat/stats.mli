(** Search statistics for one solver run.

    "Implications" is the paper's name for unit propagations (Figure 7 plots
    both decisions and implications per unrolling depth). *)

type t = {
  mutable decisions : int;
  mutable decisions_rank : int;
      (** decisions whose variable carried a positive [bmc_score] rank —
          the branch the paper's refined ordering steered (see
          {!Order.decided_by_rank}) *)
  mutable decisions_vsids : int;
      (** decisions taken on VSIDS activity alone (unranked variable, or
          the ordering fell back to pure VSIDS) *)
  mutable propagations : int;  (** implications derived by BCP *)
  mutable conflicts : int;
  mutable restarts : int;
  mutable learned : int;  (** conflict clauses added *)
  mutable deleted : int;  (** conflict clauses removed by reduction *)
  mutable max_decision_level : int;
  mutable heuristic_switches : int;
      (** dynamic mode: times the solver fell back to pure VSIDS *)
  mutable blocker_hits : int;
      (** watcher visits resolved by the blocking literal alone, without
          touching clause memory (see {!Arena.Watch}) *)
  mutable arena_bytes : int;
      (** current clause-arena footprint in bytes (live + not-yet-compacted
          waste); a gauge, so {!add} takes the max *)
  mutable arena_compactions : int;  (** arena garbage collections run *)
  mutable shared_exported : int;
      (** learnt clauses offered to the clause exchange (passed the
          size/LBD caps and the taint filter; see {!Solver.set_share}) *)
  mutable shared_imported : int;
      (** clauses attached from the exchange at solve-start/restart
          boundaries *)
  mutable shared_rejected_tainted : int;
      (** exports withheld because the derivation involved an
          instance-local (activation/auxiliary) literal *)
  mutable shared_throttled : int;
      (** exports withheld by the per-restart export budget (the adaptive
          sharing throttle; see {!Solver.set_share}) *)
  mutable inpr_runs : int;  (** {!Solver.inprocess} invocations *)
  mutable inpr_probes : int;  (** failed-literal probes attempted *)
  mutable inpr_probe_failed : int;  (** probes that yielded a conflict *)
  mutable inpr_satisfied : int;  (** level-0-satisfied clauses removed *)
  mutable inpr_subsumed : int;  (** clauses removed by subsumption *)
  mutable inpr_strengthened : int;  (** self-subsuming resolutions *)
  mutable inpr_eliminated : int;  (** variables eliminated (BVE) *)
  mutable inpr_resolvents : int;  (** clauses added by elimination *)
  mutable inpr_time : float;  (** seconds inside {!Solver.inprocess} *)
  mutable solve_time : float;  (** seconds spent inside {!Solver.solve} *)
  mutable bcp_time : float;
      (** seconds in unit propagation; only accumulated while telemetry
          is enabled (timing the hot path costs clock reads) *)
  mutable analyze_time : float;
      (** seconds in conflict analysis; telemetry-gated like
          [bcp_time] *)
}

val create : unit -> t

val reset : t -> unit
(** Zero every counter and timer in place. *)

val copy : t -> t

val add : t -> t -> unit
(** [add acc s] accumulates [s] into [acc] (max for [max_decision_level]
    and [arena_bytes], sums for everything else including the wall-time
    fields). *)

val pp : Format.formatter -> t -> unit
