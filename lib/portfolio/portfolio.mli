(** Parallel portfolio over the BMC session substrate.

    The paper's gamble is that one of three decision orderings — plain
    VSIDS, the static refined ordering, the dynamic ordering with VSIDS
    fallback — wins per instance, but which one is instance-dependent.
    This module stops guessing and races them on OCaml 5 domains:

    {b Mode A (strategy race).}  {!create_race} builds one persistent
    {!Bmc.Session} per ordering, each pinned to its own pool worker (the
    sessions are domain-confined, so they are created lazily {e inside}
    their workers and never leave them).  {!race_depth} submits the
    depth-k instance to every racer; the first definitive answer (SAT or
    UNSAT) wins, the losers are cancelled cooperatively through their
    {!Pool.Token}s (the solver polls the token at conflict / 1024-decision
    boundaries, so a loser exits within one restart interval), and the
    winner's unsat core is folded into the shared {!Bmc.Score} — the
    paper's refinement loop, parallelised: depth k+1's static/dynamic
    racers decide by the ranking the depth-k winner produced.

    {b Mode B (property batch).}  {!check_batch} schedules one full
    sequential check per property over the pool's shared queue
    (work-stealing across properties); each job owns its session on
    whichever worker picked it up.  Outcomes are bit-identical to running
    the properties sequentially, whatever the pool size — parallelism only
    reorders which property finishes first.

    Determinism: race {e outcomes} are deterministic (SAT-ness of the
    depth-k instance does not depend on who answers), but race {e winners}
    and therefore the evolution of the shared ranking are timing-dependent
    — so per-depth decision counts and cores may differ between race runs
    while the [s]/[u] outcome string stays fixed. *)

module Pool = Pool

(** {1 Mode A: strategy races} *)

type race
(** A persistent racing ensemble: one session per ordering, a shared
    score, and the cancellation tokens.  Owned by the creating domain
    (the coordinator); racer sessions are owned by their pool workers. *)

type racer = {
  r_name : string;
      (** the racer's display name — win tallies, race rows and telemetry
          counters are all keyed by it (typically an {!Ordering}-registry
          heuristic name) *)
  r_mode : Bmc.Session.mode;  (** the racer's decision ordering *)
  r_restart_base : int option;
      (** Luby restart unit override ([None] keeps the solver default).
          Distinct units diversify restart schedules across the ensemble,
          so the racers learn different clauses. *)
}

val racer : ?restart_base:int -> name:string -> Bmc.Session.mode -> racer
(** Smart constructor.  Heuristics with hook state ({!Bmc.Session.Custom})
    must not be shared between racers — build each racer's mode freshly
    (e.g. one {!Ordering.mode_of_name} call per racer). *)

val create_race :
  ?racers:racer list ->
  pool:Pool.t ->
  Bmc.Session.config ->
  Circuit.Netlist.t ->
  property:Circuit.Netlist.node ->
  race
(** [racers] defaults to the paper's three orderings with diversified
    Luby restart units: ["standard"]/64, ["static"]/100, ["dynamic"]/150.
    The roster is fixed for the race's lifetime: every racer keeps its slot
    and its persistent session from the first depth to the last.  The
    [config]'s [mode] field is ignored (each racer gets its own); its
    budget, COI, weighting, max_depth and telemetry apply to every racer,
    and [collect_cores] is forced on so the winner always has a core to
    contribute.  Racer [i] is pinned to pool worker
    [i mod Pool.size pool]; with fewer workers than racers the race
    serialises gracefully.
    @raise Invalid_argument if the ensemble is empty. *)

type race_stat = {
  depth : int;
  winner : string option;
      (** the winning racer's name; [None] when every racer returned
          [Unknown] *)
  stat : Bmc.Session.depth_stat;
      (** the winner's per-instance stat (a loser's when [winner = None]) *)
  core_vars : Sat.Lit.var list;
      (** the winner's unsat-core variables ([[]] unless it answered UNSAT
          with proof logging) — the set folded into the shared ranking,
          exposed so reports and benches can fingerprint which core
          actually steered depth k+1 *)
  attempts : (string * Sat.Solver.outcome) list;
      (** every racer's (name, outcome), in slot order ([Unknown] for
          cancelled losers) *)
  wall : float;  (** wall-clock seconds for the whole round *)
  cancelled : int;  (** losers that were cancelled mid-solve *)
  max_cancel_latency : float;
      (** slowest observed cancel-to-exit wall latency this round (0 when
          nothing was cancelled) *)
  trace : Bmc.Trace.t option;  (** the winner's counterexample, if SAT *)
}

val race_depth : race -> k:int -> race_stat
(** Race the depth-k instance (property constrained to fail at frame [k])
    across all racers and block until every racer has settled.  Depths
    must strictly increase across calls (the racers' persistent sessions
    require it).  Emits one "race" telemetry event per round, a
    ["race.win.<name>"] counter for the winner, a ["race.cancelled"]
    counter and one ["cancel_latency"] span per cancelled loser.  Each
    racer emits ["racer_start"] and ["racer_win"] / ["racer_cancel"]
    events [{depth, slot}] on its own worker, so a flight recorder teed
    into the handle files them in that worker's ring. *)

type result = {
  verdict : Bmc.Session.verdict;
  per_depth : race_stat list;  (** ascending depth *)
  total_wall : float;
  wins : (string * int) list;
      (** race wins per racer name, roster order (includes zero-win
          racers) *)
}

val check_race :
  ?config:Bmc.Session.config ->
  ?racers:racer list ->
  pool:Pool.t ->
  Circuit.Netlist.t ->
  property:Circuit.Netlist.node ->
  result
(** The full BMC loop of {!Bmc.Session.check}, with every depth raced: for
    k = 0, 1, ... race the depth-k instance; on a SAT winner replay and
    report the counterexample; on UNSAT deepen; when every racer comes
    back [Unknown] abort.  The verdict is bit-identical to the sequential
    engines' on the same circuit and budget (only wall time and the
    winning modes vary run to run).
    @raise Failure if a counterexample fails to replay (solver/encoder
    bug, surfaced loudly). *)

(** {1 Mode B: property batches} *)

val check_batch :
  ?config:Bmc.Session.config ->
  ?policy:Bmc.Session.policy ->
  pool:Pool.t ->
  (string * Circuit.Netlist.t * Circuit.Netlist.node * int) list ->
  (string * Bmc.Session.result) list
(** Check many properties concurrently: one job per
    [(name, netlist, property, max_depth)] item on the pool's shared
    queue, each running the plain sequential {!Bmc.Session.check}
    (policy defaults to [Persistent]) on whichever worker steals it.
    Every item runs under [config] with its own [max_depth] in place of
    the config's.  Results come back in input order, and each is
    bit-identical to a sequential run of the same property.  Emits one
    ["batch_item"] telemetry span per property (wall seconds, its
    [property] field the item's name). *)
