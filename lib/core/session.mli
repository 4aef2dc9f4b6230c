(** The incremental BMC session — one solver/unroller substrate under every
    engine.

    The paper's conclusion anticipates combining the ordering refinement
    with incremental SAT (Whittemore et al.; Eén–Sörensson).  A session
    owns one {!Unroll} and (under the [Persistent] policy) one long-lived
    {!Sat.Solver}, and packages the per-depth mechanics every engine
    needs, so the engines reduce to small drivers:

    - {e frame deltas}: extending to depth k loads only the clauses of
      newly materialised frames ({!Unroll.iter_delta}) — each frame enters
      the solver exactly once, making clause construction O(delta) per
      depth instead of the O(k²)-across-a-run of per-depth
      {!Unroll.instance} rebuilds;
    - {e activation-guarded constraints}: instance-local clauses (¬P(V^k),
      LTL witness shapes, uniqueness constraints) are guarded behind a
      fresh activation literal, assumed for this instance and retired with
      a unit clause when the next instance begins (Eén–Sörensson);
    - {e ordering refresh}: before each solve the decision order is
      recomputed from the {!Score} ranking fed by previous cores and
      installed on the live solver via {!Sat.Solver.set_order};
    - {e stats deltas} and the shared "depth" telemetry event, so
      per-instance numbers from a persistent solver are comparable with
      fresh-solver runs.

    The [Fresh] policy runs the same instance sequence on a new solver per
    depth — bit-compatible with the seed's per-depth-rebuild engine — so
    the incremental-vs-rebuild comparison (benchmark A3) is a one-flag ablation
    over identical instances.

    {b Domain-ownership rule.}  A session — and the solver(s) under it — is
    confined to the domain that called {!create}.  Every instance-building
    or solving entry point ({!begin_instance}, {!constrain}, {!fresh_lit},
    {!solve_instance}, {!model}, and therefore {!trace}) asserts this and
    raises [Invalid_argument] when called from another domain.  The
    worker pool's callers build on the rule: a {!Portfolio.check_batch}
    item creates its session inside the worker that runs it, and the
    serve layer pins each warm session's jobs to one worker.  Read-only
    accessors ({!score}, {!last_core_vars}, ...) are not asserted but are
    only meaningful once the owning domain has quiesced. *)

(** {1 Configuration (shared by every engine)} *)

(** A pluggable ordering heuristic — the ordering laboratory's unit of
    registration (see the [Ordering] library for the registry of named
    heuristics).  [c_order] plays the role the built-in modes hard-code:
    produce the solver's rank mode for the depth-k instance.  [c_hooks],
    when present, builds the {!Sat.Solver.hooks} callbacks — built once
    per session under [Persistent] (heuristic state survives across
    depths) and once per instance under [Fresh].  A [custom] value holds
    mutable heuristic state behind its closures, so obtain a fresh one
    per session and never share it between solvers. *)
type custom = {
  c_name : string;  (** registry name; what {!pp_mode} prints *)
  c_uses_cores : bool;
      (** whether [c_order] consumes the folded unsat-core ranking (drives
          proof logging and score folding exactly like [Static]) *)
  c_order : Unroll.t -> Score.t -> k:int -> Sat.Order.mode;
  c_hooks : (Unroll.t -> Score.t -> solver:Sat.Solver.t -> Sat.Solver.hooks) option;
}

type mode =
  | Standard  (** plain BMC: pure VSIDS (the baseline column of Table 1) *)
  | Static  (** the paper's refined ordering as the primary key throughout *)
  | Dynamic  (** refined ordering with fallback to VSIDS (Section 3.3) *)
  | Shtrichman  (** the related-work time-axis static ordering *)
  | Custom of custom  (** a registered heuristic from the ordering laboratory *)

(** Core-quality policy: what kind of unsat core feeds the ranking and the
    reports. *)
type core_mode =
  | Core_fast  (** the proof-derived core as-is (the default) *)
  | Core_minimal
      (** additionally run destructive, checker-certified core minimisation
          ({!Sat.Coremin}) on every UNSAT instance before folding *)

type config = {
  mode : mode;
  weighting : Score.weighting;
  coi : bool;  (** restrict encoding to the property cone *)
  budget : Sat.Solver.budget;  (** per-instance solver budget *)
  max_depth : int;  (** highest unrolling depth to try *)
  collect_cores : bool;
      (** force proof logging even in modes that do not consume cores (the
          overhead ablation, the serve layer, proof-based abstraction) *)
  core_mode : core_mode;  (** core quality policy (default [Core_fast]) *)
  coremin_budget : Sat.Coremin.budget;
      (** work bound for [Core_minimal]'s per-instance minimisation
          (default {!Sat.Coremin.no_budget}: run to a minimal core) *)
  inprocess : Sat.Inprocess.config option;
      (** run proof-aware inprocessing ({!Sat.Solver.inprocess}) at every
          depth boundary under this budget ([Persistent] policy only;
          ignored under [Fresh]).  The session computes the freeze set
          from its {!Varmap} before each run — see {!freeze_nodes}.
          Default [None]: no inprocessing, bit-compatible with the seed. *)
  telemetry : Telemetry.t;
      (** structured-tracing handle, threaded into every solver the session
          creates; the session additionally emits one "depth" event per
          solved instance.  A flight recorder rides on it: tee
          [Obs.Recorder.sink] into the handle's sink.  Default
          {!Telemetry.disabled} — a no-op. *)
}

val default_config : config
(** [Standard] mode, [Linear] weighting, no COI, no budget,
    [max_depth = 20]. *)

val make_config :
  ?mode:mode ->
  ?weighting:Score.weighting ->
  ?coi:bool ->
  ?budget:Sat.Solver.budget ->
  ?max_depth:int ->
  ?collect_cores:bool ->
  ?core_mode:core_mode ->
  ?coremin_budget:Sat.Coremin.budget ->
  ?inprocess:Sat.Inprocess.config ->
  ?telemetry:Telemetry.t ->
  unit ->
  config

val uses_cores : mode -> bool
(** Does this mode consume unsat cores between instances? *)

val order_mode : config -> Unroll.t -> Score.t -> k:int -> Sat.Order.mode
(** The solver ordering for the depth-k instance: VSIDS, a {!Score} rank
    snapshot over the current variable range, or the Shtrichman time-axis
    ranking.  Hoisted here from the per-engine copies. *)

val pp_mode : Format.formatter -> mode -> unit
(** Built-in modes print their keyword; [Custom c] prints [c.c_name]. *)

val mode_string : mode -> string
(** What {!pp_mode} prints.  The inverse is the [Ordering] registry's
    [mode_of_name], the one place a name becomes a mode. *)

(** {1 Per-instance statistics} *)

type depth_stat = {
  depth : int;
  mode : mode;  (** the ordering this instance was configured with *)
  outcome : Sat.Solver.outcome;
  decisions : int;
  dec_rank : int;
      (** decisions that branched on a positively ranked variable — the
          per-variable decision-source histogram's refined-ordering bucket
          (see {!Sat.Order.decided_by_rank}) *)
  dec_vsids : int;  (** decisions taken on VSIDS activity alone *)
  implications : int;  (** BCP-derived assignments, Figure 7's metric *)
  conflicts : int;
  core_size : int;  (** clauses in the unsat core; 0 if not collected *)
  core_var_count : int;
  core_new : int;
      (** core variables absent from the previous depth's core (0 unless
          this instance was UNSAT with proof logging on) *)
  core_dropped : int;
      (** previous-depth core variables gone from this core *)
  core_pre : int;
      (** clauses in the core {e before} minimisation (equals [core_size]
          unless [Core_minimal] shrank it) *)
  coremin_time : float;
      (** seconds spent minimising this instance's core (0 outside
          [Core_minimal]) *)
  coremin_certified : bool;
      (** the reported core passed {!Sat.Coremin}'s independent checker
          re-proof ([true] when no minimisation ran) *)
  switched : bool;  (** dynamic mode fell back to VSIDS in this instance *)
  time : float;  (** seconds solving this instance *)
  build_time : float;
      (** seconds building this instance (frame deltas + constraints +
          ordering refresh, or unroll + solver setup under [Fresh]) *)
  bcp_time : float;
      (** seconds of unit propagation inside the solve (0 unless
          telemetry was enabled — timing the hot path costs clock reads) *)
  cdg_time : float;
      (** seconds of CDG bookkeeping inside the solve (0 unless
          telemetry was enabled — the Section 3.1 overhead, per depth) *)
  inpr_elim : int;
      (** variables eliminated by the depth-boundary inprocessing run(s)
          preceding this instance (0 with inprocessing off) *)
  inpr_subsumed : int;  (** clauses removed by subsumption at the boundary *)
  inpr_strengthened : int;  (** self-subsuming resolutions at the boundary *)
  inpr_probe_failed : int;  (** failed-literal probes at the boundary *)
  inpr_time : float;  (** seconds of boundary inprocessing *)
}

(** {1 The session} *)

type policy =
  | Fresh
      (** a new solver per instance over a snapshot CNF — the seed
          per-depth-rebuild behaviour, kept as the ablation baseline *)
  | Persistent
      (** one long-lived solver; frame deltas, activation-guarded
          constraints, learnt clauses / activities / CDG surviving across
          depths — the default substrate *)

val pp_policy : Format.formatter -> policy -> unit

type t

val create :
  ?policy:policy ->
  ?constrain_init:bool ->
  ?score:Score.t ->
  ?learn_cores:bool ->
  config ->
  Circuit.Netlist.t ->
  property:Circuit.Netlist.node ->
  t
(** A session over the circuit.  [policy] defaults to [Persistent].
    [constrain_init] is passed to {!Unroll.create} (k-induction's step
    session turns it off).  [score] shares a ranking with another session
    (base and step cases of induction feed one ranking); by default the
    session owns a fresh one.  [learn_cores] (default [true]): when
    [false], cores are neither extracted nor folded into the score even in
    [Static]/[Dynamic] mode — the step case of induction, whose instances
    are not part of the correlated refutation sequence, runs this way.
    The session captures the calling domain as its owner (see the
    domain-ownership rule above).
    @raise Invalid_argument if the netlist does not validate. *)

val policy : t -> policy

val unroll : t -> Unroll.t

val score : t -> Score.t

val begin_instance : ?frames:int -> t -> k:int -> unit
(** Open the depth-k instance.  [frames] (default [k]) is the highest
    frame the instance ranges over — LTL's lasso encoding needs frame
    [k+1] for the loop-closing successor state.  Under [Persistent] this
    retires the previous instance's activation literal with a unit clause,
    loads the deltas of any not-yet-loaded frames into the live solver
    (each frame exactly once for the session's lifetime), and allocates a
    fresh activation literal for this instance; under [Fresh] it snapshots
    {!Unroll.base_cnf} as the instance formula.  Constraints are then
    added with {!constrain} and the instance solved with
    {!solve_instance}.
    @raise Invalid_argument if [frames < k], or under [Persistent] if [k]
    does not increase between instances. *)

val constrain : t -> Sat.Lit.t list -> unit
(** Add an instance-local clause: guarded behind the activation literal on
    the live solver ([Persistent]), or appended to the snapshot formula
    ([Fresh]).  Retired automatically when the next instance begins.
    @raise Invalid_argument if no instance is open. *)

val fresh_lit : t -> Sat.Lit.t
(** A positive literal over a fresh variable for instance-local Tseitin
    encodings (LTL witness shapes, simple-path disequalities).  Allocated
    through the shared {!Varmap} under a reserved pseudo-node in
    [Persistent] mode, so it can never collide with circuit variables of
    frames materialised later.
    @raise Invalid_argument if no instance is open. *)

val var_of : t -> node:Circuit.Netlist.node -> frame:int -> Sat.Lit.var
(** The SAT variable of a circuit node at a frame (via the unroller). *)

val freeze_nodes : t -> Circuit.Netlist.node list -> unit
(** Exempt the given circuit nodes — at {e every} frame — from variable
    elimination by depth-boundary inprocessing.  Engines whose instance
    constraints revisit already-loaded frames must register the nodes those
    constraints mention (k-induction: the property and the registers; LTL:
    the formula atoms and the registers); plain BMC constrains only the
    newest frame, whose variables do not exist yet at boundary time, so it
    needs no registration.  The session itself already freezes the top
    loaded frame (the next transition delta resolves against it) and keeps
    activation literals frozen.  Negative (pseudo-)nodes are ignored.  No-op unless
    [config.inprocess] is set. *)

val solve_instance : t -> depth_stat
(** Refresh the decision ordering from the score ({!Sat.Solver.set_order}
    on the live solver, or the creation mode of the per-instance solver),
    solve under this instance's activation assumption, extract the unsat
    core when proof logging is on, fold it into the score in core-consuming
    modes, and emit the "depth" telemetry event.  Counters in the returned
    stat are per-instance deltas.
    @raise Invalid_argument if no instance is open. *)

val solve_depth : t -> k:int -> depth_stat
(** One step of the {!check} loop: open the depth-[k] instance, constrain
    the session's property to fail at frame [k], and solve.  The unit of
    work of callers that interleave depths with other concerns — the
    serve layer's warm-session cache, proof-based abstraction.  On SAT the
    instance stays open so {!trace} works; the depth rule of
    {!begin_instance} applies unchanged.
    @raise Invalid_argument as {!begin_instance}. *)

val model : t -> bool array
(** @raise Invalid_argument unless the last {!solve_instance} was SAT. *)

val trace : t -> Trace.t
(** The counterexample trace of the open instance's model (frames
    0..[k]).
    @raise Invalid_argument as {!model}. *)

val last_core_vars : t -> Sat.Lit.var list
(** Variables of the last instance's unsat core — the paper's [unsatVars]
    (empty unless UNSAT with proof logging). *)

val loaded_clauses : t -> int
(** [Persistent] only: total frame-delta clauses loaded into the live
    solver so far.  Because each frame loads exactly once, after solving
    to depth k this equals {!Unroll.num_base_clauses} — the O(delta)
    property the tests assert.  0 under [Fresh]. *)

val solver_stats : t -> Sat.Stats.t
(** Cumulative statistics of the underlying solver ([Persistent]: the
    live solver's running totals; [Fresh]: the last instance's solver). *)

(** {1 The unified invariant driver} *)

type verdict =
  | Falsified of Trace.t
      (** counterexample found (and successfully replayed) at
          [Trace.depth] *)
  | Bounded_pass of int  (** every instance up to this depth was UNSAT *)
  | Aborted of int  (** budget exhausted while solving this depth *)

type result = {
  verdict : verdict;
  per_depth : depth_stat list;  (** ascending depth *)
  total_time : float;
  total_decisions : int;
  total_implications : int;
  total_conflicts : int;
}

val pp_verdict : Format.formatter -> verdict -> unit

val check :
  ?config:config ->
  policy:policy ->
  Circuit.Netlist.t ->
  property:Circuit.Netlist.node ->
  result
(** The paper's [refine_order_bmc] (Figure 5) over a session: for
    k = 0, 1, 2, ... solve the depth-k instance under the configured
    ordering; on SAT extract, replay and report the counterexample; on
    UNSAT refine the ordering from the core and deepen; on budget
    exhaustion abort.  This is the one BMC driver: [~policy:Fresh] is the
    per-depth-rebuild engine ([bmccheck]'s default), [~policy:Persistent]
    the incremental one ([bmccheck --engine incremental]).
    @raise Invalid_argument if the netlist does not validate, and
    [Failure] if a counterexample fails to replay (a solver or encoder
    bug — surfaced loudly rather than reported as a result). *)
