(** Proof-aware inprocessing: budgets, statistics and the simplification
    engine (subsumption, self-subsuming resolution, bounded variable
    elimination) that {!Solver.inprocess} runs over the live clause arena.

    The algorithmic core here is pure: it receives a snapshot of the live
    clauses and answers with an ordered {!action} script.  The solver
    replays the script against its arena, watch lists, proof graph and
    DRAT log — every derived clause (a resolvent of two clauses already in
    the database) is registered as a proof node carrying its antecedent IDs
    and emitted as a DRAT addition {e before} its parents are deleted, so
    [unsat_core] and {!Checker.check_refutation} stay exact with
    inprocessing on.

    Frozen variables are exempt from elimination only; probing and
    subsumption never remove a variable, so they need no freeze set. *)

(** {1 Budget} *)

type config = {
  max_occurrences : int;
      (** BVE per-polarity occurrence cap: a variable with more positive or
          more negative (irredundant) occurrences is never eliminated. *)
  growth : int;
      (** Resolvent-growth cap: an elimination may add at most
          [removed occurrences + growth] resolvents. *)
  max_probes : int;
      (** Failed-literal probes per run (each probe is one speculative
          level-1 propagation); [0] disables probing. *)
  rounds : int;  (** Subsumption + elimination passes per run. *)
  time_slice : float option;
      (** Wall-clock-seconds cap per run; [None] (the default) runs the full
          budgeted passes, which keeps a run deterministic. *)
}

val default : config
(** [{max_occurrences = 10; growth = 0; max_probes = 128; rounds = 2;
    time_slice = None}] — the BMC depth-boundary budget. *)

val light : config
(** Probing plus one subsumption-only-sized pass: occurrence cap 6, no
    growth, 64 probes, 1 round. *)

val aggressive : config
(** Occurrence cap 20, growth 8, 512 probes, 4 rounds. *)

val config_of_string : string -> (config, string) result
(** Parse a CLI budget: a preset name ([default] | [light] | [aggressive])
    or comma-separated [key=value] overrides of the default —
    [occ] (max_occurrences), [growth], [probes], [rounds], [ms] (time slice
    in milliseconds, [0] meaning none).  E.g. ["occ=16,probes=256,ms=20"]. *)

(** {1 Statistics} *)

type stats = {
  mutable probes : int;
  mutable probe_failed : int;  (** probes whose propagation conflicted *)
  mutable satisfied_removed : int;  (** level-0-satisfied clauses dropped *)
  mutable subsumed : int;
  mutable strengthened : int;  (** self-subsuming resolutions *)
  mutable eliminated : int;  (** variables eliminated *)
  mutable resolvents : int;  (** clauses added by elimination *)
  mutable rounds_run : int;
  mutable time : float;  (** seconds of the whole run *)
}

val fresh_stats : unit -> stats

val pp_stats : Format.formatter -> stats -> unit
(** One-line summary: eliminated / subsumed / strengthened / probe
    failures, for the CLI exit lines. *)

(** {1 The simplification engine} *)

type clause_in = {
  lits : Lit.t array;
      (** the stored literals (level-0-false included, in any order,
          duplicates allowed, never a tautology — self-subsumption by a
          tautology would be unsound, and the solver normalises every
          clause it stores); the engine normalises the array in place
          with {!Cnf.normalize_into} *)
  deletable : bool;  (** false for locked (reason) clauses *)
  redundant : bool;  (** learnt: may be deleted, never relied on *)
}

(** The script replayed by the solver, in derivation order.  Clause ids are
    the caller's input indices ([0 .. n-1]); [Strengthen] and [Resolvent]
    allocate fresh ids (from [n] up, in emission order) named explicitly in
    [id].  A [Strengthen] implies the deletion of [target]; an [Eliminate]
    is followed by explicit [Delete]s of every remaining occurrence.  New
    clauses always precede the deletion of their parents.  Every literal
    array is sorted by {!Lit.to_index} and duplicate-free; the engine never
    mutates one after handing it out. *)
type action =
  | Delete of int
  | Strengthen of { target : int; parent : int; lits : Lit.t array; id : int }
      (** [target] minus one literal, by resolution with [parent]. *)
  | Resolvent of { pos : int; neg : int; lits : Lit.t array; id : int; pivot : Lit.var }
  | Eliminate of { v : Lit.var; pos : Lit.t array list }
      (** [pos] = the irredundant positive occurrences at elimination time,
          saved for model reconstruction. *)

val simplify :
  config ->
  stats ->
  num_vars:int ->
  frozen:(Lit.var -> bool) ->
  value:(Lit.t -> int) ->
  deadline:float option ->
  clause_in array ->
  action list
(** Run [config.rounds] passes of subsumption + self-subsuming resolution
    followed by bounded variable elimination over the given clauses and
    return the action script (chronological).  [value] reports the level-0
    assignment of a literal (1 true / 0 false / -1 unassigned): resolvents
    already satisfied at level 0 are not emitted, and assigned or [frozen]
    variables are never eliminated.  Redundant clauses never subsume,
    strengthen, resolve or count toward occurrence limits, but are deleted
    when an eliminated variable occurs in them.  [deadline] (absolute
    {!Telemetry.wall} value) stops the engine between clauses when exceeded.

    Clauses are visited by index, a clause's literals in index order, and
    a literal's occurrences newest clause first; the script is a function
    of the input alone (with [deadline = None]).
    @raise Invalid_argument if an input clause is a tautology. *)
