(* Netlist nodes are non-negative, so small negative pseudo-nodes are free
   for session bookkeeping in the shared Varmap: -1 for activation
   literals (one per instance, at frame k), -2 for instance-local Tseitin
   auxiliaries (at a monotonically increasing pseudo-frame).  Routing both
   through the Varmap keeps every allocation disjoint from the circuit
   variables of frames materialised later. *)
let activation_node = -1

let aux_node = -2

(* A pluggable ordering heuristic (the ordering laboratory).  [c_order]
   produces the per-depth rank mode exactly like the built-in modes do;
   [c_hooks], when present, builds the solver callbacks once per session
   (conflict-frequency tables, assumption permutations — state that must
   survive across depths lives behind these closures).  Instances are
   created fresh per session by the registry ([Ordering.find]): hook state
   is mutable and must never be shared between solvers. *)
type custom = {
  c_name : string;
  c_uses_cores : bool; (* does [c_order] consume folded unsat cores? *)
  c_order : Unroll.t -> Score.t -> k:int -> Sat.Order.mode;
  c_hooks : (Unroll.t -> Score.t -> solver:Sat.Solver.t -> Sat.Solver.hooks) option;
}

type mode =
  | Standard
  | Static
  | Dynamic
  | Shtrichman
  | Custom of custom

(* What quality of unsat core feeds the ranking (and the reports):
   [Fast] takes the proof-derived core as-is; [Minimal] runs destructive
   core minimisation ({!Sat.Coremin}) on every UNSAT instance before
   folding. *)
type core_mode =
  | Core_fast
  | Core_minimal

type config = {
  mode : mode;
  weighting : Score.weighting;
  coi : bool;
  budget : Sat.Solver.budget;
  max_depth : int;
  collect_cores : bool;
  core_mode : core_mode;
  coremin_budget : Sat.Coremin.budget;
  inprocess : Sat.Inprocess.config option;
  telemetry : Telemetry.t;
}

let default_config =
  {
    mode = Standard;
    weighting = Score.Linear;
    coi = false;
    budget = Sat.Solver.no_budget;
    max_depth = 20;
    collect_cores = false;
    core_mode = Core_fast;
    coremin_budget = Sat.Coremin.no_budget;
    inprocess = None;
    telemetry = Telemetry.disabled;
  }

let make_config ?(mode = Standard) ?(weighting = Score.Linear) ?(coi = false)
    ?(budget = Sat.Solver.no_budget) ?(max_depth = 20) ?(collect_cores = false)
    ?(core_mode = Core_fast) ?(coremin_budget = Sat.Coremin.no_budget) ?inprocess
    ?(telemetry = Telemetry.disabled) () =
  {
    mode;
    weighting;
    coi;
    budget;
    max_depth;
    collect_cores;
    core_mode;
    coremin_budget;
    inprocess;
    telemetry;
  }

(* Does this mode consume unsat cores between instances? *)
let uses_cores = function
  | Static | Dynamic -> true
  | Standard | Shtrichman -> false
  | Custom c -> c.c_uses_cores

let order_mode cfg unroll score ~k =
  match cfg.mode with
  | Standard -> Sat.Order.Vsids
  | Static ->
    Sat.Order.Static (Score.rank_array score ~num_vars:(Varmap.num_vars (Unroll.varmap unroll)))
  | Dynamic ->
    Sat.Order.Dynamic (Score.rank_array score ~num_vars:(Varmap.num_vars (Unroll.varmap unroll)))
  | Shtrichman -> Sat.Order.Static (Shtrichman.rank unroll ~k)
  | Custom c -> c.c_order unroll score ~k

(* Per-instance counters out of a persistent solver's cumulative totals.
   Monotonic counters are differenced; gauges keep the [after] value. *)
let stats_delta ~(before : Sat.Stats.t) ~(after : Sat.Stats.t) =
  {
    Sat.Stats.decisions = after.decisions - before.decisions;
    decisions_rank = after.decisions_rank - before.decisions_rank;
    decisions_vsids = after.decisions_vsids - before.decisions_vsids;
    propagations = after.propagations - before.propagations;
    conflicts = after.conflicts - before.conflicts;
    restarts = after.restarts - before.restarts;
    learned = after.learned - before.learned;
    deleted = after.deleted - before.deleted;
    max_decision_level = after.max_decision_level;
    heuristic_switches = after.heuristic_switches - before.heuristic_switches;
    heap_cmps = after.heap_cmps - before.heap_cmps;
    blocker_hits = after.blocker_hits - before.blocker_hits;
    arena_bytes = after.arena_bytes;
    arena_compactions = after.arena_compactions - before.arena_compactions;
    inpr_runs = after.inpr_runs - before.inpr_runs;
    inpr_probes = after.inpr_probes - before.inpr_probes;
    inpr_probe_failed = after.inpr_probe_failed - before.inpr_probe_failed;
    inpr_satisfied = after.inpr_satisfied - before.inpr_satisfied;
    inpr_subsumed = after.inpr_subsumed - before.inpr_subsumed;
    inpr_strengthened = after.inpr_strengthened - before.inpr_strengthened;
    inpr_eliminated = after.inpr_eliminated - before.inpr_eliminated;
    inpr_resolvents = after.inpr_resolvents - before.inpr_resolvents;
    inpr_time = after.inpr_time -. before.inpr_time;
    solve_time = after.solve_time -. before.solve_time;
    bcp_time = after.bcp_time -. before.bcp_time;
    analyze_time = after.analyze_time -. before.analyze_time;
  }

let pp_mode ppf = function
  | Standard -> Format.pp_print_string ppf "standard"
  | Static -> Format.pp_print_string ppf "static"
  | Dynamic -> Format.pp_print_string ppf "dynamic"
  | Shtrichman -> Format.pp_print_string ppf "shtrichman"
  | Custom c -> Format.pp_print_string ppf c.c_name

let mode_string m = Format.asprintf "%a" pp_mode m

type depth_stat = {
  depth : int;
  mode : mode;
  outcome : Sat.Solver.outcome;
  decisions : int;
  dec_rank : int;
  dec_vsids : int;
  implications : int;
  conflicts : int;
  heap_cmps : int;
  core_size : int;
  core_var_count : int;
  core_new : int;
  core_dropped : int;
  core_pre : int;
  coremin_time : float;
  coremin_certified : bool;
  switched : bool;
  time : float;
  build_time : float;
  bcp_time : float;
  cdg_time : float;
  inpr_elim : int;
  inpr_subsumed : int;
  inpr_strengthened : int;
  inpr_probe_failed : int;
  inpr_time : float;
}

(* Symmetric difference sizes between two core-variable sets: how much of
   the previous instance's proof survives into this one — the stability the
   paper's rank folding bets on. *)
let core_churn ~prev ~cur =
  let prev = List.sort_uniq Int.compare prev and cur = List.sort_uniq Int.compare cur in
  let rec go p c added dropped =
    match (p, c) with
    | [], [] -> (added, dropped)
    | [], _ :: c' -> go [] c' (added + 1) dropped
    | _ :: p', [] -> go p' [] added (dropped + 1)
    | x :: p', y :: c' ->
      if x = y then go p' c' added dropped
      else if x < y then go p' c added (dropped + 1)
      else go p c' (added + 1) dropped
  in
  go prev cur 0 0

(* One "depth" telemetry event per solved instance; every engine that
   produces depth_stats routes them through here so the JSONL schema stays
   uniform. *)
let emit_depth_event tel (d : depth_stat) =
  if Telemetry.enabled tel then
    Telemetry.event tel "depth"
      [
        ("depth", Telemetry.Sink.Int d.depth);
        ("mode", Telemetry.Sink.Str (mode_string d.mode));
        ("outcome", Telemetry.Sink.Str (Sat.Solver.outcome_string d.outcome));
        ("build_s", Telemetry.Sink.Float d.build_time);
        ("solve_s", Telemetry.Sink.Float d.time);
        ("bcp_s", Telemetry.Sink.Float d.bcp_time);
        ("cdg_s", Telemetry.Sink.Float d.cdg_time);
        ("decisions", Telemetry.Sink.Int d.decisions);
        ("dec_rank", Telemetry.Sink.Int d.dec_rank);
        ("dec_vsids", Telemetry.Sink.Int d.dec_vsids);
        ("implications", Telemetry.Sink.Int d.implications);
        ("conflicts", Telemetry.Sink.Int d.conflicts);
        ("core_clauses", Telemetry.Sink.Int d.core_size);
        ("core_vars", Telemetry.Sink.Int d.core_var_count);
        ("core_new", Telemetry.Sink.Int d.core_new);
        ("core_dropped", Telemetry.Sink.Int d.core_dropped);
        ("core_pre", Telemetry.Sink.Int d.core_pre);
        ("coremin_s", Telemetry.Sink.Float d.coremin_time);
        ("switched", Telemetry.Sink.Bool d.switched);
        ("inpr_elim", Telemetry.Sink.Int d.inpr_elim);
        ("inpr_sub", Telemetry.Sink.Int d.inpr_subsumed);
        ("inpr_str", Telemetry.Sink.Int d.inpr_strengthened);
        ("inpr_probe_failed", Telemetry.Sink.Int d.inpr_probe_failed);
        ("inpr_s", Telemetry.Sink.Float d.inpr_time);
      ]

type policy =
  | Fresh
  | Persistent

let pp_policy ppf = function
  | Fresh -> Format.pp_print_string ppf "fresh"
  | Persistent -> Format.pp_print_string ppf "persistent"

type t = {
  cfg : config;
  pol : policy;
  owner : int; (* id of the domain that created the session *)
  unroll : Unroll.t;
  sc : Score.t;
  learn_cores : bool;
  with_proof : bool;
  solver : Sat.Solver.t option; (* the live solver, Persistent only *)
  mutable fresh_solver : Sat.Solver.t option;
      (* the solved instance's solver, Fresh only; [None] from
         [begin_instance] until the instance is solved *)
  mutable spare : Sat.Solver.t option;
      (* Fresh only: the one solver every instance is reloaded into,
         created at the first solve *)
  mutable formula : Sat.Cnf.t option;
      (* Fresh only: the instance formula, refilled in place at every
         depth, created at the first instance *)
  mutable act : Sat.Lit.t option; (* the open instance's activation literal *)
  mutable instance_k : int; (* depth of the open instance; -1 before the first *)
  mutable instance_open : bool;
  mutable loaded_frames : int; (* highest frame fed to the live solver *)
  mutable loaded_clauses : int;
  mutable aux_count : int; (* fresh_lit allocations, Persistent *)
  mutable build_acc : float; (* seconds building the open instance *)
  mutable last_core_vars : Sat.Lit.var list;
  mutable churn_base : Sat.Lit.var list;
      (* the previous solved instance's core variables ([] unless it was
         UNSAT with proof logging on); unlike [last_core_vars],
         [begin_instance] keeps it, so the next core diffs against it *)
  freeze_tbl : (Circuit.Netlist.node, unit) Hashtbl.t;
      (* nodes whose variables stay frozen at every frame: engines register
         the nodes their instance constraints revisit at old frames
         (induction's property / registers, LTL's atoms) *)
  mutable inpr_pending : Sat.Inprocess.stats;
      (* boundary-inprocessing counters accumulated since the last
         [solve_instance], folded into its depth_stat *)
  mutable heur_hooks : Sat.Solver.hooks option;
      (* a Custom mode's solver callbacks, built once per session so
         conflict tables and assumption statistics survive across depths *)
}

let create ?(policy = Persistent) ?constrain_init ?score ?(learn_cores = true) cfg netlist
    ~property =
  let unroll = Unroll.create ~coi:cfg.coi ?constrain_init netlist ~property in
  let sc = match score with Some s -> s | None -> Score.create ~weighting:cfg.weighting () in
  let with_proof =
    learn_cores && (uses_cores cfg.mode || cfg.collect_cores || cfg.core_mode = Core_minimal)
  in
  let solver =
    match policy with
    | Persistent ->
      Some (Sat.Solver.create ~with_proof ~telemetry:cfg.telemetry (Sat.Cnf.create ()))
    | Fresh -> None
  in
  {
    cfg;
    pol = policy;
    owner = (Domain.self () :> int);
    unroll;
    sc;
    learn_cores;
    with_proof;
    solver;
    fresh_solver = None;
    spare = None;
    formula = None;
    act = None;
    instance_k = -1;
    instance_open = false;
    loaded_frames = -1;
    loaded_clauses = 0;
    aux_count = 0;
    build_acc = 0.0;
    last_core_vars = [];
    churn_base = [];
    freeze_tbl = Hashtbl.create 16;
    inpr_pending = Sat.Inprocess.fresh_stats ();
    heur_hooks = None;
  }

let policy t = t.pol

(* Sessions (and the solvers under them) are domain-confined: every
   instance-building or solving entry point must run on the domain that
   called [create].  The pool's callers rely on this rule — a batch item's
   session lives on the worker that runs it, a warm serve session on its
   pinned worker — and violating it would race on the solver's mutable
   state, so it is an [Invalid_argument], not UB. *)
let assert_owner t what =
  if (Domain.self () :> int) <> t.owner then
    invalid_arg
      (Printf.sprintf "Session.%s: session is owned by domain %d, called from domain %d" what
         t.owner
         (Domain.self () :> int))

let unroll t = t.unroll

let score t = t.sc

let live_solver t =
  match t.solver with
  | Some s -> s
  | None -> assert false

let freeze_nodes t nodes =
  List.iter (fun n -> if n >= 0 then Hashtbl.replace t.freeze_tbl n ()) nodes

(* The freeze set for one depth-boundary inprocessing run, recomputed from
   the Varmap each time.  A variable survives elimination when future
   clauses can mention it again:
   - unmapped or activation-literal variables — conservatively frozen
     (retired activation literals are level-0-assigned anyway);
   - instance-local auxiliaries (pseudo-node [-2]) of retired instances —
     melted: nothing ever mentions them again, the prime BVE fodder;
   - circuit variables at the top loaded frame — frozen: the next frame's
     transition delta resolves against them;
   - variables of nodes an engine registered via {!freeze_nodes} — frozen
     at every frame (induction / LTL constraints revisit old frames). *)
let refresh_freeze t solver =
  let vm = Unroll.varmap t.unroll in
  for v = 0 to Varmap.num_vars vm - 1 do
    match Varmap.key_of vm v with
    | None -> Sat.Solver.freeze solver v
    | Some (node, _) when node = activation_node -> Sat.Solver.freeze solver v
    | Some (node, _) when node = aux_node -> Sat.Solver.melt solver v
    | Some (node, frame) ->
      if frame >= t.loaded_frames || Hashtbl.mem t.freeze_tbl node then
        Sat.Solver.freeze solver v
      else Sat.Solver.melt solver v
  done

let add_inpr_stats (acc : Sat.Inprocess.stats) (s : Sat.Inprocess.stats) =
  acc.Sat.Inprocess.probes <- acc.Sat.Inprocess.probes + s.Sat.Inprocess.probes;
  acc.probe_failed <- acc.probe_failed + s.probe_failed;
  acc.satisfied_removed <- acc.satisfied_removed + s.satisfied_removed;
  acc.subsumed <- acc.subsumed + s.subsumed;
  acc.strengthened <- acc.strengthened + s.strengthened;
  acc.eliminated <- acc.eliminated + s.eliminated;
  acc.resolvents <- acc.resolvents + s.resolvents;
  acc.rounds_run <- acc.rounds_run + s.rounds_run;
  acc.time <- acc.time +. s.time

let run_inprocess t solver icfg =
  refresh_freeze t solver;
  let st = Sat.Solver.inprocess ~config:icfg solver in
  add_inpr_stats t.inpr_pending st;
  let tel = t.cfg.telemetry in
  if Telemetry.enabled tel then begin
    let c name v = if v > 0 then Telemetry.counter tel ("inprocess." ^ name) v in
    c "eliminated" st.Sat.Inprocess.eliminated;
    c "subsumed" st.Sat.Inprocess.subsumed;
    c "strengthened" st.Sat.Inprocess.strengthened;
    c "satisfied" st.Sat.Inprocess.satisfied_removed;
    c "probe_failed" st.Sat.Inprocess.probe_failed;
    c "resolvents" st.Sat.Inprocess.resolvents
  end

let begin_instance ?frames t ~k =
  assert_owner t "begin_instance";
  let frames = match frames with Some f -> f | None -> k in
  if frames < k then invalid_arg "Session.begin_instance: frames < k";
  if t.pol = Persistent && k <= t.instance_k then
    invalid_arg "Session.begin_instance: depth must increase between instances";
  let tb = Telemetry.wall () in
  t.build_acc <- 0.0;
  t.last_core_vars <- [];
  (match t.pol with
  | Persistent ->
    let solver = live_solver t in
    (* retire the previous instance's constraints for good *)
    (match t.act with
    | Some act -> Sat.Solver.add_clause solver [ Sat.Lit.negate act ]
    | None -> ());
    t.act <- None;
    (* depth boundary: the retired instance's guard is a unit now, so its
       clauses are level-0-satisfied fodder and its auxiliaries are dead —
       simplify before the next frames' deltas arrive *)
    (match t.cfg.inprocess with
    | Some icfg when t.instance_k >= 0 -> run_inprocess t solver icfg
    | Some _ | None -> ());
    Unroll.extend_to t.unroll frames;
    (* feed only the deltas of frames the solver has not seen yet — each
       frame enters the clause database exactly once per session *)
    while t.loaded_frames < frames do
      t.loaded_frames <- t.loaded_frames + 1;
      Unroll.iter_delta t.unroll ~frame:t.loaded_frames (fun clause ->
          Sat.Solver.add_clause_a solver clause;
          t.loaded_clauses <- t.loaded_clauses + 1)
    done;
    let act = Varmap.var (Unroll.varmap t.unroll) ~node:activation_node ~frame:k in
    t.act <- Some (Sat.Lit.pos act)
  | Fresh ->
    t.fresh_solver <- None;
    let cnf =
      match t.formula with
      | Some cnf -> cnf
      | None ->
        let cnf = Sat.Cnf.create () in
        t.formula <- Some cnf;
        cnf
    in
    Unroll.fill_base t.unroll ~k:frames cnf);
  t.instance_k <- k;
  t.instance_open <- true;
  t.build_acc <- t.build_acc +. (Telemetry.wall () -. tb)

let require_open t what = if not t.instance_open then invalid_arg ("Session." ^ what ^ ": no open instance")

let constrain t clause =
  assert_owner t "constrain";
  require_open t "constrain";
  let tb = Telemetry.wall () in
  (match t.pol with
  | Persistent ->
    let act = match t.act with Some a -> a | None -> assert false in
    Sat.Solver.add_clause (live_solver t) (clause @ [ Sat.Lit.negate act ])
  | Fresh -> (
    match t.formula with
    | Some cnf -> Sat.Cnf.add_clause cnf clause
    | None -> assert false));
  t.build_acc <- t.build_acc +. (Telemetry.wall () -. tb)

let fresh_lit t =
  assert_owner t "fresh_lit";
  require_open t "fresh_lit";
  match t.pol with
  | Persistent ->
    let frame = t.aux_count in
    t.aux_count <- t.aux_count + 1;
    Sat.Lit.pos (Varmap.var (Unroll.varmap t.unroll) ~node:aux_node ~frame)
  | Fresh -> (
    match t.formula with
    | Some cnf -> Sat.Lit.pos (Sat.Cnf.fresh_var cnf)
    | None -> assert false)

let var_of t ~node ~frame = Unroll.var_of t.unroll ~node ~frame

let instance_solver t =
  match t.pol with
  | Persistent -> live_solver t
  | Fresh -> (
    match t.fresh_solver with
    | Some s -> s
    | None -> invalid_arg "Session: instance not solved yet")

let solve_instance t =
  assert_owner t "solve_instance";
  require_open t "solve_instance";
  let cfg = t.cfg in
  let k = t.instance_k in
  let tb = Telemetry.wall () in
  let solver, assumptions =
    match t.pol with
    | Persistent ->
      let solver = live_solver t in
      let mode = order_mode cfg t.unroll t.sc ~k in
      (match cfg.mode with
      | Custom { c_hooks = Some mk; _ } ->
        let hooks =
          match t.heur_hooks with
          | Some h -> h
          | None ->
            let h = mk t.unroll t.sc ~solver in
            t.heur_hooks <- Some h;
            h
        in
        Sat.Solver.set_order ~hooks solver mode
      | _ -> Sat.Solver.set_order solver mode);
      let act = match t.act with Some a -> a | None -> assert false in
      (solver, [ act ])
    | Fresh ->
      let cnf = match t.formula with Some c -> c | None -> assert false in
      let mode = order_mode cfg t.unroll t.sc ~k in
      (* one solver's storage per session: the previous instance's solver,
         whose model was read before this instance began, is reloaded in
         place into exactly the solver [create] would build.  A reload
         allocates too little to trigger the minor collections the major
         GC runs its slices at, so without one explicit slice per depth the
         previous depth's garbage floats in the major heap for a whole
         check, and the peak heap grows with it. *)
      let solver =
        match t.spare with
        | Some s ->
          ignore (Gc.major_slice 0 : int);
          Sat.Solver.reload ~mode s cnf;
          s
        | None ->
          let s =
            Sat.Solver.create ~with_proof:t.with_proof ~mode ~telemetry:cfg.telemetry cnf
          in
          t.spare <- Some s;
          s
      in
      (* a Custom mode's hooks are per-instance, so a Fresh policy rebuilds
         them for every instance (no cross-depth heuristic state); the
         reload dropped the previous ones *)
      (match cfg.mode with
      | Custom { c_hooks = Some mk; _ } ->
        Sat.Solver.set_order ~hooks:(mk t.unroll t.sc ~solver) solver mode
      | _ -> ());
      t.fresh_solver <- Some solver;
      (solver, [])
  in
  t.build_acc <- t.build_acc +. (Telemetry.wall () -. tb);
  let cdg_before = Sat.Solver.cdg_seconds solver in
  let before = Sat.Stats.copy (Sat.Solver.stats solver) in
  let t0 = Telemetry.wall () in
  let outcome = Sat.Solver.solve ~budget:cfg.budget ~assumptions solver in
  let time = Telemetry.wall () -. t0 in
  let delta = stats_delta ~before ~after:(Sat.Solver.stats solver) in
  (* the instance's one proof walk: its clauses and variables *)
  let core, core_vars =
    match outcome with
    | Sat.Solver.Unsat when t.with_proof ->
      let c = Sat.Solver.core solver in
      (c.Sat.Solver.clauses, c.Sat.Solver.vars)
    | Sat.Solver.Unsat | Sat.Solver.Sat | Sat.Solver.Unknown -> ([], [])
  in
  (* Destructive minimisation ([Core_minimal]): re-solve the candidate core
     under clause-selector assumptions until no clause can be dropped (or
     the budget runs out), with the instance's activation literal passed as
     an assumption.  Every minimised core is re-proved and
     checker-certified inside {!Sat.Coremin}. *)
  let core_pre = List.length core in
  let core, core_vars, coremin_time, coremin_certified =
    if cfg.core_mode <> Core_minimal || core = [] then (core, core_vars, 0.0, true)
    else begin
      let kept, cm =
        Sat.Coremin.minimise ~budget:cfg.coremin_budget ~assumptions
          ~num_vars:(Sat.Solver.num_vars solver)
          ~clauses:(List.map (fun i -> (i, Sat.Solver.original_clause solver i)) core)
          ()
      in
      if not cm.Sat.Coremin.certified then (core, core_vars, cm.Sat.Coremin.seconds, false)
      else begin
        let min_core = List.sort Int.compare kept in
        let vars =
          List.concat_map
            (fun i -> List.map Sat.Lit.var (Sat.Solver.original_clause solver i))
            min_core
          |> List.sort_uniq Int.compare
        in
        (min_core, vars, cm.Sat.Coremin.seconds, true)
      end
    end
  in
  (* Churn against the previous instance's core; only meaningful between
     consecutive unsat instances. *)
  let core_new, core_dropped =
    match outcome with
    | Sat.Solver.Unsat when t.with_proof -> core_churn ~prev:t.churn_base ~cur:core_vars
    | Sat.Solver.Unsat | Sat.Solver.Sat | Sat.Solver.Unknown -> (0, 0)
  in
  t.churn_base <- core_vars;
  t.last_core_vars <- core_vars;
  (match outcome with
  | Sat.Solver.Unsat when t.learn_cores && uses_cores cfg.mode ->
    Score.update t.sc ~instance:k ~core_vars
  | Sat.Solver.Unsat | Sat.Solver.Sat | Sat.Solver.Unknown -> ());
  let stat =
    {
      depth = k;
      mode = cfg.mode;
      outcome;
      decisions = delta.Sat.Stats.decisions;
      dec_rank = delta.Sat.Stats.decisions_rank;
      dec_vsids = delta.Sat.Stats.decisions_vsids;
      implications = delta.Sat.Stats.propagations;
      conflicts = delta.Sat.Stats.conflicts;
      heap_cmps = delta.Sat.Stats.heap_cmps;
      core_size = List.length core;
      core_var_count = List.length core_vars;
      core_new;
      core_dropped;
      core_pre;
      coremin_time;
      coremin_certified;
      switched = delta.Sat.Stats.heuristic_switches > 0;
      time;
      build_time = t.build_acc;
      bcp_time = delta.Sat.Stats.bcp_time;
      cdg_time = Sat.Solver.cdg_seconds solver -. cdg_before;
      inpr_elim = t.inpr_pending.Sat.Inprocess.eliminated;
      inpr_subsumed = t.inpr_pending.Sat.Inprocess.subsumed;
      inpr_strengthened = t.inpr_pending.Sat.Inprocess.strengthened;
      inpr_probe_failed = t.inpr_pending.Sat.Inprocess.probe_failed;
      inpr_time = t.inpr_pending.Sat.Inprocess.time;
    }
  in
  t.inpr_pending <- Sat.Inprocess.fresh_stats ();
  emit_depth_event cfg.telemetry stat;
  stat

let model t =
  assert_owner t "model";
  require_open t "model";
  Sat.Solver.model (instance_solver t)

let trace t = Trace.of_model t.unroll ~k:t.instance_k ~model:(model t)

let last_core_vars t = t.last_core_vars

let loaded_clauses t = t.loaded_clauses

let solver_stats t = Sat.Solver.stats (instance_solver t)

type verdict =
  | Falsified of Trace.t
  | Bounded_pass of int
  | Aborted of int

type result = {
  verdict : verdict;
  per_depth : depth_stat list;
  total_time : float;
  total_decisions : int;
  total_implications : int;
  total_conflicts : int;
}

let pp_verdict ppf = function
  | Falsified trace -> Format.fprintf ppf "falsified at depth %d" trace.Trace.depth
  | Bounded_pass k -> Format.fprintf ppf "no counterexample up to depth %d" k
  | Aborted k -> Format.fprintf ppf "aborted at depth %d (budget)" k

let solve_depth t ~k =
  let property = Unroll.property t.unroll in
  begin_instance t ~k;
  constrain t [ Sat.Lit.neg (var_of t ~node:property ~frame:k) ];
  solve_instance t

let check ?(config = default_config) ~policy netlist ~property =
  let cfg = config in
  let t = create ~policy cfg netlist ~property in
  let per_depth = ref [] in
  let start = Telemetry.wall () in
  let finish verdict =
    let per_depth = List.rev !per_depth in
    let sum f = List.fold_left (fun acc d -> acc + f d) 0 per_depth in
    {
      verdict;
      per_depth;
      total_time = Telemetry.wall () -. start;
      total_decisions = sum (fun d -> d.decisions);
      total_implications = sum (fun d -> d.implications);
      total_conflicts = sum (fun d -> d.conflicts);
    }
  in
  let rec loop k =
    if k > cfg.max_depth then finish (Bounded_pass cfg.max_depth)
    else begin
      begin_instance t ~k;
      constrain t [ Sat.Lit.neg (var_of t ~node:property ~frame:k) ];
      let stat = solve_instance t in
      per_depth := stat :: !per_depth;
      match stat.outcome with
      | Sat.Solver.Sat ->
        let tr = trace t in
        if not (Trace.replay tr netlist ~property) then
          failwith
            (Printf.sprintf
               "Session.check: counterexample at depth %d failed to replay (internal error)" k);
        finish (Falsified tr)
      | Sat.Solver.Unsat -> loop (k + 1)
      | Sat.Solver.Unknown -> finish (Aborted k)
    end
  in
  loop 0
