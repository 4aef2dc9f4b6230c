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
  restart_base : int option;
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
    restart_base = None;
    inprocess = None;
    telemetry = Telemetry.disabled;
  }

let make_config ?(mode = Standard) ?(weighting = Score.Linear) ?(coi = false)
    ?(budget = Sat.Solver.no_budget) ?(max_depth = 20) ?(collect_cores = false)
    ?(core_mode = Core_fast) ?(coremin_budget = Sat.Coremin.no_budget) ?restart_base
    ?inprocess ?(telemetry = Telemetry.disabled) () =
  {
    mode;
    weighting;
    coi;
    budget;
    max_depth;
    collect_cores;
    core_mode;
    coremin_budget;
    restart_base;
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
    blocker_hits = after.blocker_hits - before.blocker_hits;
    arena_bytes = after.arena_bytes;
    arena_compactions = after.arena_compactions - before.arena_compactions;
    shared_exported = after.shared_exported - before.shared_exported;
    shared_imported = after.shared_imported - before.shared_imported;
    shared_rejected_tainted = after.shared_rejected_tainted - before.shared_rejected_tainted;
    shared_throttled = after.shared_throttled - before.shared_throttled;
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

(* The session side of learnt-clause sharing: translate between this
   session's SAT variables and the exchange's solver-independent packed
   (node, frame, sign) keys, in both directions through the session's own
   Varmap.

   Export: a clause is only offered when every literal maps to a
   non-negative circuit node — the reserved pseudo-nodes (activation
   literals, instance auxiliaries) are negative, so nothing instance-local
   can leave even if the solver's taint filter were bypassed.  Import uses
   [Varmap.peek] (never allocating): a clause mentioning a frame this
   session has not materialised is dropped and counted stale rather than
   dragging unknown variables into the solver. *)
let install_share solver unroll ep =
  let vm = Unroll.varmap unroll in
  let pack lits =
    let n = Array.length lits in
    let keys = Array.make n 0 in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < n do
      let l = lits.(!i) in
      (match Varmap.key_of vm (Sat.Lit.var l) with
      | Some (node, frame)
        when node >= 0 && node < Share.Exchange.max_node && frame < Share.Exchange.max_frame
        ->
        keys.(!i) <-
          Share.Exchange.pack_lit ~node ~frame ~neg:(not (Sat.Lit.is_pos l))
      | Some _ | None -> ok := false);
      incr i
    done;
    if !ok then Some keys else None
  in
  let export lits ~lbd ~src_id =
    match pack lits with
    | Some keys -> ignore (Share.Exchange.publish ~src_id ep keys ~lbd : bool)
    | None -> ()
  in
  let import () =
    let acc = ref [] in
    ignore
      (Share.Exchange.drain ep (fun keys ~origin ->
           let n = Array.length keys in
           let rec build i lits =
             if i >= n then Some lits
             else begin
               let node, frame, neg = Share.Exchange.unpack_lit keys.(i) in
               match Varmap.peek vm ~node ~frame with
               | Some v -> build (i + 1) (Sat.Lit.make v (not neg) :: lits)
               | None -> None
             end
           in
           match build 0 [] with
           | Some lits -> acc := (lits, origin) :: !acc
           | None -> Share.Exchange.note_dropped ep 1));
    !acc
  in
  Sat.Solver.set_share solver ~max_size:(Share.Exchange.max_size ep)
    ~max_lbd:(Share.Exchange.max_lbd ep)
    ~export_budget:(Share.Exchange.restart_budget ep)
    ~tune:(fun () -> Share.Exchange.tune ep)
    ~export ~import

type t = {
  cfg : config;
  pol : policy;
  owner : int; (* id of the domain that created the session *)
  unroll : Unroll.t;
  sc : Score.t;
  share : Share.Exchange.endpoint option;
  learn_cores : bool;
  fold_cores : bool;
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

let create ?(policy = Persistent) ?constrain_init ?score ?(learn_cores = true)
    ?(fold_cores = true) ?share cfg netlist ~property =
  (* Sharing is Persistent-only: a Fresh instance bakes its (unguarded)
     property constraint into the formula itself, so the solver has no way
     to tell instance-local clauses apart and the taint filter cannot
     protect siblings. *)
  if share <> None && policy = Fresh then
    invalid_arg "Session.create: clause sharing requires the Persistent policy";
  let unroll = Unroll.create ~coi:cfg.coi ?constrain_init netlist ~property in
  let sc = match score with Some s -> s | None -> Score.create ~weighting:cfg.weighting () in
  let with_proof =
    learn_cores && (uses_cores cfg.mode || cfg.collect_cores || cfg.core_mode = Core_minimal)
  in
  let solver =
    match policy with
    | Persistent ->
      (* the exchange endpoint id doubles as the global solver id, so the
         proof shard's provenance matches what siblings record on import *)
      let solver_id =
        match share with Some ep -> Share.Exchange.endpoint_id ep | None -> 0
      in
      let s =
        Sat.Solver.create ~with_proof ~telemetry:cfg.telemetry ~solver_id (Sat.Cnf.create ())
      in
      (match cfg.restart_base with Some b -> Sat.Solver.set_restart_base s b | None -> ());
      (match share with Some ep -> install_share s unroll ep | None -> ());
      Some s
    | Fresh -> None
  in
  {
    cfg;
    pol = policy;
    owner = (Domain.self () :> int);
    unroll;
    sc;
    share;
    learn_cores;
    fold_cores;
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
   called [create].  The portfolio layer relies on this rule — each racer's
   session lives on one pinned pool worker — and violating it would race on
   the solver's mutable state, so it is an [Invalid_argument], not UB. *)
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
     at every frame (induction / LTL constraints revisit old frames);
   - everything frozen while clause sharing is on: an imported clause may
     mention any materialised (node, frame) variable. *)
let refresh_freeze t solver =
  let vm = Unroll.varmap t.unroll in
  let all_circuit_frozen = t.share <> None in
  for v = 0 to Varmap.num_vars vm - 1 do
    match Varmap.key_of vm v with
    | None -> Sat.Solver.freeze solver v
    | Some (node, _) when node = activation_node -> Sat.Solver.freeze solver v
    | Some (node, _) when node = aux_node -> Sat.Solver.melt solver v
    | Some (node, frame) ->
      if all_circuit_frozen || frame >= t.loaded_frames || Hashtbl.mem t.freeze_tbl node
      then Sat.Solver.freeze solver v
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
    (* the guard is instance-local: taint every clause derived through it *)
    Sat.Solver.mark_local solver act;
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
    let v = Varmap.var (Unroll.varmap t.unroll) ~node:aux_node ~frame in
    Sat.Solver.mark_local (live_solver t) v;
    Sat.Lit.pos v
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
         reload dropped the previous ones and the restart base *)
      (match cfg.mode with
      | Custom { c_hooks = Some mk; _ } ->
        Sat.Solver.set_order ~hooks:(mk t.unroll t.sc ~solver) solver mode
      | _ -> ());
      (match cfg.restart_base with
      | Some b -> Sat.Solver.set_restart_base solver b
      | None -> ());
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
  (* the instance's one proof walk: its clauses, variables and the imports
     it leaned on *)
  let core =
    match outcome with
    | Sat.Solver.Unsat when t.with_proof -> Some (Sat.Solver.core solver)
    | Sat.Solver.Unsat | Sat.Solver.Sat | Sat.Solver.Unknown -> None
  in
  (match t.share with
  | Some ep ->
    Share.Exchange.note_rejected_tainted ep delta.Sat.Stats.shared_rejected_tainted;
    if delta.Sat.Stats.shared_exported > 0 then
      Telemetry.counter cfg.telemetry "share.exported" delta.Sat.Stats.shared_exported;
    if delta.Sat.Stats.shared_imported > 0 then
      Telemetry.counter cfg.telemetry "share.imported" delta.Sat.Stats.shared_imported;
    if delta.Sat.Stats.shared_rejected_tainted > 0 then
      Telemetry.counter cfg.telemetry "share.rejected_tainted"
        delta.Sat.Stats.shared_rejected_tainted;
    if delta.Sat.Stats.shared_throttled > 0 then
      Telemetry.counter cfg.telemetry "share.throttled" delta.Sat.Stats.shared_throttled;
    (match core with
    | Some c -> Share.Exchange.note_import_used ep (List.length c.Sat.Solver.imports)
    | None -> ())
  | None -> ());
  let core, core_vars, imports =
    match core with
    | Some c -> (c.Sat.Solver.clauses, c.Sat.Solver.vars, c.Sat.Solver.imports)
    | None -> ([], [], [])
  in
  (* Destructive minimisation ([Core_minimal]): re-solve the candidate core
     under clause-selector assumptions until no clause can be dropped (or
     the budget runs out).  Imported clauses reachable from the refutation
     ride along as extra candidates under negative ids, so the candidate is
     unsatisfiable even when sharing made an import load-bearing; the
     instance's activation literal is passed as an assumption.  Every
     minimised core is re-proved and checker-certified inside {!Sat.Coremin}. *)
  let core_pre = List.length core in
  let core, core_vars, coremin_time, coremin_certified =
    if cfg.core_mode <> Core_minimal || core = [] then (core, core_vars, 0.0, true)
    else begin
      let candidates =
        List.map (fun i -> (i, Sat.Solver.original_clause solver i)) core
        @ List.mapi (fun j lits -> (-1 - j, lits)) imports
      in
      let kept, cm =
        Sat.Coremin.minimise ~budget:cfg.coremin_budget ~assumptions
          ~num_vars:(Sat.Solver.num_vars solver) ~clauses:candidates ()
      in
      if not cm.Sat.Coremin.certified then (core, core_vars, cm.Sat.Coremin.seconds, false)
      else begin
        let lits_of =
          let tbl = Hashtbl.create 64 in
          List.iter (fun (id, lits) -> Hashtbl.replace tbl id lits) candidates;
          Hashtbl.find tbl
        in
        let vtbl = Hashtbl.create 64 in
        List.iter
          (fun id ->
            List.iter (fun l -> Hashtbl.replace vtbl (Sat.Lit.var l) ()) (lits_of id))
          kept;
        let vars = Hashtbl.fold (fun v () acc -> v :: acc) vtbl [] |> List.sort Int.compare in
        let min_core = List.filter (fun id -> id >= 0) kept |> List.sort Int.compare in
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
  | Sat.Solver.Unsat when t.fold_cores && t.learn_cores && uses_cores cfg.mode ->
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

let session_solver_opt t =
  match t.pol with Persistent -> t.solver | Fresh -> t.fresh_solver

let solver_id t =
  match session_solver_opt t with Some s -> Sat.Solver.solver_id s | None -> 0

(* The exact cross-solver core variables of the last UNSAT instance, in this
   session's variable numbering.  Walks the stitched proof across sibling
   shards ([siblings] resolves a session by its solver id) and remaps each
   foreign shard's core-clause variables through its Varmap keys into this
   session's Varmap.  Foreign core originals are always pure circuit clauses
   — the export filter releases nothing derived from instance-local
   variables — so every foreign variable carries a non-negative (node,
   frame) key.  Coordinator-only: call once every sibling has quiesced. *)
let exact_core_vars t ~siblings =
  match session_solver_opt t with
  | None -> t.last_core_vars
  | Some s ->
    if (not t.with_proof) || Sat.Solver.outcome_opt s <> Some Sat.Solver.Unsat then
      t.last_core_vars
    else begin
      let solver_of sess = session_solver_opt sess in
      let lookup sid = Option.bind (siblings sid) solver_of in
      match Sat.Solver.stitched_core s ~lookup with
      | exception Invalid_argument _ ->
        (* a shard could not be resolved (e.g. a proof-less sibling):
           fall back to the local projection rather than failing the race *)
        t.last_core_vars
      | shards ->
        let own_vm = Unroll.varmap t.unroll in
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun (sid, idxs) ->
            if sid = Sat.Solver.solver_id s then
              List.iter
                (fun i ->
                  List.iter
                    (fun l -> Hashtbl.replace tbl (Sat.Lit.var l) ())
                    (Sat.Solver.original_clause s i))
                idxs
            else
              match Option.bind (siblings sid) (fun sib ->
                        Option.map (fun so -> (sib, so)) (solver_of sib))
              with
              | None -> ()
              | Some (sib, sib_solver) ->
                let sib_vm = Unroll.varmap sib.unroll in
                List.iter
                  (fun i ->
                    List.iter
                      (fun l ->
                        match Varmap.key_of sib_vm (Sat.Lit.var l) with
                        | Some (node, frame) when node >= 0 -> (
                          match Varmap.peek own_vm ~node ~frame with
                          | Some v -> Hashtbl.replace tbl v ()
                          | None -> ())
                        | Some _ | None -> ())
                      (Sat.Solver.original_clause sib_solver i))
                  idxs)
          shards;
        Hashtbl.fold (fun v () acc -> v :: acc) tbl [] |> List.sort Int.compare
    end

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

let check ?(config = default_config) ?share ~policy netlist ~property =
  let cfg = config in
  let t = create ~policy ?share cfg netlist ~property in
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
