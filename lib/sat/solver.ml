type outcome =
  | Sat
  | Unsat
  | Unknown

let outcome_string = function Sat -> "sat" | Unsat -> "unsat" | Unknown -> "unknown"

type budget = {
  max_conflicts : int option;
  max_propagations : int option;
  max_seconds : float option;
  stop : (unit -> bool) option;
}

let no_budget =
  { max_conflicts = None; max_propagations = None; max_seconds = None; stop = None }

(* Pluggable branching-heuristic hooks (the ordering laboratory).  The
   solver keeps its Chaff core and exposes exactly three narrow seams: a
   per-conflict notification (fired after the built-in activity bumps), a
   restart notification, and a phase bias consulted once per decision.
   Heuristic state lives entirely behind the closures — the solver never
   inspects it. *)
type hooks = {
  hk_name : string;
  hk_on_conflict : Lit.t list -> unit;
  hk_on_restart : unit -> unit;
  hk_bias : Lit.var -> bool option;
}

(* Poll the budget (and with it the cooperative-stop hook) every this many
   propagations, so a BCP-heavy solve with few conflicts and few decisions
   still observes cancellation promptly. *)
let propagation_poll_period = 4096

(* Assignment cells: -1 unassigned, 0 false, 1 true. *)
let unassigned = -1

(* Clauses live in a flat integer arena ({!Arena}) and are addressed by
   [Arena.cref]; [Arena.none] plays the role the [None] reason used to.
   Watch lists are flat (blocker, cref) int pairs: BCP skips a satisfied
   clause on the blocker check alone, never touching the clause block. *)
type t = {
  cnf : Cnf.t; (* snapshot of the original formula, for core reporting *)
  mutable nvars : int;
  arena : Arena.t;
  learnts : Arena.cref Vec.t;
  mutable watches : Arena.Watch.w array; (* indexed by watched literal *)
  mutable assigns : int array; (* per var *)
  mutable level : int array; (* per var *)
  mutable reason : Arena.cref array; (* per var; Arena.none when none *)
  trail : Lit.t Vec.t;
  trail_lim : int Vec.t; (* trail index at the start of each decision level *)
  mutable qhead : int;
  order : Order.t;
  proof : Proof.t option;
  mutable cnf_index : int array;
      (* proof pseudo ID -> original clause index, -1 for learnt nodes;
         grown on demand, see [set_cnf_index] *)
  mutable norm_buf : Lit.t array; (* [add_original]'s normalisation scratch *)
  mutable occ : int array; (* [load]'s occurrence-count scratch, per literal *)
  learnt_lits : (int, Lit.t list) Hashtbl.t; (* proof ID -> literals (proof mode) *)
  drat : Checker.event Vec.t option; (* clausal proof, when requested *)
  stats : Stats.t;
  mutable seen : bool array; (* conflict-analysis scratch, always reset after use *)
  mutable trail_height : int array; (* per var: position on the trail when assigned *)
  minimize : bool; (* conflict-clause minimisation (off in faithful-Chaff mode) *)
  mutable ok : bool; (* false once a top-level conflict is recorded *)
  mutable result : outcome option;
  mutable conflicts_since_decay : int;
  mutable max_learnts : int;
  mutable gc_fraction : float; (* wasted/size ratio that triggers compaction *)
  mutable dynamic_threshold : int; (* cumulative decision count that fires the fallback *)
  mutable luby : Luby.t;
  mutable assumptions : Lit.t array; (* for the solve call in progress *)
  mutable failed_assumptions : Lit.t list; (* valid after assumption-UNSAT *)
  tel : Telemetry.t;
  mutable heur : hooks option; (* pluggable ordering heuristic, when installed *)
  (* inprocessing state *)
  mutable frozen : bool array; (* per var: exempt from variable elimination *)
  mutable eliminated : bool array; (* per var: removed by BVE *)
  mutable elim_stack : (Lit.var * Lit.t list list) list;
      (* most-recently-eliminated first, with the saved positive
         occurrences that drive model reconstruction *)
  (* in-propagate budget polling *)
  mutable cur_budget : budget;
  mutable solve_start : float;
  mutable props_at_poll : int;
}

let value_var t v = t.assigns.(v)

let value_lit t l =
  let v = t.assigns.(Lit.var l) in
  if v = unassigned then unassigned else if Lit.is_pos l then v else 1 - v

let decision_level t = Vec.length t.trail_lim

let watch_list t l = t.watches.(Lit.to_index l)

let attach t cr =
  let l0 = Arena.lit t.arena cr 0 and l1 = Arena.lit t.arena cr 1 in
  Arena.Watch.push (watch_list t l0) l1 cr;
  Arena.Watch.push (watch_list t l1) l0 cr

(* Make [l] true with [reason].  Precondition: [l] is unassigned. *)
let enqueue t l reason =
  let v = Lit.var l in
  t.assigns.(v) <- (if Lit.is_pos l then 1 else 0);
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  t.trail_height.(v) <- Vec.length t.trail;
  Vec.push t.trail l

(* Antecedents must form a proper (trivial-resolution) chain so that proof
   consumers like interpolation can replay them literally: resolving the
   pivots in decreasing trail order guarantees a removed literal never
   re-enters, because a reason clause only mentions variables assigned
   before its head. *)
let linearize_steps t first_cid steps =
  let sorted =
    List.sort (fun (v1, _) (v2, _) -> compare t.trail_height.(v2) t.trail_height.(v1)) steps
  in
  first_cid :: List.map (fun (_, cid) -> cid) sorted

(* Resolve a top-level conflict down to the empty clause, collecting the
   antecedent IDs for the proof's final node.  One marking pass over the
   conflict clause, then one backwards trail walk: every variable involved
   is assigned, hence on the trail, so the walk visits (and unmarks) each
   exactly once — O(trail + total reason size). *)
let final_analysis t confl =
  let steps = ref [] in
  Arena.iter_lits t.arena confl (fun l -> t.seen.(Lit.var l) <- true);
  for i = Vec.length t.trail - 1 downto 0 do
    let v = Lit.var (Vec.get t.trail i) in
    if t.seen.(v) then begin
      t.seen.(v) <- false;
      let r = t.reason.(v) in
      if r <> Arena.none then begin
        steps := (v, Arena.cid t.arena r) :: !steps;
        Arena.iter_lits t.arena r (fun l ->
            let u = Lit.var l in
            if u <> v then t.seen.(u) <- true)
      end
    end
  done;
  linearize_steps t (Arena.cid t.arena confl) !steps

(* Originals are registered in clause-index order ([create] loads them in
   order, [add_clause_a] appends), so the map is monotone: ascending proof
   IDs give ascending clause indices. *)
let set_cnf_index t id index =
  let n = Array.length t.cnf_index in
  if id >= n then begin
    let grown = Array.make (max (2 * n) (id + 1)) (-1) in
    Array.blit t.cnf_index 0 grown 0 n;
    t.cnf_index <- grown
  end;
  t.cnf_index.(id) <- index

let cnf_index t id = if id < Array.length t.cnf_index then t.cnf_index.(id) else -1

(* Every original clause is registered in the proof (even ones we drop or
   leave unwatched) and its pseudo ID recorded against its clause index.
   The clause array is only read: it is normalised into the solver's
   scratch buffer, which goes straight into the arena.  Attachment is
   assignment-aware because clauses may arrive incrementally, after
   level-0 propagation: watches must sit on non-false literals, a clause
   with a single non-false literal is a (possibly pending) unit, and a
   clause with none is a top-level conflict. *)
let add_original t index lits =
  let cid =
    match t.proof with
    | Some p ->
      let id = Proof.register_original p in
      set_cnf_index t id index;
      id
    | None -> index
  in
  let len = Array.length lits in
  if Array.length t.norm_buf < len then
    t.norm_buf <- Array.make (max len (2 * Array.length t.norm_buf)) (Lit.pos 0);
  let buf = t.norm_buf in
  let n = Cnf.normalize_into lits ~into:buf in
  (* n = -1: a tautology, never needed, never a core member *)
  if n >= 0 then begin
    (* move the non-false (at level 0) literals to the front *)
    let nf = ref 0 in
    for i = 0 to n - 1 do
      let l = buf.(i) in
      if value_lit t l <> 0 then begin
        buf.(i) <- buf.(!nf);
        buf.(!nf) <- l;
        incr nf
      end
    done;
    let cr = Arena.alloc t.arena ~cid ~learnt:false buf n in
    if !nf = 0 then begin
      (* conflicts with the level-0 assignment: the formula is refuted *)
      t.ok <- false;
      (match t.drat with Some d -> Vec.push d (Checker.Learnt []) | None -> ());
      match t.proof with
      | Some p ->
        if not (Proof.has_final p) then
          Proof.set_final p ~antecedents:(final_analysis t cr)
      | None -> ()
    end
    else if !nf = 1 then begin
      let first = Arena.lit t.arena cr 0 in
      (match value_lit t first with
      | 1 -> () (* already satisfied *)
      | _ -> enqueue t first cr);
      if n >= 2 then attach t cr
    end
    else attach t cr
  end

(* ------------------------------------------------------------------ *)
(* Incremental interface: growing the variable space and the formula.  *)
(* ------------------------------------------------------------------ *)

let grow_array src size init =
  let dst = Array.make size init in
  Array.blit src 0 dst 0 (Array.length src);
  dst

(* Filler for a growing watches array, replaced in every slot before use.
   A large [Array.init] whose first element is a fresh (young) record
   forces a minor collection; filling from this long-promoted value does
   not. *)
let no_watch = Arena.Watch.create ()

let ensure_vars t n =
  if n > t.nvars then begin
    (* Incremental loading adds variables one at a time; grow capacity
       geometrically so the amortized cost stays linear.  Capacity is the
       smaller of the per-variable and per-literal (watches) allowances;
       [t.nvars] stays the logical count. *)
    let capacity = min (Array.length t.assigns) (Array.length t.watches / 2) in
    if n > capacity then begin
      let cap = max (max (2 * capacity) n) 1 in
      let nlits = 2 * cap in
      t.assigns <- grow_array t.assigns cap unassigned;
      t.level <- grow_array t.level cap 0;
      t.reason <- grow_array t.reason cap Arena.none;
      t.seen <- grow_array t.seen cap false;
      t.trail_height <- grow_array t.trail_height cap 0;
      t.frozen <- grow_array t.frozen cap false;
      t.eliminated <- grow_array t.eliminated cap false;
      let have = Array.length t.watches in
      let watches = Array.make nlits no_watch in
      Array.blit t.watches 0 watches 0 have;
      for i = have to nlits - 1 do
        watches.(i) <- Arena.Watch.create ()
      done;
      t.watches <- watches
    end;
    Order.grow t.order ~num_vars:n;
    Cnf.ensure_vars t.cnf n;
    t.nvars <- n
  end

let new_var t =
  let v = t.nvars in
  ensure_vars t (v + 1);
  v

(* ------------------------------------------------------------------ *)
(* Loading a formula: [create] and [reload].                           *)
(* ------------------------------------------------------------------ *)

(* Reset [t] to exactly the state [create ~mode cnf] builds, over the
   storage [t] already holds; [create] is this load on empty storage.
   Storage the formula outgrows grows ×2, storage it fits is cleared and
   kept, and on empty storage every size is exact.  The arena gets room
   for every original plus the default 1024 words for learnts (on the
   falsify benchmark workload a per-depth solver's learnts peak at 358
   words, p90 227), and each watch list its literal's occurrence count, an
   upper bound on the clauses that will watch it; the same counts are the
   initial literal activities. *)
let load t mode src =
  let cnf = t.cnf in
  Cnf.copy_into src ~into:cnf;
  let nvars = Cnf.num_vars cnf in
  t.occ <- Vec.reuse t.occ (2 * nvars) 0;
  Cnf.count_occurrences cnf ~into:t.occ;
  Order.reset t.order ~num_vars:nvars mode;
  Order.init_activity t.order t.occ;
  let words = Arena.words ~clauses:(Cnf.num_clauses cnf) ~literals:(Cnf.num_literals cnf) in
  Arena.reset t.arena ~capacity:(words + 1024);
  Vec.clear_retain t.learnts;
  (* every per-variable slot back to its initial value, then room for the
     formula's variables through the incremental path's growth *)
  Array.fill t.assigns 0 (Array.length t.assigns) unassigned;
  Array.fill t.level 0 (Array.length t.level) 0;
  Array.fill t.reason 0 (Array.length t.reason) Arena.none;
  Array.fill t.seen 0 (Array.length t.seen) false;
  Array.fill t.trail_height 0 (Array.length t.trail_height) 0;
  Array.fill t.frozen 0 (Array.length t.frozen) false;
  Array.fill t.eliminated 0 (Array.length t.eliminated) false;
  Array.iter (fun w -> Arena.Watch.truncate w 0) t.watches;
  t.nvars <- 0;
  ensure_vars t nvars;
  for i = 0 to (2 * nvars) - 1 do
    Arena.Watch.reset t.watches.(i) ~capacity:t.occ.(i)
  done;
  Vec.clear_retain t.trail;
  Vec.clear_retain t.trail_lim;
  t.qhead <- 0;
  (match t.proof with Some p -> Proof.reset p | None -> ());
  t.cnf_index <- Vec.reuse t.cnf_index (if t.proof = None then 0 else Cnf.num_clauses cnf) (-1);
  Hashtbl.clear t.learnt_lits;
  (match t.drat with Some d -> Vec.clear d | None -> ());
  Stats.reset t.stats;
  t.ok <- true;
  t.result <- None;
  t.conflicts_since_decay <- 0;
  t.max_learnts <- max 4000 (Cnf.num_clauses cnf / 3);
  t.gc_fraction <- 0.2;
  t.dynamic_threshold <- max 1 (Cnf.num_literals cnf / 64);
  t.luby <- Luby.create ~base:128;
  t.assumptions <- [||];
  t.failed_assumptions <- [];
  t.heur <- None;
  t.elim_stack <- [];
  t.cur_budget <- no_budget;
  t.solve_start <- 0.0;
  t.props_at_poll <- 0;
  Cnf.iter_clauses (fun i c -> add_original t i c) cnf

let reload ?(mode = Order.Vsids) t cnf = load t mode cnf

let create ?(with_proof = false) ?(with_drat = false) ?(minimize = false) ?(mode = Order.Vsids)
    ?(telemetry = Telemetry.disabled) cnf =
  (* empty storage and what [load] keeps; [load] sets everything else *)
  let t =
    {
      cnf = Cnf.create ~capacity:(Cnf.num_clauses cnf) ();
      nvars = 0;
      arena = Arena.create ~capacity:0 ();
      learnts = Vec.create ~dummy:Arena.none ();
      watches = [||];
      assigns = [||];
      level = [||];
      reason = [||];
      trail = Vec.create ~dummy:(Lit.pos 0) ();
      trail_lim = Vec.create ~dummy:0 ();
      qhead = 0;
      order = Order.create ~num_vars:0 Order.Vsids;
      proof =
        (if with_proof then Some (Proof.create ~timed:(Telemetry.timing telemetry) ())
         else None);
      cnf_index = [||];
      norm_buf = [||];
      occ = [||];
      learnt_lits = Hashtbl.create 256;
      drat = (if with_drat then Some (Vec.create ~dummy:(Checker.Learnt []) ()) else None);
      stats = Stats.create ();
      seen = [||];
      trail_height = [||];
      minimize;
      ok = true;
      result = None;
      conflicts_since_decay = 0;
      max_learnts = 0;
      gc_fraction = 0.0;
      dynamic_threshold = 0;
      luby = Luby.create ~base:128;
      assumptions = [||];
      failed_assumptions = [];
      tel = telemetry;
      heur = None;
      frozen = [||];
      eliminated = [||];
      elim_stack = [];
      cur_budget = no_budget;
      solve_start = 0.0;
      props_at_poll = 0;
    }
  in
  load t mode cnf;
  t

(* ------------------------------------------------------------------ *)
(* Boolean constraint propagation (two watched literals + blockers).   *)
(* ------------------------------------------------------------------ *)

exception Done of outcome

let budget_exceeded t budget start_time =
  (* The external stop hook comes first: it is the cooperative-cancellation
     path of its callers (the serve layer's request deadlines), so a
     stopped solve is abandoned at the next conflict, 1024-decision or
     4096-propagation boundary — within one restart interval even for
     conflict-free BCP-heavy instances. *)
  (match budget.stop with Some f -> f () | None -> false)
  || (match budget.max_conflicts with Some m -> t.stats.conflicts >= m | None -> false)
  || (match budget.max_propagations with
     | Some m -> t.stats.propagations >= m
     | None -> false)
  ||
  match budget.max_seconds with
  | Some s -> Telemetry.wall () -. start_time >= s
  | None -> false

(* Returns the conflicting cref, or [Arena.none].  Deleted clauses are
   never present in watch lists (reduce_db detaches eagerly), so the loop
   has no deleted check.  The blocker test is the fast path: one assignment
   read against an int already in the watcher pair's cache line. *)
let propagate t =
  let arena = t.arena in
  let conflict = ref Arena.none in
  while !conflict = Arena.none && t.qhead < Vec.length t.trail do
    (* Propagation-count poll: a conflict-free solve with huge implication
       chains would otherwise only observe its budget (and its stop hook)
       at decision boundaries.  Checked between trail
       literals, so the watch lists are always in a consistent state when
       [Done] aborts the solve. *)
    if t.stats.propagations - t.props_at_poll >= propagation_poll_period then begin
      t.props_at_poll <- t.stats.propagations;
      if budget_exceeded t t.cur_budget t.solve_start then raise (Done Unknown)
    end;
    let p = Vec.get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    let false_lit = Lit.negate p in
    let ws = watch_list t false_lit in
    let len = Arena.Watch.length ws in
    let j = ref 0 in
    let i = ref 0 in
    while !i < len do
      let blocker = Arena.Watch.blocker ws !i in
      let cr = Arena.Watch.cref ws !i in
      incr i;
      if value_lit t blocker = 1 then begin
        (* clause satisfied by the blocker: keep the watch untouched *)
        t.stats.blocker_hits <- t.stats.blocker_hits + 1;
        Arena.Watch.set ws !j blocker cr;
        incr j
      end
      else begin
        (* ensure the falsified watch sits at position 1 *)
        if Lit.equal (Arena.lit arena cr 0) false_lit then Arena.swap_lits arena cr 0 1;
        let first = Arena.lit arena cr 0 in
        if (not (Lit.equal first blocker)) && value_lit t first = 1 then begin
          (* satisfied by the other watch: keep, with it as the new blocker *)
          Arena.Watch.set ws !j first cr;
          incr j
        end
        else begin
          (* look for a new literal to watch *)
          let n = Arena.size arena cr in
          let found = ref false in
          let k = ref 2 in
          while (not !found) && !k < n do
            if value_lit t (Arena.lit arena cr !k) <> 0 then found := true else incr k
          done;
          if !found then begin
            let lk = Arena.lit arena cr !k in
            Arena.set_lit arena cr 1 lk;
            Arena.set_lit arena cr !k false_lit;
            Arena.Watch.push (watch_list t lk) first cr
            (* watch moved: do not keep it in this list *)
          end
          else begin
            (* unit or conflicting on [first] *)
            Arena.Watch.set ws !j first cr;
            incr j;
            match value_lit t first with
            | 0 ->
              (* conflict: keep the remaining watches and stop *)
              while !i < len do
                Arena.Watch.set ws !j (Arena.Watch.blocker ws !i) (Arena.Watch.cref ws !i);
                incr j;
                incr i
              done;
              conflict := cr
            | v when v = unassigned ->
              t.stats.propagations <- t.stats.propagations + 1;
              enqueue t first cr
            | _ -> () (* already true: nothing to do *)
          end
        end
      end
    done;
    Arena.Watch.truncate ws !j
  done;
  !conflict

(* ------------------------------------------------------------------ *)
(* Backtracking.                                                       *)
(* ------------------------------------------------------------------ *)

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = Vec.get t.trail_lim lvl in
    let n = Vec.length t.trail in
    for i = n - 1 downto bound do
      let l = Vec.get t.trail i in
      let v = Lit.var l in
      t.assigns.(v) <- unassigned;
      t.reason.(v) <- Arena.none;
      Order.on_unassign t.order v
    done;
    Vec.shrink_retain t.trail bound;
    Vec.shrink_retain t.trail_lim lvl;
    t.qhead <- bound
  end

(* Add a clause between solve calls (incremental use).  The solver first
   retracts all decisions; learnt clauses and literal activities survive.
   The array is shared with the solver's formula, never copied. *)
let add_clause_a t c =
  cancel_until t 0;
  t.result <- None;
  for i = 0 to Array.length c - 1 do
    ensure_vars t (Lit.var c.(i) + 1)
  done;
  for i = 0 to Array.length c - 1 do
    let v = Lit.var c.(i) in
    if t.eliminated.(v) then
      invalid_arg
        (Printf.sprintf
           "Solver.add_clause: variable %d was eliminated by inprocessing (freeze variables \
            that later clauses mention)"
           v)
  done;
  Cnf.add_clause_a t.cnf c;
  let index = Cnf.num_clauses t.cnf - 1 in
  for i = 0 to Array.length c - 1 do
    Order.bump_by t.order c.(i) 1.0
  done;
  add_original t index c

let add_clause t lits = add_clause_a t (Array.of_list lits)

(* ------------------------------------------------------------------ *)
(* Conflict analysis (first UIP).                                      *)
(* ------------------------------------------------------------------ *)

(* Returns (learnt literals with the asserting literal first, backtrack
   level, antecedent clause IDs).  Precondition: decision_level > 0. *)
let analyze t conflict =
  let arena = t.arena in
  let learnt = ref [] in
  let steps = ref [] in
  let path_count = ref 0 in
  let p = ref None in
  let index = ref (Vec.length t.trail - 1) in
  let confl = ref conflict in
  let to_clear = ref [] in
  let current = decision_level t in
  (* A false literal assigned at level 0 is silently dropped from the learnt
     clause; soundness of the recorded derivation then requires resolving
     against its reason chain, so those clause IDs join the antecedents. *)
  let resolve_level0 v0 =
    let stack = ref [ v0 ] in
    let rec drain () =
      match !stack with
      | [] -> ()
      | v :: rest ->
        stack := rest;
        if not t.seen.(v) then begin
          t.seen.(v) <- true;
          to_clear := v :: !to_clear;
          let r = t.reason.(v) in
          if r <> Arena.none then begin
            steps := (v, Arena.cid arena r) :: !steps;
            Arena.iter_lits arena r (fun l ->
                let u = Lit.var l in
                if u <> v && t.level.(u) = 0 then stack := u :: !stack)
          end
        end;
        drain ()
    in
    drain ()
  in
  let first_cid = Arena.cid arena conflict in
  let continue = ref true in
  let first_iter = ref true in
  while !continue do
    let c = !confl in
    if not !first_iter then steps := (Lit.var (Option.get !p), Arena.cid arena c) :: !steps;
    first_iter := false;
    if Arena.learnt arena c then Arena.bump_activity arena c;
    let start = match !p with None -> 0 | Some _ -> 1 in
    for jj = start to Arena.size arena c - 1 do
      let q = Arena.lit arena c jj in
      let v = Lit.var q in
      if not t.seen.(v) then begin
        if t.level.(v) > 0 then begin
          t.seen.(v) <- true;
          to_clear := v :: !to_clear;
          if t.level.(v) >= current then incr path_count
          else learnt := q :: !learnt
        end
        else resolve_level0 v
      end
    done;
    (* next trail literal that participates in the conflict *)
    while not t.seen.(Lit.var (Vec.get t.trail !index)) do
      decr index
    done;
    let pl = Vec.get t.trail !index in
    decr index;
    t.seen.(Lit.var pl) <- false;
    p := Some pl;
    decr path_count;
    if !path_count > 0 then begin
      let r = t.reason.(Lit.var pl) in
      if r <> Arena.none then confl := r
      else assert false (* only the UIP can lack a reason *)
    end
    else continue := false
  done;
  let uip = match !p with Some pl -> pl | None -> assert false in
  (* Conflict-clause minimisation (optional): a tail literal q is redundant
     when its reason clause only contains literals already in the clause or
     assigned at level 0 — dropping it is one more resolution step, so the
     reason (and any level-0 chains) joins the antecedents. *)
  let tail =
    if not t.minimize then !learnt
    else begin
      let redundant q =
        let r = t.reason.(Lit.var q) in
        if r = Arena.none then false
        else begin
          let ok = ref true in
          Arena.iter_lits arena r (fun l ->
              let v = Lit.var l in
              if v <> Lit.var q && (not t.seen.(v)) && t.level.(v) > 0 then ok := false);
          if !ok then begin
            steps := (Lit.var q, Arena.cid arena r) :: !steps;
            Arena.iter_lits arena r (fun l ->
                let v = Lit.var l in
                if v <> Lit.var q && (not t.seen.(v)) && t.level.(v) = 0 then
                  resolve_level0 v)
          end;
          !ok
        end
      in
      List.filter (fun q -> not (redundant q)) !learnt
    end
  in
  let learnt_lits = Lit.negate uip :: tail in
  List.iter (fun v -> t.seen.(v) <- false) !to_clear;
  (* backtrack level: highest level among the non-asserting literals *)
  let bt_level = List.fold_left (fun acc q -> max acc t.level.(Lit.var q)) 0 tail in
  (learnt_lits, bt_level, linearize_steps t first_cid !steps)

(* An assumption literal [p] was found already false: resolve backwards from
   its complement's implication to find which assumptions and which clauses
   are responsible.  All open decision levels hold assumptions when this is
   called.  Returns the failed assumptions and the antecedent IDs. *)
let analyze_final_assumption t p =
  let steps = ref [] in
  let failed = ref [ p ] in
  let to_clear = ref [] in
  let queue = ref [ Lit.var p ] in
  let rec drain () =
    match !queue with
    | [] -> ()
    | v :: rest ->
      queue := rest;
      if not t.seen.(v) then begin
        t.seen.(v) <- true;
        to_clear := v :: !to_clear;
        let r = t.reason.(v) in
        if r <> Arena.none then begin
          steps := (v, Arena.cid t.arena r) :: !steps;
          Arena.iter_lits t.arena r (fun l ->
              let u = Lit.var l in
              if u <> v then queue := u :: !queue)
        end
        else if t.level.(v) > 0 then
          (* an assumption decision: record the literal as assumed *)
          failed := Lit.make v (t.assigns.(v) = 1) :: !failed
      end;
      drain ()
  in
  drain ();
  List.iter (fun v -> t.seen.(v) <- false) !to_clear;
  let sorted =
    List.sort (fun (v1, _) (v2, _) -> compare t.trail_height.(v2) t.trail_height.(v1)) !steps
  in
  (List.rev !failed, List.map snd sorted)

(* ------------------------------------------------------------------ *)
(* Learning.                                                           *)
(* ------------------------------------------------------------------ *)

let record_learnt t lits ants =
  let cid =
    match t.proof with
    | Some p ->
      let id = Proof.register_learnt p ~antecedents:ants in
      Hashtbl.replace t.learnt_lits id lits;
      id
    | None -> -1
  in
  (match t.drat with Some d -> Vec.push d (Checker.Learnt lits) | None -> ());
  t.stats.learned <- t.stats.learned + 1;
  (* Chaff's new_lit_counts: every literal of the new conflict clause gets
     one activity point. *)
  List.iter (Order.bump t.order) lits;
  (match t.heur with Some h -> h.hk_on_conflict lits | None -> ());
  match lits with
  | [] -> assert false
  | [ l ] ->
    let cr = Arena.alloc t.arena ~cid ~learnt:true [| l |] 1 in
    enqueue t l cr
  | first :: _ ->
    let arr = Array.of_list lits in
    (* the second watch must be a literal from the backtrack level *)
    let best = ref 1 in
    for k = 2 to Array.length arr - 1 do
      if t.level.(Lit.var arr.(k)) > t.level.(Lit.var arr.(!best)) then best := k
    done;
    let tmp = arr.(1) in
    arr.(1) <- arr.(!best);
    arr.(!best) <- tmp;
    let cr = Arena.alloc t.arena ~cid ~learnt:true arr (Array.length arr) in
    Vec.push t.learnts cr;
    attach t cr;
    t.stats.propagations <- t.stats.propagations + 1;
    enqueue t first cr

(* ------------------------------------------------------------------ *)
(* Clause-database reduction and arena compaction.                     *)
(* ------------------------------------------------------------------ *)

let locked t cr =
  Arena.size t.arena cr > 0
  &&
  let v = Lit.var (Arena.lit t.arena cr 0) in
  value_var t v <> unassigned && t.reason.(v) = cr

(* Copying compaction: relocate every live root — watcher crefs, reasons of
   assigned variables, the learnt list — into a fresh arena and adopt it.
   Deleted clauses are unreachable by now (reduce_db detaches them), so
   everything relocated is live and the new arena has zero waste. *)
let compact t =
  let bytes_before = Arena.bytes t.arena in
  let into = Arena.create ~capacity:(max 1024 (Arena.live_words t.arena)) () in
  Array.iter
    (fun w -> Arena.Watch.map_crefs w (fun cr -> Arena.reloc t.arena ~into cr))
    t.watches;
  for v = 0 to t.nvars - 1 do
    if t.assigns.(v) <> unassigned && t.reason.(v) <> Arena.none then
      t.reason.(v) <- Arena.reloc t.arena ~into t.reason.(v)
  done;
  for i = 0 to Vec.length t.learnts - 1 do
    Vec.set t.learnts i (Arena.reloc t.arena ~into (Vec.get t.learnts i))
  done;
  Arena.commit t.arena ~into;
  t.stats.arena_compactions <- t.stats.arena_compactions + 1;
  t.stats.arena_bytes <- Arena.bytes t.arena;
  if Telemetry.enabled t.tel then
    Telemetry.event t.tel "compact"
      [
        ("before", Telemetry.Sink.Int bytes_before);
        ("after", Telemetry.Sink.Int t.stats.arena_bytes);
      ]

let reduce_db t =
  let cs = Vec.to_array t.learnts in
  Array.sort (fun a b -> Int.compare (Arena.activity t.arena a) (Arena.activity t.arena b)) cs;
  let target = Array.length cs / 2 in
  let removed = ref 0 in
  Array.iteri
    (fun i cr ->
      if i < target && Arena.size t.arena cr > 2 && not (locked t cr) then begin
        (match t.drat with
        | Some d -> Vec.push d (Checker.Deleted (Arena.lits_list t.arena cr))
        | None -> ());
        Arena.delete t.arena cr;
        incr removed
      end)
    cs;
  t.stats.deleted <- t.stats.deleted + !removed;
  Vec.filter_in_place (fun cr -> not (Arena.deleted t.arena cr)) t.learnts;
  (* one sweep detaches every deleted clause; pair storage is filtered in
     place, so watch-list capacity is reused, not reallocated *)
  if !removed > 0 then
    Array.iter
      (fun w -> Arena.Watch.filter_crefs w (fun cr -> not (Arena.deleted t.arena cr)))
      t.watches;
  t.max_learnts <- t.max_learnts + (t.max_learnts / 10);
  t.stats.arena_bytes <- Arena.bytes t.arena;
  if Telemetry.enabled t.tel then
    Telemetry.event t.tel "reduce_db"
      [
        ("removed", Telemetry.Sink.Int !removed);
        ("kept", Telemetry.Sink.Int (Vec.length t.learnts));
      ];
  if Arena.should_gc t.arena ~max_waste:t.gc_fraction then compact t

(* ------------------------------------------------------------------ *)
(* Periodic decay (Chaff's score halving).                             *)
(* ------------------------------------------------------------------ *)

let decay_period = 256

let maybe_decay t =
  t.conflicts_since_decay <- t.conflicts_since_decay + 1;
  if t.conflicts_since_decay >= decay_period then begin
    t.conflicts_since_decay <- 0;
    Order.halve_all t.order;
    Vec.iter (fun cr -> Arena.halve_activity t.arena cr) t.learnts
  end

(* ------------------------------------------------------------------ *)
(* Inprocessing (the solver-side driver of {!Inprocess}).              *)
(* ------------------------------------------------------------------ *)

let freeze t v =
  ensure_vars t (v + 1);
  t.frozen.(v) <- true

let melt t v = if v < Array.length t.frozen then t.frozen.(v) <- false

(* Record a level-0 refutation discovered outside the search loop (during
   probing or while attaching derived clauses). *)
let refuted_at_level0 t confl =
  t.stats.conflicts <- t.stats.conflicts + 1;
  (match t.proof with
  | Some p ->
    if not (Proof.has_final p) then Proof.set_final p ~antecedents:(final_analysis t confl)
  | None -> ());
  (match t.drat with Some d -> Vec.push d (Checker.Learnt []) | None -> ());
  t.ok <- false

let over_deadline deadline = match deadline with Some d -> Telemetry.wall () > d | None -> false

(* Failed-literal probing: speculatively decide each candidate literal at a
   fresh level and propagate.  A conflict means the literal fails; the
   ordinary 1UIP machinery then learns the implied unit — proof node and
   DRAT record for free — and level-0 propagation
   saturates before the next probe.  Probing never removes a variable, so
   frozen variables are fair game. *)
let probe_round t (cfg : Inprocess.config) (st : Inprocess.stats) ~deadline =
  let budget_left = ref cfg.Inprocess.max_probes in
  let v = ref 0 in
  while t.ok && !budget_left > 0 && !v < t.nvars && not (over_deadline deadline) do
    let var = !v in
    if value_var t var = unassigned && not t.eliminated.(var) then
      List.iter
        (fun l ->
          if t.ok && !budget_left > 0 && value_lit t l = unassigned then begin
            decr budget_left;
            st.Inprocess.probes <- st.Inprocess.probes + 1;
            Vec.push t.trail_lim (Vec.length t.trail);
            enqueue t l Arena.none;
            let confl = propagate t in
            if confl = Arena.none then cancel_until t 0
            else begin
              st.Inprocess.probe_failed <- st.Inprocess.probe_failed + 1;
              t.stats.conflicts <- t.stats.conflicts + 1;
              let learnt, bt_level, ants = analyze t confl in
              cancel_until t bt_level;
              record_learnt t learnt ants;
              let confl0 = propagate t in
              if confl0 <> Arena.none then refuted_at_level0 t confl0
            end
          end)
        [ Lit.pos var; Lit.neg var ];
    incr v
  done

(* Every live clause is reachable from the watch lists (all clauses of two
   or more literals), the learnt list, or a reason slot (unit clauses
   enqueued at level 0).  One mark per cref, then one ascending walk of the
   arena — allocation order — so the engine's input is deterministic. *)
let iter_live_crefs t f =
  let arena = t.arena in
  let mark = Bytes.make (Arena.extent arena) '\000' in
  let add cr = if cr <> Arena.none then Bytes.set mark cr '\001' in
  let add_watcher () cr = add cr in
  Array.iter (fun w -> Arena.Watch.fold_crefs add_watcher () w) t.watches;
  Vec.iter add t.learnts;
  for v = 0 to t.nvars - 1 do
    if t.assigns.(v) <> unassigned && t.reason.(v) <> Arena.none then add t.reason.(v)
  done;
  Arena.iter arena (fun cr -> if Bytes.get mark cr <> '\000' then f cr)

let satisfied_at_level0 t cr =
  let n = Arena.size t.arena cr in
  let i = ref 0 in
  while !i < n && value_lit t (Arena.lit t.arena cr !i) <> 1 do
    incr i
  done;
  !i < n

(* Attach a clause newly allocated by inprocessing, assignment-aware like
   [add_original]: watches go on non-false literals, a single non-false
   literal is a (possibly pending) unit, none is a refutation. *)
let attach_derived t cr =
  let arena = t.arena in
  let n = Arena.size arena cr in
  let nf = ref 0 in
  for i = 0 to n - 1 do
    if value_lit t (Arena.lit arena cr i) <> 0 then begin
      Arena.swap_lits arena cr !nf i;
      incr nf
    end
  done;
  if !nf = 0 then refuted_at_level0 t cr
  else begin
    (if !nf = 1 then
       let first = Arena.lit arena cr 0 in
       match value_lit t first with
       | 1 -> ()
       | _ -> enqueue t first cr);
    if n >= 2 then attach t cr
  end

let no_input = { Inprocess.lits = [||]; deletable = false; redundant = false }

(* One inprocessing run: saturate level-0 BCP, probe, snapshot the live
   database, run the {!Inprocess} engine and replay its script.  Every
   derived clause becomes a proof node carrying its antecedent IDs and a
   DRAT addition emitted before its parents' deletions, so [unsat_core]
   and DRAT checking stay exact.  Locked (reason) clauses are never
   deleted and block the elimination of their variables; frozen variables
   are exempt from elimination only. *)
let inprocess ?(config = Inprocess.default) t =
  let st = Inprocess.fresh_stats () in
  if t.ok then begin
    let t0 = Telemetry.wall () in
    cancel_until t 0;
    t.result <- None;
    t.failed_assumptions <- [];
    t.assumptions <- [||];
    (match t.proof with Some p -> Proof.clear_final p | None -> ());
    t.cur_budget <- no_budget;
    t.props_at_poll <- t.stats.propagations;
    let deadline = Option.map (fun s -> t0 +. s) config.Inprocess.time_slice in
    let confl = propagate t in
    if confl <> Arena.none then refuted_at_level0 t confl
    else begin
      if config.Inprocess.max_probes > 0 then probe_round t config st ~deadline;
      if t.ok then begin
        let arena = t.arena in
        (* snapshot the live clauses, dropping level-0-satisfied ones;
           [crefs] maps every script id to its arena block *)
        let inputs = Vec.create ~dummy:no_input () in
        let crefs = Vec.create ~dummy:Arena.none () in
        iter_live_crefs t (fun cr ->
            if not (Arena.deleted arena cr) then begin
              let lk = locked t cr in
              if satisfied_at_level0 t cr && not lk then begin
                (match t.drat with
                | Some d -> Vec.push d (Checker.Deleted (Arena.lits_list arena cr))
                | None -> ());
                Arena.delete arena cr;
                st.Inprocess.satisfied_removed <- st.Inprocess.satisfied_removed + 1
              end
              else begin
                Vec.push inputs
                  {
                    Inprocess.lits = Arena.lits_array arena cr;
                    deletable = not lk;
                    redundant = Arena.learnt arena cr;
                  };
                Vec.push crefs cr
              end
            end);
        let n_inputs = Vec.length crefs in
        let frozen v = t.frozen.(v) || t.eliminated.(v) in
        let actions =
          Inprocess.simplify config st ~num_vars:t.nvars ~frozen
            ~value:(fun l -> value_lit t l)
            ~deadline (Vec.to_array inputs)
        in
        (* replay the script against the arena / proof / DRAT state *)
        let delete_clause cr =
          if not (Arena.deleted arena cr) then begin
            (match t.drat with
            | Some d -> Vec.push d (Checker.Deleted (Arena.lits_list arena cr))
            | None -> ());
            Arena.delete arena cr
          end
        in
        let derive ~id ~lits ~parent1 ~parent2 ~learnt =
          let c1 = Vec.get crefs parent1 and c2 = Vec.get crefs parent2 in
          let lits_l =
            match (t.proof, t.drat) with None, None -> [] | _ -> Array.to_list lits
          in
          let cid =
            match t.proof with
            | Some p ->
              let pid =
                Proof.register_learnt p ~antecedents:[ Arena.cid arena c1; Arena.cid arena c2 ]
              in
              Hashtbl.replace t.learnt_lits pid lits_l;
              pid
            | None -> -1
          in
          (match t.drat with Some d -> Vec.push d (Checker.Learnt lits_l) | None -> ());
          let cr = Arena.alloc arena ~cid ~learnt lits (Array.length lits) in
          assert (id = Vec.length crefs);
          Vec.push crefs cr;
          if learnt then Vec.push t.learnts cr
        in
        List.iter
          (fun (a : Inprocess.action) ->
            match a with
            | Inprocess.Delete id -> delete_clause (Vec.get crefs id)
            | Inprocess.Strengthen { target; parent; lits; id } ->
              let tc = Vec.get crefs target in
              derive ~id ~lits ~parent1:target ~parent2:parent ~learnt:(Arena.learnt arena tc);
              delete_clause tc
            | Inprocess.Resolvent { pos; neg; lits; id; pivot = _ } ->
              derive ~id ~lits ~parent1:pos ~parent2:neg ~learnt:false
            | Inprocess.Eliminate { v; pos } ->
              t.eliminated.(v) <- true;
              t.elim_stack <- (v, List.map Array.to_list pos) :: t.elim_stack)
          actions;
        (* one sweep detaches every deleted clause, then the surviving
           derived clauses attach and level-0 propagation saturates *)
        Array.iter
          (fun w -> Arena.Watch.filter_crefs w (fun cr -> not (Arena.deleted arena cr)))
          t.watches;
        Vec.filter_in_place (fun cr -> not (Arena.deleted arena cr)) t.learnts;
        for id = n_inputs to Vec.length crefs - 1 do
          let cr = Vec.get crefs id in
          if t.ok && not (Arena.deleted arena cr) then attach_derived t cr
        done;
        if t.ok then begin
          let confl = propagate t in
          if confl <> Arena.none then refuted_at_level0 t confl
        end;
        if Arena.should_gc arena ~max_waste:t.gc_fraction then compact t
      end
    end;
    st.Inprocess.time <- Telemetry.wall () -. t0;
    let s = t.stats in
    s.inpr_runs <- s.inpr_runs + 1;
    s.inpr_probes <- s.inpr_probes + st.Inprocess.probes;
    s.inpr_probe_failed <- s.inpr_probe_failed + st.Inprocess.probe_failed;
    s.inpr_satisfied <- s.inpr_satisfied + st.Inprocess.satisfied_removed;
    s.inpr_subsumed <- s.inpr_subsumed + st.Inprocess.subsumed;
    s.inpr_strengthened <- s.inpr_strengthened + st.Inprocess.strengthened;
    s.inpr_eliminated <- s.inpr_eliminated + st.Inprocess.eliminated;
    s.inpr_resolvents <- s.inpr_resolvents + st.Inprocess.resolvents;
    s.inpr_time <- s.inpr_time +. st.Inprocess.time;
    s.arena_bytes <- Arena.bytes t.arena;
    if Telemetry.enabled t.tel then begin
      let open Telemetry.Sink in
      Telemetry.span_event t.tel "inprocess" ~dur:st.Inprocess.time
        [
          ("eliminated", Int st.Inprocess.eliminated);
          ("subsumed", Int st.Inprocess.subsumed);
          ("strengthened", Int st.Inprocess.strengthened);
          ("satisfied", Int st.Inprocess.satisfied_removed);
          ("probe_failed", Int st.Inprocess.probe_failed);
          ("resolvents", Int st.Inprocess.resolvents);
        ]
    end
  end;
  st

(* ------------------------------------------------------------------ *)
(* Main search loop.                                                   *)
(* ------------------------------------------------------------------ *)

(* Hot-path timing is gated on the telemetry handle's [timing] knob so the
   disabled configuration — and event-stream-only handles like a ledger's —
   pay only this branch, never a clock read.  [Fun.protect]: the
   in-propagate budget poll can abandon a propagation by raising [Done],
   and the time already spent must still be accounted. *)
let propagate_timed t =
  if not (Telemetry.timing t.tel) then propagate t
  else begin
    let t0 = Telemetry.wall () in
    Fun.protect
      ~finally:(fun () -> t.stats.bcp_time <- t.stats.bcp_time +. (Telemetry.wall () -. t0))
      (fun () -> propagate t)
  end

let analyze_timed t conflict =
  if not (Telemetry.timing t.tel) then analyze t conflict
  else begin
    let t0 = Telemetry.wall () in
    let r = analyze t conflict in
    t.stats.analyze_time <- t.stats.analyze_time +. (Telemetry.wall () -. t0);
    r
  end

let handle_conflict t conflict =
  t.stats.conflicts <- t.stats.conflicts + 1;
  if decision_level t = 0 then begin
    (match t.proof with
    | Some p ->
      if not (Proof.has_final p) then
        Proof.set_final p ~antecedents:(final_analysis t conflict)
    | None -> ());
    (match t.drat with Some d -> Vec.push d (Checker.Learnt []) | None -> ());
    t.ok <- false;
    raise (Done Unsat)
  end;
  let learnt, bt_level, ants = analyze_timed t conflict in
  cancel_until t bt_level;
  record_learnt t learnt ants;
  maybe_decay t

let pick_decision t =
  (* the dynamic fallback of Section 3.3 *)
  if
    Order.is_dynamic t.order
    && Order.mode_uses_rank t.order
    && t.stats.decisions > t.dynamic_threshold
  then begin
    Order.switch_to_vsids t.order;
    t.stats.heuristic_switches <- t.stats.heuristic_switches + 1;
    if Telemetry.enabled t.tel then
      Telemetry.event t.tel "switch"
        [
          ("decisions", Telemetry.Sink.Int t.stats.decisions);
          ("threshold", Telemetry.Sink.Int t.dynamic_threshold);
        ]
  end;
  match
    Order.pop_best t.order ~is_unassigned:(fun v ->
        value_var t v = unassigned && not t.eliminated.(v))
  with
  | None -> None
  | Some l as picked -> (
    (* phase bias: a heuristic may override the sign of the decision
       literal; the variable choice itself stays with the order heap *)
    match t.heur with
    | None -> picked
    | Some h -> (
      match h.hk_bias (Lit.var l) with
      | None -> picked
      | Some b -> Some (Lit.make (Lit.var l) b)))

let search t budget start_time =
  let conflicts_until_restart = ref (Luby.next t.luby) in
  let new_level () = Vec.push t.trail_lim (Vec.length t.trail) in
  let rec loop () =
    let confl = propagate_timed t in
    if confl <> Arena.none then begin
      handle_conflict t confl;
      decr conflicts_until_restart;
      if budget_exceeded t budget start_time then raise (Done Unknown);
      if !conflicts_until_restart <= 0 then begin
        t.stats.restarts <- t.stats.restarts + 1;
        conflicts_until_restart := Luby.next t.luby;
        if Telemetry.enabled t.tel then
          Telemetry.event t.tel "restart"
            [ ("conflicts", Telemetry.Sink.Int t.stats.conflicts) ];
        cancel_until t 0;
        match t.heur with Some h -> h.hk_on_restart () | None -> ()
      end;
      loop ()
    end
    else begin
      let dl = decision_level t in
      if dl < Array.length t.assumptions then begin
        (* assumption prefix: assume the next one, or detect failure *)
        let p = t.assumptions.(dl) in
        match value_lit t p with
        | 1 ->
          new_level ();
          loop ()
        | v when v = unassigned ->
          new_level ();
          enqueue t p Arena.none;
          loop ()
        | _ ->
          let failed, ants = analyze_final_assumption t p in
          t.failed_assumptions <- failed;
          (match t.proof with
          | Some pr -> if not (Proof.has_final pr) then Proof.set_final pr ~antecedents:ants
          | None -> ());
          raise (Done Unsat)
      end
      else begin
        if Vec.length t.learnts >= t.max_learnts then
          Telemetry.span t.tel "reduce_db" (fun () -> reduce_db t);
        match pick_decision t with
        | None -> raise (Done Sat)
        | Some l ->
          if t.stats.decisions land 1023 = 0 && budget_exceeded t budget start_time then
            raise (Done Unknown);
          t.stats.decisions <- t.stats.decisions + 1;
          (* Per-variable source attribution: a ranked order still breaks
             ties among zero-rank variables on activity alone, so only a
             branch on a positively ranked variable counts as the
             paper's.  One array read per decision — cheap enough to
             count unconditionally; the split is published coalesced per
             solve call, never as a per-decision event. *)
          if Order.decided_by_rank t.order (Lit.var l) then
            t.stats.decisions_rank <- t.stats.decisions_rank + 1
          else t.stats.decisions_vsids <- t.stats.decisions_vsids + 1;
          new_level ();
          t.stats.max_decision_level <- max t.stats.max_decision_level (decision_level t);
          enqueue t l Arena.none;
          loop ()
      end
    end
  in
  loop ()

let cdg_seconds t = match t.proof with Some p -> Proof.cdg_seconds p | None -> 0.0

let solve_event t r ~dur ~dec_rank ~dec_vsids =
  let open Telemetry.Sink in
  Telemetry.span_event t.tel "solve" ~dur
    [
      ("outcome", Str (outcome_string r));
      ("decisions", Int t.stats.decisions);
      ("conflicts", Int t.stats.conflicts);
      ("dec_rank", Int dec_rank);
      ("dec_vsids", Int dec_vsids);
    ]

let solve ?(budget = no_budget) ?(assumptions = []) t =
  t.failed_assumptions <- [];
  let r =
    if not t.ok then begin
      (* refuted while loading: no search, but the stream still records
         the call *)
      if Telemetry.enabled t.tel then solve_event t Unsat ~dur:0.0 ~dec_rank:0 ~dec_vsids:0;
      Unsat
    end
    else begin
      cancel_until t 0;
      (match t.proof with Some p -> Proof.clear_final p | None -> ());
      List.iter (fun l -> ensure_vars t (Lit.var l + 1)) assumptions;
      List.iter
        (fun l ->
          if t.eliminated.(Lit.var l) then
            invalid_arg
              "Solver.solve: assumption on an eliminated variable (freeze assumption \
               variables before inprocessing)")
        assumptions;
      t.assumptions <- Array.of_list assumptions;
      (* Section 3.3's budget is per SAT instance: this call's literals/64
         on top of the decisions earlier calls took *)
      t.dynamic_threshold <- t.stats.decisions + max 1 (Cnf.num_literals t.cnf / 64);
      let cmps0 = Order.comparisons t.order in
      Order.rebuild t.order ~is_unassigned:(fun v ->
          value_var t v = unassigned && not t.eliminated.(v));
      let s = t.stats in
      (* snapshots so an incremental solver reports this call's share only *)
      let bcp0 = s.bcp_time and analyze0 = s.analyze_time and cdg0 = cdg_seconds t in
      let props0 = s.propagations and confl0 = s.conflicts and learned0 = s.learned in
      let rank0 = s.decisions_rank and vsids0 = s.decisions_vsids in
      let start_time = Telemetry.wall () in
      (* Resource budgets are per solve call: rebase the count limits onto
         the cumulative counters so an incremental solver grants every
         instance the full allowance instead of starving later depths. *)
      let budget =
        {
          budget with
          max_conflicts = Option.map (fun m -> confl0 + m) budget.max_conflicts;
          max_propagations = Option.map (fun m -> props0 + m) budget.max_propagations;
        }
      in
      t.cur_budget <- budget;
      t.solve_start <- start_time;
      t.props_at_poll <- s.propagations;
      let r = try search t budget start_time with Done r -> r in
      (* the next call rebuilds the heap: stop maintaining it until then *)
      Order.suspend t.order;
      s.heap_cmps <- s.heap_cmps + (Order.comparisons t.order - cmps0);
      let dur = Telemetry.wall () -. start_time in
      s.solve_time <- s.solve_time +. dur;
      s.arena_bytes <- Arena.bytes t.arena;
      if Telemetry.enabled t.tel then begin
        let open Telemetry.Sink in
        Telemetry.span_event t.tel "bcp" ~dur:(s.bcp_time -. bcp0)
          [ ("count", Int (s.propagations - props0)) ];
        Telemetry.span_event t.tel "analyze" ~dur:(s.analyze_time -. analyze0)
          [ ("count", Int (s.conflicts - confl0)) ];
        if t.proof <> None then
          Telemetry.span_event t.tel "cdg" ~dur:(cdg_seconds t -. cdg0)
            [ ("count", Int (s.learned - learned0)) ];
        Telemetry.counter t.tel "decisions.rank" (s.decisions_rank - rank0);
        Telemetry.counter t.tel "decisions.vsids" (s.decisions_vsids - vsids0);
        solve_event t r ~dur ~dec_rank:(s.decisions_rank - rank0)
          ~dec_vsids:(s.decisions_vsids - vsids0)
      end;
      r
    end
  in
  (* keep the model available after Sat; reset nothing *)
  t.result <- Some r;
  r

let model t =
  match t.result with
  | Some Sat ->
    let m = Array.init t.nvars (fun v -> t.assigns.(v) = 1) in
    (* Extend the assignment over eliminated variables, most recently
       eliminated first (earlier-eliminated variables may depend on later
       ones through their saved occurrences).  [v := false] satisfies every
       negative saved occurrence; it is forced true iff some positive saved
       occurrence has no other true literal (the SatELite rule). *)
    List.iter
      (fun (v, pos) ->
        let lit_true l =
          let u = Lit.var l in
          if Lit.is_pos l then m.(u) else not m.(u)
        in
        let forced =
          List.exists
            (fun lits -> not (List.exists (fun l -> Lit.var l <> v && lit_true l) lits))
            pos
        in
        m.(v) <- forced)
      t.elim_stack;
    m
  | Some (Unsat | Unknown) | None -> invalid_arg "Solver.model: no satisfying assignment"

(* The one proof walk behind every core query below: the original
   clauses the refutation reaches.  The index map is monotone, so the
   indices come out ascending. *)
let core_clauses t what =
  match (t.result, t.proof) with
  | Some Unsat, Some p -> List.map (cnf_index t) (Proof.core p)
  | Some Unsat, None -> invalid_arg ("Solver." ^ what ^ ": proof logging was off")
  | (Some (Sat | Unknown) | None), _ -> invalid_arg ("Solver." ^ what ^ ": not UNSAT")

let vars_of_clauses t idxs =
  let mark = Bytes.make t.nvars '\000' in
  List.iter
    (fun i ->
      let c = Cnf.get_clause t.cnf i in
      for j = 0 to Array.length c - 1 do
        Bytes.set mark (Lit.var c.(j)) '\001'
      done)
    idxs;
  let acc = ref [] in
  for v = t.nvars - 1 downto 0 do
    if Bytes.get mark v <> '\000' then acc := v :: !acc
  done;
  !acc

type core = {
  clauses : int list;
  vars : Lit.var list;
}

let core t =
  let clauses = core_clauses t "core" in
  { clauses; vars = vars_of_clauses t clauses }

let unsat_core t = core_clauses t "unsat_core"

let core_vars t = vars_of_clauses t (unsat_core t)

let original_clause t i = Array.to_list (Cnf.get_clause t.cnf i)

let stats t = t.stats

let num_vars t = t.nvars

let proof_edges t = match t.proof with Some p -> Proof.num_edges p | None -> 0

let drat_events t =
  match t.drat with
  | Some d -> Vec.to_list d
  | None -> invalid_arg "Solver.drat_events: DRAT logging was off"

(* McMillan interpolant for the (A, B) split of the original clauses. *)
let interpolant t ~a_side =
  match (t.result, t.proof) with
  | Some Unsat, Some p ->
    let final =
      match Proof.final p with
      | Some f -> f
      | None -> invalid_arg "Solver.interpolant: no final conflict recorded"
    in
    let b_vars = Array.make (max t.nvars 1) false in
    Cnf.iter_clauses
      (fun i c ->
        if not (a_side i) then Array.iter (fun l -> b_vars.(Lit.var l) <- true) c)
      t.cnf;
    let clause_lits id =
      match Hashtbl.find_opt t.learnt_lits id with
      | Some lits -> lits
      | None -> (
        let original = Cnf.get_clause t.cnf (cnf_index t id) in
        match Cnf.normalize_clause (Array.to_list original) with
        | Some lits -> lits
        | None -> invalid_arg "Solver.interpolant: tautology in the proof")
    in
    Itp.compute ~clause_lits
      ~antecedents:(fun id -> Proof.antecedents p id)
      ~final
      ~side:(fun id -> if a_side (cnf_index t id) then `A else `B)
      ~b_vars:(fun v -> v >= 0 && v < Array.length b_vars && b_vars.(v))
  | Some Unsat, None -> invalid_arg "Solver.interpolant: proof logging was off"
  | (Some (Sat | Unknown) | None), _ -> invalid_arg "Solver.interpolant: not UNSAT"

let failed_assumptions t =
  match t.result with
  | Some Unsat -> t.failed_assumptions
  | Some (Sat | Unknown) | None -> invalid_arg "Solver.failed_assumptions: not UNSAT"

let set_order ?hooks t mode =
  cancel_until t 0;
  t.heur <- hooks;
  Order.set_mode t.order mode

let set_rank t v r = Order.set_rank t.order v r

let set_max_learnts t n = t.max_learnts <- max 1 n

let set_gc_fraction t f =
  if f < 0.0 then invalid_arg "Solver.set_gc_fraction: negative";
  t.gc_fraction <- f

let arena_bytes t = Arena.bytes t.arena

let pp_outcome ppf = function
  | Sat -> Format.pp_print_string ppf "SAT"
  | Unsat -> Format.pp_print_string ppf "UNSAT"
  | Unknown -> Format.pp_print_string ppf "UNKNOWN"
