module Pool = Pool
module Session = Bmc.Session

(* ------------------------------------------------------------------ *)
(* Mode A: strategy races.                                             *)
(* ------------------------------------------------------------------ *)

type racer = {
  r_name : string;
  r_mode : Session.mode;
  r_restart_base : int option;
  r_conflicts : int option;
  r_seconds : float option;
}

let racer ?restart_base ?conflicts ?seconds ~name mode =
  (match conflicts with
  | Some c when c < 1 -> invalid_arg "Portfolio.racer: conflicts must be >= 1"
  | _ -> ());
  (match seconds with
  | Some s when s <= 0.0 -> invalid_arg "Portfolio.racer: seconds must be positive"
  | _ -> ());
  {
    r_name = name;
    r_mode = mode;
    r_restart_base = restart_base;
    r_conflicts = conflicts;
    r_seconds = seconds;
  }

(* Distinct Luby units diversify the racers' restart schedules — and
   therefore which clauses each learns and offers to the exchange. *)
let default_racers =
  [
    racer ~name:"standard" ~restart_base:64 Session.Standard;
    racer ~name:"static" ~restart_base:100 Session.Static;
    racer ~name:"dynamic" ~restart_base:150 Session.Dynamic;
  ]

(* Every slot field except the token is reconfigured when the slot rotates
   onto the next roster entry.  The coordinator only touches them between
   rounds (race_depth's wait loop is the quiescence barrier), so the
   worker that runs the slot's jobs always sees a settled configuration. *)
type slot = {
  mutable s_name : string;
  mutable s_mode : Session.mode;
  mutable s_base : int option; (* per-racer Luby restart unit override *)
  mutable s_conflicts : int option; (* per-racer conflict budget *)
  mutable s_seconds : float option; (* per-racer seconds budget *)
  s_token : Pool.Token.t;
  (* The racer's persistent session.  Created lazily by the first job that
     runs on the slot's pinned worker and only ever touched there — the
     coordinator must never dereference it (Session's ownership rule);
     dropping the reference on rotation is its only permitted write. *)
  mutable s_session : Session.t option;
}

type race = {
  r_pool : Pool.t;
  r_cfg : Session.config;
  r_netlist : Circuit.Netlist.t;
  r_property : Circuit.Netlist.node;
  r_slots : slot array;
  r_score : Bmc.Score.t;
  (* Win tallies are keyed by racer name (slots change identity under
     rotation); r_names remembers first-appearance order for reports. *)
  r_wins : (string, int) Hashtbl.t;
  mutable r_names : string list; (* reversed *)
  mutable r_rotation : racer list; (* untried roster entries, in order *)
  mutable r_rotated : int; (* total rotations performed *)
  r_share : Share.Exchange.t option;
  mutable r_last_k : int;
}

let slot_of_racer r =
  {
    s_name = r.r_name;
    s_mode = r.r_mode;
    s_base = r.r_restart_base;
    s_conflicts = r.r_conflicts;
    s_seconds = r.r_seconds;
    s_token = Pool.Token.create ();
    s_session = None;
  }

let note_name race name =
  if not (Hashtbl.mem race.r_wins name) then begin
    Hashtbl.replace race.r_wins name 0;
    race.r_names <- name :: race.r_names
  end

let create_race ?(racers = default_racers) ?(rotation = []) ?share ~pool cfg netlist
    ~property =
  if racers = [] then invalid_arg "Portfolio.create_race: no racers";
  (* validate the netlist in the coordinator, where the error is useful,
     rather than inside a worker job *)
  (match Circuit.Netlist.validate netlist with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Portfolio.create_race: " ^ msg));
  let cfg = { cfg with Session.collect_cores = true } in
  let slots = Array.of_list (List.map slot_of_racer racers) in
  let race =
    {
      r_pool = pool;
      r_cfg = cfg;
      r_netlist = netlist;
      r_property = property;
      r_slots = slots;
      r_score = Bmc.Score.create ~weighting:cfg.Session.weighting ();
      r_wins = Hashtbl.create 7;
      r_names = [];
      r_rotation = rotation;
      r_rotated = 0;
      r_share = share;
      r_last_k = -1;
    }
  in
  Array.iter (fun sl -> note_name race sl.s_name) slots;
  race

(* Runs inside the slot's pinned worker. *)
let slot_session race slot =
  match slot.s_session with
  | Some s -> s
  | None ->
    let base = race.r_cfg.Session.budget in
    let token_stop = Pool.Token.stop_hook slot.s_token in
    let stop =
      match base.Sat.Solver.stop with
      | None -> token_stop
      | Some f -> fun () -> token_stop () || f ()
    in
    (* tightest of the run-wide and per-racer budgets wins *)
    let min_opt a b =
      match (a, b) with
      | Some x, Some y -> Some (min x y)
      | (Some _ as s), None | None, s -> s
    in
    let cfg =
      {
        race.r_cfg with
        Session.mode = slot.s_mode;
        budget =
          {
            base with
            Sat.Solver.max_conflicts =
              min_opt base.Sat.Solver.max_conflicts slot.s_conflicts;
            max_seconds = min_opt base.Sat.Solver.max_seconds slot.s_seconds;
            stop = Some stop;
          };
        restart_base =
          (match slot.s_base with
          | Some _ as b -> b
          | None -> race.r_cfg.Session.restart_base);
      }
    in
    (* The endpoint, like the session, is created inside the pinned worker
       and confined to it; only the exchange itself is shared. *)
    let share =
      Option.map
        (fun ex -> Share.Exchange.endpoint ex ~name:slot.s_name)
        race.r_share
    in
    (* [fold_cores:false]: racers extract cores but never write the shared
       score — the coordinator folds exactly one core (the winner's) per
       depth, between rounds. *)
    let s =
      Session.create ?share ~score:race.r_score ~fold_cores:false cfg race.r_netlist
        ~property:race.r_property
    in
    slot.s_session <- Some s;
    s

type attempt = {
  a_stat : Session.depth_stat;
  a_trace : Bmc.Trace.t option;
  a_core_vars : Sat.Lit.var list;
  a_finished : float; (* wall clock *)
}

type race_stat = {
  depth : int;
  winner : string option;
  stat : Session.depth_stat;
  core_vars : Sat.Lit.var list;
  attempts : (string * Sat.Solver.outcome) list;
  wall : float;
  cancelled : int;
  max_cancel_latency : float;
  rotated : int;
  trace : Bmc.Trace.t option;
}

let definitive = function
  | Sat.Solver.Sat | Sat.Solver.Unsat -> true
  | Sat.Solver.Unknown -> false

let race_depth race ~k =
  if k <= race.r_last_k then
    invalid_arg "Portfolio.race_depth: depth must increase between rounds";
  race.r_last_k <- k;
  let slots = race.r_slots in
  let n = Array.length slots in
  let tel = race.r_cfg.Session.telemetry in
  (* all prior rounds have settled, so re-arming the tokens is safe *)
  Array.iter (fun sl -> Pool.Token.reset sl.s_token) slots;
  let cm = Mutex.create () in
  let ccv = Condition.create () in
  let results = Array.make n None in
  let settled = ref 0 in
  let winner = ref None in
  let cancel_at = ref 0.0 in
  let t0 = Pool.wall () in
  (* Emitted on the racing worker, so a flight recorder files each mark
     in that worker's ring. *)
  let racer_event kind ~slot =
    if Telemetry.enabled tel then
      Telemetry.event tel kind
        [ ("depth", Telemetry.Sink.Int k); ("slot", Telemetry.Sink.Int slot) ]
  in
  let job i () =
    racer_event "racer_start" ~slot:i;
    let outcome =
      try
        let s = slot_session race slots.(i) in
        let st = Session.solve_depth s ~k in
        let tr =
          match st.Session.outcome with
          | Sat.Solver.Sat -> Some (Session.trace s)
          | Sat.Solver.Unsat | Sat.Solver.Unknown -> None
        in
        Ok
          {
            a_stat = st;
            a_trace = tr;
            a_core_vars = Session.last_core_vars s;
            a_finished = Pool.wall ();
          }
      with e -> Error e
    in
    Mutex.protect cm (fun () ->
        results.(i) <- Some outcome;
        (match outcome with
        | Ok a when definitive a.a_stat.Session.outcome && !winner = None ->
          winner := Some i;
          cancel_at := Pool.wall ();
          racer_event "racer_win" ~slot:i;
          (* cancel from inside the winning job: lower cancellation latency
             than waiting for the coordinator to wake up *)
          Array.iteri (fun j sl -> if j <> i then Pool.Token.cancel sl.s_token) slots
        | Ok a ->
          if
            Pool.Token.cancelled slots.(i).s_token
            && not (definitive a.a_stat.Session.outcome)
          then racer_event "racer_cancel" ~slot:i
        | Error _ -> ());
        incr settled;
        Condition.broadcast ccv)
  in
  Array.iteri (fun i _ -> ignore (Pool.submit ~affinity:i ~label:"race" race.r_pool (job i)))
    slots;
  Mutex.lock cm;
  while !settled < n do
    Condition.wait ccv cm
  done;
  Mutex.unlock cm;
  let wall = Pool.wall () -. t0 in
  (* every racer has settled: surface any racer exception first *)
  let attempts =
    Array.map
      (function
        | Some (Ok a) -> a
        | Some (Error e) -> raise e
        | None -> assert false)
      results
  in
  let cancelled = ref 0 in
  let max_latency = ref 0.0 in
  let folded_core_vars = ref None in
  (* The winner's name is read before rotation reconfigures any slot. *)
  let winner_name = Option.map (fun w -> slots.(w).s_name) !winner in
  (match !winner with
  | None -> ()
  | Some w ->
    let name = slots.(w).s_name in
    Hashtbl.replace race.r_wins name
      (1 + Option.value (Hashtbl.find_opt race.r_wins name) ~default:0);
    Array.iteri
      (fun j a ->
        if j <> w && Pool.Token.cancelled slots.(j).s_token
           && not (definitive a.a_stat.Session.outcome)
        then begin
          incr cancelled;
          let lat = Float.max 0.0 (a.a_finished -. !cancel_at) in
          if lat > !max_latency then max_latency := lat;
          if Telemetry.enabled tel then
            Telemetry.span_event tel "cancel_latency" ~dur:lat
              [
                ("depth", Telemetry.Sink.Int k);
                ("mode", Telemetry.Sink.Str slots.(j).s_name);
              ]
        end)
      attempts;
    (* the paper's refinement step, once per depth: only the winner's core
       reaches the shared ranking.  With sharing on, the winner's local core
       may lean on imported clauses; every racer has settled by now (the
       wait loop above is the quiescence barrier), so stitch the racers'
       proof shards and fold the winner's true cross-solver core instead of
       its local projection. *)
    let wa = attempts.(w) in
    (match wa.a_stat.Session.outcome with
    | Sat.Solver.Unsat ->
      let core_vars =
        match (race.r_share, slots.(w).s_session) with
        | Some _, Some ws ->
          let siblings sid =
            Array.fold_left
              (fun acc sl ->
                match acc with
                | Some _ -> acc
                | None -> (
                  match sl.s_session with
                  | Some s when Session.solver_id s = sid -> Some s
                  | Some _ | None -> None))
              None slots
          in
          Session.exact_core_vars ws ~siblings
        | _ -> wa.a_core_vars
      in
      folded_core_vars := Some core_vars;
      Bmc.Score.update race.r_score ~instance:k ~core_vars
    | Sat.Solver.Sat | Sat.Solver.Unknown -> ()));
  (* Capture the round's attempt labels before rotation renames slots. *)
  let attempt_list =
    Array.to_list
      (Array.mapi (fun i a -> (slots.(i).s_name, a.a_stat.Session.outcome)) attempts)
  in
  (* Restart-boundary rotation: a loser that burned through its own
     per-racer budget (rather than being cancelled early by the winner) is
     recycled onto the next untried roster entry.  Its session reference is
     dropped — the quiescence barrier above guarantees no worker holds it —
     and the replacement heuristic's session is built lazily on the same
     pinned worker at the next round. *)
  let rotated = ref 0 in
  let budget_spent sl (a : attempt) =
    (match sl.s_conflicts with
    | Some c -> a.a_stat.Session.conflicts >= c
    | None -> false)
    || match sl.s_seconds with
       | Some s -> a.a_stat.Session.time >= s
       | None -> false
  in
  Array.iteri
    (fun i a ->
      let losing = match !winner with Some w -> i <> w | None -> true in
      if
        losing
        && (not (definitive a.a_stat.Session.outcome))
        && budget_spent slots.(i) a
      then
        match race.r_rotation with
        | [] -> ()
        | next :: rest ->
          race.r_rotation <- rest;
          let sl = slots.(i) in
          let old = sl.s_name in
          sl.s_name <- next.r_name;
          sl.s_mode <- next.r_mode;
          sl.s_base <- next.r_restart_base;
          sl.s_conflicts <- next.r_conflicts;
          sl.s_seconds <- next.r_seconds;
          sl.s_session <- None;
          note_name race next.r_name;
          incr rotated;
          race.r_rotated <- race.r_rotated + 1;
          if Telemetry.enabled tel then
            Telemetry.event tel "rotate"
              [
                ("depth", Telemetry.Sink.Int k);
                ("from", Telemetry.Sink.Str old);
                ("to", Telemetry.Sink.Str next.r_name);
              ])
    attempts;
  if Telemetry.enabled tel then begin
    Telemetry.event tel "race"
      [
        ("depth", Telemetry.Sink.Int k);
        ( "winner",
          Telemetry.Sink.Str
            (match winner_name with Some n -> n | None -> "none") );
        ("wall_s", Telemetry.Sink.Float wall);
        ("cancelled", Telemetry.Sink.Int !cancelled);
        ("rotated", Telemetry.Sink.Int !rotated);
        ( "racers",
          Telemetry.Sink.Str (String.concat "," (List.map fst attempt_list)) );
      ];
    (match winner_name with
    | Some n -> Telemetry.counter tel ("race.win." ^ n) 1
    | None -> ());
    if !cancelled > 0 then Telemetry.counter tel "race.cancelled" !cancelled
  end;
  let best = match !winner with Some w -> attempts.(w) | None -> attempts.(0) in
  {
    depth = k;
    winner = winner_name;
    stat = best.a_stat;
    core_vars =
      (match !folded_core_vars with Some v -> v | None -> best.a_core_vars);
    attempts = attempt_list;
    wall;
    cancelled = !cancelled;
    max_cancel_latency = !max_latency;
    rotated = !rotated;
    trace = best.a_trace;
  }

(* Sessions publish per-instance share deltas (exported / imported /
   rejected_tainted) themselves; the stale-drop count only exists at the
   exchange, so the coordinator flushes it once a run is over. *)
let emit_share_drops tel = function
  | None -> ()
  | Some ex ->
    if Telemetry.enabled tel then
      List.iter
        (fun (name, v) -> if name = "dropped_stale" && v > 0 then
            Telemetry.counter tel ("share." ^ name) v)
        (Share.Exchange.stats_fields (Share.Exchange.stats ex))

type result = {
  verdict : Session.verdict;
  per_depth : race_stat list;
  total_wall : float;
  wins : (string * int) list;
  rotated : int;
}

let race_wins race =
  List.rev_map
    (fun n -> (n, Option.value (Hashtbl.find_opt race.r_wins n) ~default:0))
    race.r_names

let race_rotated race = race.r_rotated

let check_race ?(config = Session.default_config) ?racers ?rotation ?share ~pool netlist
    ~property =
  let race = create_race ?racers ?rotation ?share ~pool config netlist ~property in
  let per_depth = ref [] in
  let t0 = Pool.wall () in
  let finish verdict =
    emit_share_drops config.Session.telemetry race.r_share;
    {
      verdict;
      per_depth = List.rev !per_depth;
      total_wall = Pool.wall () -. t0;
      wins = race_wins race;
      rotated = race.r_rotated;
    }
  in
  let rec loop k =
    if k > config.Session.max_depth then finish (Session.Bounded_pass config.Session.max_depth)
    else begin
      let rs = race_depth race ~k in
      per_depth := rs :: !per_depth;
      match rs.winner with
      | None -> finish (Session.Aborted k)
      | Some _ -> (
        match rs.stat.Session.outcome with
        | Sat.Solver.Sat ->
          let tr = match rs.trace with Some t -> t | None -> assert false in
          if not (Bmc.Trace.replay tr netlist ~property) then
            failwith
              (Printf.sprintf
                 "Portfolio.check_race: counterexample at depth %d failed to replay \
                  (internal error)"
                 k);
          finish (Session.Falsified tr)
        | Sat.Solver.Unsat -> loop (k + 1)
        | Sat.Solver.Unknown -> assert false)
    end
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Mode B: property batches.                                           *)
(* ------------------------------------------------------------------ *)

(* Clause exchange is sound only between sessions unrolling structurally
   identical circuits (packed keys are (node, frame) pairs, and equal
   digests guarantee identical node numbering), so group the batch by
   structural digest — two separately parsed copies of one circuit land in
   the same group, where the old physical ([==]) grouping kept them
   apart. *)
let batch_share_groups items =
  let order = ref [] in
  let groups : (string, string list ref) Hashtbl.t = Hashtbl.create 7 in
  List.iter
    (fun (name, netlist, _) ->
      let d = Circuit.Netlist.digest netlist in
      match Hashtbl.find_opt groups d with
      | Some members -> members := name :: !members
      | None ->
        Hashtbl.add groups d (ref [ name ]);
        order := d :: !order)
    items;
  List.rev_map
    (fun d -> (d, List.rev !(Hashtbl.find groups d)))
    !order
  |> List.filter (fun (_, members) -> List.length members >= 2)

let check_batch ?(config = Session.default_config) ?(policy = Session.Persistent)
    ?(share = false) ~pool items =
  let tel = config.Session.telemetry in
  (* One exchange per digest group of two or more properties.  Fresh-policy
     batches never share (Session.create would reject the combination). *)
  let exchanges =
    if not (share && policy = Session.Persistent) then []
    else
      List.map (fun (d, _) -> (d, Share.Exchange.create ())) (batch_share_groups items)
  in
  Pool.map_list ~label:"batch" pool
    (fun (name, netlist, property) ->
      let t0 = Pool.wall () in
      (* endpoint created inside whichever worker stole the job, and
         confined to it *)
      let share =
        Option.map
          (fun ex -> Share.Exchange.endpoint ex ~name)
          (List.assoc_opt (Circuit.Netlist.digest netlist) exchanges)
      in
      let r = Session.check ~config ?share ~policy netlist ~property in
      if Telemetry.enabled tel then
        Telemetry.span_event tel "batch_item" ~dur:(Pool.wall () -. t0)
          [ ("name", Telemetry.Sink.Str name) ];
      (name, r))
    items
  |> fun results ->
  List.iter (fun (_, ex) -> emit_share_drops tel (Some ex)) exchanges;
  results
