module Pool = Pool
module Session = Bmc.Session

(* ------------------------------------------------------------------ *)
(* Mode A: strategy races.                                             *)
(* ------------------------------------------------------------------ *)

type racer = {
  r_name : string;
  r_mode : Session.mode;
  r_restart_base : int option;
}

let racer ?restart_base ~name mode =
  { r_name = name; r_mode = mode; r_restart_base = restart_base }

(* Distinct Luby units diversify the racers' restart schedules — and
   therefore which clauses each learns. *)
let default_racers =
  [
    racer ~name:"standard" ~restart_base:64 Session.Standard;
    racer ~name:"static" ~restart_base:100 Session.Static;
    racer ~name:"dynamic" ~restart_base:150 Session.Dynamic;
  ]

type slot = {
  s_racer : racer;
  s_token : Pool.Token.t;
  (* The racer's persistent session.  Forced by the first job that runs on
     the slot's pinned worker and only ever touched there — the
     coordinator must never force it (Session's ownership rule). *)
  s_session : Session.t Lazy.t;
}

type race = {
  r_pool : Pool.t;
  r_tel : Telemetry.t;
  r_slots : slot array;
  r_score : Bmc.Score.t;
  (* Win tallies keyed by racer name, in roster order (a name two racers
     share is tallied once). *)
  r_wins : (string * int ref) list;
  mutable r_last_k : int;
}

(* The racer's session config: its own ordering and restart unit, and the
   run-wide budget with the slot's token as an extra stop hook. *)
let racer_config cfg r token =
  let base = cfg.Session.budget in
  let token_stop = Pool.Token.stop_hook token in
  let stop =
    match base.Sat.Solver.stop with
    | None -> token_stop
    | Some f -> fun () -> token_stop () || f ()
  in
  {
    cfg with
    Session.mode = r.r_mode;
    budget = { base with Sat.Solver.stop = Some stop };
    restart_base =
      (match r.r_restart_base with
      | Some _ as b -> b
      | None -> cfg.Session.restart_base);
  }

let create_race ?(racers = default_racers) ~pool cfg netlist ~property =
  if racers = [] then invalid_arg "Portfolio.create_race: no racers";
  (* validate the netlist in the coordinator, where the error is useful,
     rather than inside a worker job *)
  (match Circuit.Netlist.validate netlist with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Portfolio.create_race: " ^ msg));
  let cfg = { cfg with Session.collect_cores = true } in
  let score = Bmc.Score.create ~weighting:cfg.Session.weighting () in
  let slot r =
    let token = Pool.Token.create () in
    {
      s_racer = r;
      s_token = token;
      (* [fold_cores:false]: racers extract cores but never write the
         shared score — the coordinator folds exactly one core (the
         winner's) per depth, between rounds. *)
      s_session =
        lazy
          (Session.create ~score ~fold_cores:false (racer_config cfg r token) netlist
             ~property);
    }
  in
  let wins =
    List.fold_left
      (fun acc r -> if List.mem_assoc r.r_name acc then acc else (r.r_name, ref 0) :: acc)
      [] racers
  in
  {
    r_pool = pool;
    r_tel = cfg.Session.telemetry;
    r_slots = Array.of_list (List.map slot racers);
    r_score = score;
    r_wins = List.rev wins;
    r_last_k = -1;
  }

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
  let tel = race.r_tel in
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
        let s = Lazy.force slots.(i).s_session in
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
  let name i = slots.(i).s_racer.r_name in
  let winner_name = Option.map name !winner in
  (match !winner with
  | None -> ()
  | Some w ->
    incr (List.assoc (name w) race.r_wins);
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
              [ ("depth", Telemetry.Sink.Int k); ("mode", Telemetry.Sink.Str (name j)) ]
        end)
      attempts;
    (* the paper's refinement step, once per depth: only the winner's core
       reaches the shared ranking *)
    let wa = attempts.(w) in
    (match wa.a_stat.Session.outcome with
    | Sat.Solver.Unsat -> Bmc.Score.update race.r_score ~instance:k ~core_vars:wa.a_core_vars
    | Sat.Solver.Sat | Sat.Solver.Unknown -> ()));
  let attempt_list =
    Array.to_list (Array.mapi (fun i a -> (name i, a.a_stat.Session.outcome)) attempts)
  in
  if Telemetry.enabled tel then begin
    Telemetry.event tel "race"
      [
        ("depth", Telemetry.Sink.Int k);
        ( "winner",
          Telemetry.Sink.Str
            (match winner_name with Some n -> n | None -> "none") );
        ("wall_s", Telemetry.Sink.Float wall);
        ("cancelled", Telemetry.Sink.Int !cancelled);
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
    core_vars = best.a_core_vars;
    attempts = attempt_list;
    wall;
    cancelled = !cancelled;
    max_cancel_latency = !max_latency;
    trace = best.a_trace;
  }

type result = {
  verdict : Session.verdict;
  per_depth : race_stat list;
  total_wall : float;
  wins : (string * int) list;
}

let check_race ?(config = Session.default_config) ?racers ~pool netlist ~property =
  let race = create_race ?racers ~pool config netlist ~property in
  let per_depth = ref [] in
  let t0 = Pool.wall () in
  let finish verdict =
    {
      verdict;
      per_depth = List.rev !per_depth;
      total_wall = Pool.wall () -. t0;
      wins = List.map (fun (n, c) -> (n, !c)) race.r_wins;
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

let check_batch ?(config = Session.default_config) ?(policy = Session.Persistent) ~pool items =
  let tel = config.Session.telemetry in
  Pool.map_list ~label:"batch" pool
    (fun (name, netlist, property, max_depth) ->
      let t0 = Pool.wall () in
      let r =
        Session.check ~config:{ config with Session.max_depth } ~policy netlist ~property
      in
      if Telemetry.enabled tel then
        Telemetry.span_event tel "batch_item" ~dur:(Pool.wall () -. t0)
          [ ("property", Telemetry.Sink.Str name) ];
      (name, r))
    items
