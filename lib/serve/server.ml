module Pool = Portfolio.Pool
module Session = Bmc.Session
module Json = Obs.Json

type config = {
  sv_jobs : int;
  sv_cache_bytes : int;
  sv_max_pending : int;
  sv_mode : Session.mode;
  sv_depth_cap : int;
  sv_max_conflicts : int option;
  sv_telemetry : Telemetry.t;
  sv_ledger : (Json.t -> unit) option;
}

let make_config ?(jobs = 1) ?(cache_bytes = 64 * 1024 * 1024) ?(max_pending = 64)
    ?(mode = Session.Dynamic) ?(depth_cap = 64) ?max_conflicts
    ?(telemetry = Telemetry.disabled) ?ledger () =
  {
    sv_jobs = jobs;
    sv_cache_bytes = cache_bytes;
    sv_max_pending = max_pending;
    sv_mode = mode;
    sv_depth_cap = depth_cap;
    sv_max_conflicts = max_conflicts;
    sv_telemetry = telemetry;
    sv_ledger = ledger;
  }

(* One admitted request: what submit knew at arrival. *)
type pending = {
  p_req : Protocol.request;
  p_respond : Protocol.response -> unit;
  p_arrived : float;  (* Telemetry.wall at admission *)
}

(* What a solve job hands back to the front end. *)
type job_result = {
  j_verdict : Protocol.verdict_summary;
  j_solved : int;
  j_decisions : int;
  j_conflicts : int;
  j_core : Sat.Lit.var list;  (* final depth's unsat core, [] unless Pass *)
  j_next_k : int;  (* depths 0..j_next_k-1 now proven UNSAT *)
  j_falsified : (int * Json.t) option;
  j_bytes : int;  (* resident arena bytes after the job *)
  j_invalidate : bool;  (* aborted: the session cannot be resumed *)
}

type completion = {
  c_entry : pending Cache.entry;
  c_pending : pending;
  c_class : Protocol.cache_class;
  c_dispatched : float;
  c_result : (job_result, string) result;
}

type stats = {
  st_answered : int;
  st_hits : int;
  st_warm : int;
  st_misses : int;
  st_shed : int;
  st_errors : int;
  st_evicted : int;
  st_entries : int;
  st_bytes : int;
}

type t = {
  cfg : config;
  pool : Pool.t;
  cache : pending Cache.t;
  created : float;
  on_wake : unit -> unit;
  cq : completion Queue.t;
  cm : Mutex.t;
  cc : Condition.t;
  mutable is_draining : bool;
  mutable inflight : int;  (* admitted, not yet answered *)
  mutable n_answered : int;
  mutable n_hits : int;
  mutable n_warm : int;
  mutable n_misses : int;
  mutable n_shed : int;
  mutable n_errors : int;
  mutable n_evicted : int;
}

let create ?(on_wake = fun () -> ()) cfg =
  {
    cfg;
    pool = Pool.create ~telemetry:cfg.sv_telemetry ~jobs:cfg.sv_jobs ();
    cache = Cache.create ~max_bytes:cfg.sv_cache_bytes ~jobs:cfg.sv_jobs ();
    created = Telemetry.wall ();
    on_wake;
    cq = Queue.create ();
    cm = Mutex.create ();
    cc = Condition.create ();
    is_draining = false;
    inflight = 0;
    n_answered = 0;
    n_hits = 0;
    n_warm = 0;
    n_misses = 0;
    n_shed = 0;
    n_errors = 0;
    n_evicted = 0;
  }

let pending t = t.inflight

let draining t = t.is_draining

(* ------------------------------------------------------------------ *)
(* Answering                                                           *)
(* ------------------------------------------------------------------ *)

let reply_status = function
  | Protocol.Answer _ -> "ok"
  | Protocol.Shed -> "shed"
  | Protocol.Draining -> "draining"
  | Protocol.Bad_request _ -> "error"

(* Issue the one response of an admitted (or refused) request: build the
   latency fields, stream the ledger line and telemetry, bump counters,
   then hand the response to the requester's callback.  Front-end only. *)
let answer t ~digest ~dispatched p reply =
  let now = Telemetry.wall () in
  let resp =
    {
      Protocol.rs_id = p.p_req.Protocol.rq_id;
      rs_reply = reply;
      rs_queue_ms = Float.max 0.0 ((dispatched -. p.p_arrived) *. 1000.0);
      rs_wall_ms = Float.max 0.0 ((now -. p.p_arrived) *. 1000.0);
    }
  in
  (match reply with
  | Protocol.Answer b -> (
    t.n_answered <- t.n_answered + 1;
    match b.Protocol.rs_cache with
    | Protocol.Hit -> t.n_hits <- t.n_hits + 1
    | Protocol.Warm -> t.n_warm <- t.n_warm + 1
    | Protocol.Miss -> t.n_misses <- t.n_misses + 1)
  | Protocol.Shed -> t.n_shed <- t.n_shed + 1
  | Protocol.Draining -> ()
  | Protocol.Bad_request _ -> t.n_errors <- t.n_errors + 1);
  (match t.cfg.sv_ledger with
  | Some sink ->
    sink (Protocol.ledger_line ~digest ~t_ms:((now -. t.created) *. 1000.0) p.p_req resp)
  | None -> ());
  let tel = t.cfg.sv_telemetry in
  if Telemetry.enabled tel then begin
    Telemetry.span_event tel "serve.request" ~dur:(resp.Protocol.rs_wall_ms /. 1000.0)
      [
        ("status", Telemetry.Sink.Str (reply_status reply));
        ( "cache",
          Telemetry.Sink.Str
            (match reply with
            | Protocol.Answer b -> Protocol.cache_class_string b.Protocol.rs_cache
            | _ -> "-") );
        ("depth", Telemetry.Sink.Int p.p_req.Protocol.rq_depth);
      ];
    match reply with
    | Protocol.Answer b ->
      Telemetry.counter tel
        ("serve." ^ Protocol.cache_class_string b.Protocol.rs_cache)
        1
    | Protocol.Shed -> Telemetry.counter tel "serve.shed" 1
    | Protocol.Draining | Protocol.Bad_request _ -> ()
  end;
  p.p_respond resp

(* ------------------------------------------------------------------ *)
(* The solve job (runs on the entry's pinned pool worker)              *)
(* ------------------------------------------------------------------ *)

let entry_session t (e : pending Cache.entry) =
  match e.Cache.ce_session with
  | Some s -> s
  | None ->
    let deadline = e.Cache.ce_deadline in
    let stop () = Telemetry.wall () > !deadline in
    let budget =
      {
        Sat.Solver.max_conflicts = t.cfg.sv_max_conflicts;
        max_propagations = None;
        max_seconds = None;
        stop = Some stop;
      }
    in
    let cfg =
      Session.make_config ~mode:e.Cache.ce_mode ~budget ~max_depth:t.cfg.sv_depth_cap
        ~collect_cores:true ~telemetry:t.cfg.sv_telemetry ()
    in
    let s = Session.create cfg e.Cache.ce_netlist ~property:e.Cache.ce_property in
    e.Cache.ce_session <- Some s;
    s

let run_job t (e : pending Cache.entry) p =
  let rq = p.p_req in
  try
    let s = entry_session t e in
    let solved = ref 0 in
    let decisions = ref 0 in
    let conflicts = ref 0 in
    let rec loop k =
      if k > rq.Protocol.rq_depth then `Pass
      else begin
        let st = Session.solve_depth s ~k in
        incr solved;
        decisions := !decisions + st.Session.decisions;
        conflicts := !conflicts + st.Session.conflicts;
        match st.Session.outcome with
        | Sat.Solver.Sat ->
          let tr = Session.trace s in
          if not (Bmc.Trace.replay tr e.Cache.ce_netlist ~property:e.Cache.ce_property)
          then
            failwith
              (Printf.sprintf
                 "serve: counterexample at depth %d failed to replay (internal error)" k)
          else `Sat (k, tr)
        | Sat.Solver.Unsat -> loop (k + 1)
        | Sat.Solver.Unknown -> `Abort k
      end
    in
    let out = loop e.Cache.ce_next_k in
    let bytes = (Session.solver_stats s).Sat.Stats.arena_bytes in
    let mk verdict ~core ~next_k ~falsified ~invalidate =
      Ok
        {
          j_verdict = verdict;
          j_solved = !solved;
          j_decisions = !decisions;
          j_conflicts = !conflicts;
          j_core = core;
          j_next_k = next_k;
          j_falsified = falsified;
          j_bytes = bytes;
          j_invalidate = invalidate;
        }
    in
    match out with
    | `Pass ->
      mk
        (Protocol.Bounded_pass rq.Protocol.rq_depth)
        ~core:(Session.last_core_vars s) ~next_k:(rq.Protocol.rq_depth + 1)
        ~falsified:None ~invalidate:false
    | `Sat (k, tr) ->
      let tj = Protocol.trace_to_json e.Cache.ce_netlist tr in
      mk
        (Protocol.Falsified (k, tj))
        ~core:[] ~next_k:k
        ~falsified:(Some (k, tj))
        ~invalidate:false
    | `Abort k ->
      mk (Protocol.Aborted k) ~core:[] ~next_k:e.Cache.ce_next_k ~falsified:None
        ~invalidate:true
  with ex -> Error (Printexc.to_string ex)

(* ------------------------------------------------------------------ *)
(* Dispatch (front-end thread)                                         *)
(* ------------------------------------------------------------------ *)

(* Can the entry answer this depth budget without solving anything? *)
let memo_reply (e : pending Cache.entry) rq =
  let budget = rq.Protocol.rq_depth in
  let bounded () =
    (* the memoised core belongs to the deepest proven depth; shallower
       budgets get the verdict without a core *)
    let core =
      if rq.Protocol.rq_stats && budget = e.Cache.ce_next_k - 1 then e.Cache.ce_core
      else []
    in
    Some
      (Protocol.Answer
         {
           rs_verdict = Protocol.Bounded_pass budget;
           rs_cache = Protocol.Hit;
           rs_solved = 0;
           rs_decisions = 0;
           rs_conflicts = 0;
           rs_core = core;
         })
  in
  match e.Cache.ce_falsified with
  | Some (d, tj) ->
    if budget >= d then
      Some
        (Protocol.Answer
           {
             rs_verdict = Protocol.Falsified (d, tj);
             rs_cache = Protocol.Hit;
             rs_solved = 0;
             rs_decisions = 0;
             rs_conflicts = 0;
             rs_core = [];
           })
    else bounded ()
  | None -> if e.Cache.ce_next_k > budget then bounded () else None

let dispatch t (e : pending Cache.entry) p =
  e.Cache.ce_busy <- true;
  e.Cache.ce_deadline :=
    (match p.p_req.Protocol.rq_deadline_ms with
    | Some ms -> Telemetry.wall () +. (ms /. 1000.0)
    | None -> infinity);
  let cls =
    if e.Cache.ce_session = None then Protocol.Miss else Protocol.Warm
  in
  let dispatched = Telemetry.wall () in
  ignore
    (Pool.submit ~affinity:e.Cache.ce_affinity ~label:"serve" t.pool (fun () ->
         let result = run_job t e p in
         Mutex.protect t.cm (fun () ->
             Queue.push
               {
                 c_entry = e;
                 c_pending = p;
                 c_class = cls;
                 c_dispatched = dispatched;
                 c_result = result;
               }
               t.cq;
             Condition.broadcast t.cc);
         t.on_wake ()))

(* Answer from the memo, or dispatch a job.  The entry must be idle. *)
let attempt t (e : pending Cache.entry) p =
  match memo_reply e p.p_req with
  | Some reply ->
    t.inflight <- t.inflight - 1;
    answer t ~digest:e.Cache.ce_digest ~dispatched:p.p_arrived p reply
  | None -> dispatch t e p

let resolve t rq =
  match
    (match rq.Protocol.rq_src with
    | Protocol.Builtin name -> (
      match Circuit.Generators.by_name name with
      | Some c -> Ok (c.Circuit.Generators.netlist, c.Circuit.Generators.property)
      | None -> Error (Printf.sprintf "unknown builtin circuit %S" name))
    | Protocol.Inline text -> (
      try Ok (Circuit.Textio.parse_string text)
      with Circuit.Textio.Parse_error msg -> Error ("circuit parse error: " ^ msg)))
  with
  | Error _ as e -> e
  | Ok (netlist, property) -> (
    if rq.Protocol.rq_depth > t.cfg.sv_depth_cap then
      Error
        (Printf.sprintf "depth %d exceeds the server cap %d" rq.Protocol.rq_depth
           t.cfg.sv_depth_cap)
    else
      match Circuit.Netlist.validate netlist with
      | Error msg -> Error ("invalid circuit: " ^ msg)
      | Ok () -> Ok (netlist, property))

let submit t ~respond rq =
  let p = { p_req = rq; p_respond = respond; p_arrived = Telemetry.wall () } in
  if t.is_draining then answer t ~digest:"" ~dispatched:p.p_arrived p Protocol.Draining
  else if t.inflight >= t.cfg.sv_max_pending then
    answer t ~digest:"" ~dispatched:p.p_arrived p Protocol.Shed
  else
    match resolve t rq with
    | Error msg ->
      answer t ~digest:"" ~dispatched:p.p_arrived p (Protocol.Bad_request msg)
    | Ok (netlist, property) ->
      let digest = Circuit.Netlist.digest netlist in
      let mode = Option.value ~default:t.cfg.sv_mode rq.Protocol.rq_mode in
      let key =
        Printf.sprintf "%s#%d#%s" digest property (Session.mode_string mode)
      in
      t.inflight <- t.inflight + 1;
      (match Cache.find t.cache key with
      | Some e ->
        if e.Cache.ce_busy then e.Cache.ce_waiting <- p :: e.Cache.ce_waiting
        else attempt t e p
      | None ->
        let e = Cache.add t.cache ~key ~digest ~netlist ~property ~mode in
        attempt t e p)

(* ------------------------------------------------------------------ *)
(* Completions (front-end thread)                                      *)
(* ------------------------------------------------------------------ *)

let apply_completion t c =
  let e = c.c_entry in
  let p = c.c_pending in
  e.Cache.ce_busy <- false;
  let reply =
    match c.c_result with
    | Ok r ->
      if r.j_invalidate then Cache.invalidate e
      else begin
        e.Cache.ce_next_k <- max e.Cache.ce_next_k r.j_next_k;
        (match r.j_falsified with
        | Some f -> e.Cache.ce_falsified <- Some f
        | None -> ());
        if r.j_core <> [] then e.Cache.ce_core <- r.j_core;
        e.Cache.ce_bytes <- r.j_bytes
      end;
      Protocol.Answer
        {
          rs_verdict = r.j_verdict;
          rs_cache = c.c_class;
          rs_solved = r.j_solved;
          rs_decisions = r.j_decisions;
          rs_conflicts = r.j_conflicts;
          rs_core = (if p.p_req.Protocol.rq_stats then r.j_core else []);
        }
    | Error msg ->
      (* the session's state after an exception is unknown: rebuild cold *)
      Cache.invalidate e;
      Protocol.Bad_request msg
  in
  t.inflight <- t.inflight - 1;
  answer t ~digest:e.Cache.ce_digest ~dispatched:c.c_dispatched p reply;
  (* wake the entry's waiters: memo-answer as many as possible, dispatch
     at most one (the entry's solves serialise on its pinned worker) *)
  let rec pump () =
    if (not e.Cache.ce_busy) && e.Cache.ce_waiting <> [] then begin
      match List.rev e.Cache.ce_waiting with
      | [] -> ()
      | oldest :: rest ->
        e.Cache.ce_waiting <- List.rev rest;
        attempt t e oldest;
        pump ()
    end
  in
  pump ()

let process t =
  let batch =
    Mutex.protect t.cm (fun () ->
        let xs = List.of_seq (Queue.to_seq t.cq) in
        Queue.clear t.cq;
        xs)
  in
  List.iter (apply_completion t) batch;
  if batch <> [] then begin
    let dropped = Cache.evict t.cache in
    let n = List.length dropped in
    if n > 0 then begin
      t.n_evicted <- t.n_evicted + n;
      if Telemetry.enabled t.cfg.sv_telemetry then
        Telemetry.counter t.cfg.sv_telemetry "serve.evicted" n
    end
  end

let wait t =
  Mutex.lock t.cm;
  while Queue.is_empty t.cq && t.inflight > 0 do
    Condition.wait t.cc t.cm
  done;
  Mutex.unlock t.cm

let begin_drain t = t.is_draining <- true

let drain t =
  begin_drain t;
  while t.inflight > 0 do
    wait t;
    process t
  done

let shutdown t =
  drain t;
  Pool.shutdown t.pool

let check_now t rq =
  let out = ref None in
  submit t ~respond:(fun r -> out := Some r) rq;
  while !out = None do
    wait t;
    process t
  done;
  Option.get !out

let stats t =
  {
    st_answered = t.n_answered;
    st_hits = t.n_hits;
    st_warm = t.n_warm;
    st_misses = t.n_misses;
    st_shed = t.n_shed;
    st_errors = t.n_errors;
    st_evicted = t.n_evicted;
    st_entries = Cache.size t.cache;
    st_bytes = Cache.resident_bytes t.cache;
  }
