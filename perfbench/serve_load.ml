(* The [serve] workload: one process drives an in-process {!Serve.Server}
   exactly as [bmcserve]'s front end does — JSONL lines decoded with
   {!Serve.Protocol.request_of_line}, {!Serve.Server.submit}, a self-pipe
   [on_wake] that interrupts a [select], {!Serve.Server.process} to apply
   completions, and every answer encoded with
   {!Serve.Protocol.response_line}.  One worker domain plus this front end
   make two domains, one per core of a 2-core machine.

   A {e phase} is one pass of the seeded request mix on a freshly created
   server, so every phase sees the same cold-to-warm cache history.  It is
   driven either as a closed loop (one caller that sends the next line
   only once the previous one is answered) or as an open loop at a fixed
   offered rate (lines sent when due, whatever the server is doing). *)

module P = Serve.Protocol
module S = Serve.Server

let now = Clock.now

(* Small enough that the mix's distinct circuits do not all fit, so old
   circuits are evicted and come back as misses: on the full mix a phase
   evicts about 55 entries and about 27 of its requests miss on a circuit
   asked for earlier (the traced run prints both). *)
let cache_bytes = 1 lsl 20

let server_config () = S.make_config ~jobs:1 ~cache_bytes ~max_pending:1_000_000 ()

type schedule =
  | Closed
  | Open of float  (** offered requests per second *)

type phase = {
  samples : Openloop.sample array;
  responses : P.response option array;
  create_s : float;  (** [Server.create], which spawns the worker domain *)
  wall_s : float;  (** first send to last answer *)
  alloc_b : float;  (** allocation over the phase, front end and worker domain *)
  front_b : float;  (** the front end's share of [alloc_b] *)
  stats : S.stats;
}

(* The self-pipe: worker domains write a byte, the front end's [select]
   wakes up. *)
let make_pipe () =
  let rd, wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock rd;
  Unix.set_nonblock wr;
  (rd, wr)

let wake wr () =
  try ignore (Unix.single_write wr (Bytes.make 1 '!') 0 1) with Unix.Unix_error _ -> ()

(* Bytes allocated by every domain of the process.  Other domains' counts
   are sampled at their minor collections and are exact once they have
   terminated, so a delta that ends after [Server.shutdown] is exact. *)
let process_alloc_bytes () =
  let st = Gc.quick_stat () in
  (st.Gc.minor_words +. st.Gc.major_words -. st.Gc.promoted_words) *. float_of_int (Sys.word_size / 8)

let wait_on rd timeout =
  match Unix.select [ rd ] [] [] timeout with
  | [], _, _ -> ()
  | _ ->
    let b = Bytes.create 64 in
    (try
       while Unix.read rd b 0 64 > 0 do
         ()
       done
     with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let run_phase ?tracer schedule (mix : Gen.mix) =
  let span ?req name f = match tracer with Some tr -> Tracer.span tr ?req name f | None -> f () in
  let rd, wr = make_pipe () in
  let c0 = now () in
  let srv = S.create ~on_wake:(wake wr) (server_config ()) in
  let create_s = now () -. c0 in
  let n = Array.length mix.Gen.requests in
  let sent = Array.make n 0.0 and answered_at = Array.make n 0.0 in
  let responses = Array.make n None in
  let answered = ref 0 and next = ref 0 in
  let respond i r =
    answered_at.(i) <- now ();
    ignore (span ~req:i "protocol.encode" (fun () -> P.response_line r));
    responses.(i) <- Some r;
    incr answered
  in
  let a0 = process_alloc_bytes () and f0 = Gc.allocated_bytes () in
  let start = now () in
  (* a closed loop's request is due when it is sent *)
  let due = match schedule with Open rate -> Openloop.due_times ~start ~rate n | Closed -> Array.make n 0.0 in
  while !answered < n do
    let ready =
      !next < n
      && match schedule with Closed -> !next = !answered | Open _ -> due.(!next) <= now ()
    in
    if ready then begin
      let i = !next in
      incr next;
      let t = now () in
      sent.(i) <- t;
      if schedule = Closed then due.(i) <- t;
      match span ~req:i "protocol.decode" (fun () -> P.request_of_line mix.Gen.requests.(i).Gen.r_line) with
      | Ok rq -> span ~req:i "serve.submit" (fun () -> S.submit srv ~respond:(respond i) rq)
      | Error msg -> failwith ("perfbench: generated request does not decode: " ^ msg)
    end
    else begin
      let timeout =
        match schedule with
        | Open _ when !next < n -> Float.max 0.0 (due.(!next) -. now ())
        | Open _ | Closed -> -1.0
      in
      span "serve.wait" (fun () -> wait_on rd timeout);
      span "serve.process" (fun () -> S.process srv)
    end
  done;
  let wall_s = now () -. start in
  let front_b = Gc.allocated_bytes () -. f0 in
  let stats = S.stats srv in
  S.shutdown srv;
  let alloc_b = process_alloc_bytes () -. a0 in
  Unix.close rd;
  Unix.close wr;
  let samples =
    Array.init n (fun i -> { Openloop.due = due.(i); sent = sent.(i); answered = answered_at.(i) })
  in
  { samples; responses; create_s; wall_s; alloc_b; front_b; stats }

(* ------------------------------------------------------------------ *)
(* Correctness                                                          *)
(* ------------------------------------------------------------------ *)

(* Rebuild a counterexample from its wire form against our own parse of
   the circuit text, then replay it. *)
let trace_of_json nl (j : Obs.Json.t) =
  let node name =
    if String.length name > 1 && name.[0] = '#' then
      int_of_string (String.sub name 1 (String.length name - 1))
    else
      match Circuit.Netlist.find nl name with
      | Some n -> n
      | None -> failwith ("trace names unknown node " ^ name)
  in
  let pairs j =
    List.map
      (fun p ->
        match Obs.Json.to_list p with
        | Some [ Obs.Json.Str name; Obs.Json.Bool b ] -> (node name, b)
        | _ -> failwith "malformed trace entry")
      (Option.value ~default:[] (Obs.Json.to_list j))
  in
  {
    Bmc.Trace.depth = Obs.Json.get_int j "depth";
    init_regs = pairs (Option.value ~default:(Obs.Json.List []) (Obs.Json.member "init" j));
    inputs = Array.of_list (List.map pairs (Obs.Json.get_list j "frames"));
  }

(* Judge one phase's answers, counting shed, refused, errored and aborted
   requests in [failed] and wrong verdicts in [wrong]. *)
let judge (mix : Gen.mix) ph ~failed ~wrong =
  let parsed = Hashtbl.create 16 in
  let circuit c =
    match Hashtbl.find_opt parsed c with
    | Some x -> x
    | None ->
      let x = Circuit.Textio.parse_string mix.Gen.circuits.(c).Gen.text in
      Hashtbl.replace parsed c x;
      x
  in
  Array.iteri
    (fun i r ->
      let rq = mix.Gen.requests.(i) in
      let item = mix.Gen.circuits.(rq.Gen.r_circuit) in
      let bad fmt = Printf.ksprintf (fun m -> wrong := Printf.sprintf "q%d %s: %s" i item.Gen.label m :: !wrong) fmt in
      match r with
      | None -> incr failed
      | Some { P.rs_reply = P.Answer b; _ } -> (
        match (Gen.expected_for item ~depth:rq.Gen.r_depth, b.P.rs_verdict) with
        | _, P.Aborted _ -> incr failed
        | Gen.Holds, P.Bounded_pass d when d = rq.Gen.r_depth -> ()
        | Gen.Fails_at f, P.Falsified (d, tj) when d = f ->
          let nl, prop = circuit rq.Gen.r_circuit in
          (match trace_of_json nl tj with
          | tr -> if not (Bmc.Trace.replay tr nl ~property:prop) then bad "trace does not replay"
          | exception Failure m -> bad "%s" m)
        | _, P.Bounded_pass d -> bad "bounded pass to %d" d
        | _, P.Falsified (d, _) -> bad "falsified at %d" d)
      | Some _ -> incr failed)
    ph.responses

(* Misses on a circuit the phase has asked for before: the cache held it
   once and evicted it. *)
let re_misses (mix : Gen.mix) ph =
  let seen = Hashtbl.create 64 in
  let k = ref 0 in
  Array.iteri
    (fun i r ->
      let c = mix.Gen.requests.(i).Gen.r_circuit in
      (match r with
      | Some { P.rs_reply = P.Answer b; _ } when b.P.rs_cache = P.Miss && Hashtbl.mem seen c -> incr k
      | _ -> ());
      Hashtbl.replace seen c ())
    ph.responses;
  !k

(* ------------------------------------------------------------------ *)
(* The workload runner                                                  *)
(* ------------------------------------------------------------------ *)

(* Offered rates of the open-loop ladder, requests per second.  [low] and
   [high] are two fixed rungs whose latencies are reported; the ladder
   climbs past [high] only while each rung is sustained. *)
let ladder = [ 100.0; 200.0; 400.0; 800.0; 1600.0 ]

let low_rate = 100.0

let high_rate = 400.0

(* The p95 latency limit a rung must meet, and its backlog must drain in. *)
let limit_ms = 250.0

(* Share of [--seconds] spent in the closed loop; one pass of the ladder
   over the 400-request mix takes roughly the rest of a 30 s run. *)
let closed_share = 0.7

let class_frac phases cls =
  let all = List.concat_map (fun p -> Array.to_list p.responses) phases in
  let n = List.length all in
  let k =
    List.length
      (List.filter
         (function Some { P.rs_reply = P.Answer b; _ } -> b.P.rs_cache = cls | _ -> false)
         all)
  in
  if n = 0 then 0.0 else float_of_int k /. float_of_int n

let latencies ph = Array.to_list (Array.map Openloop.latency_ms ph.samples)

let run ~seed ~seconds ~scale ~traced ?(spans_out = fun _ -> ()) () =
  let mix = Gen.serve_mix ~seed ~scale in
  let n = Array.length mix.Gen.requests in
  let start = now () in
  let elapsed () = now () -. start in
  let all_phases = ref [] and failed = ref 0 and wrong = ref [] in
  (* Each phase is judged as soon as it ends.  Only traced phases keep their
     responses (for the cache-class and queue metrics): holding every
     phase's answers would make the peak heap grow with the number of
     phases a run fits, that is with machine speed. *)
  let phase ?tracer sched =
    let p = run_phase ?tracer sched mix in
    judge mix p ~failed ~wrong;
    let p = if tracer = None then { p with responses = [||] } else p in
    all_phases := p :: !all_phases;
    p
  in
  let tr = Tracer.create () in
  (* the closed loop: untraced passes, alternating with traced ones in a
     traced run *)
  let rec closed acc_u acc_t =
    let u = phase Closed in
    let t = if traced then [ phase ~tracer:tr Closed ] else [] in
    let acc_u = u :: acc_u and acc_t = t @ acc_t in
    if elapsed () >= closed_share *. seconds then (acc_u, acc_t) else closed acc_u acc_t
  in
  let closed_u, closed_t = closed [] [] in
  (* the open-loop ladder, always untraced *)
  let rec climb acc = function
    | [] -> List.rev acc
    | rate :: rest ->
      let p = phase (Open rate) in
      let acc = (rate, p) :: acc in
      if rate < high_rate || Openloop.sustained ~limit_ms p.samples then climb acc rest else List.rev acc
  in
  let rungs = climb [] ladder in
  let rung rate = List.assoc_opt rate rungs in
  let lat_at rate p = match rung rate with Some ph -> Stats.percentile (latencies ph) p | None -> 0.0 in
  let max_rps =
    match Openloop.max_rps ~limit_ms (List.map (fun (r, p) -> (r, p.samples)) rungs) with
    | Some (_, thr) -> thr
    | None -> 0.0
  in
  let open_metrics =
    [
      Report.m "req_ms_p50.low" "ms" (lat_at low_rate 50.0);
      Report.m "req_ms_p95.low" "ms" (lat_at low_rate 95.0);
      Report.m "req_ms_p50.high" "ms" (lat_at high_rate 50.0);
      Report.m "req_ms_p95.high" "ms" (lat_at high_rate 95.0);
      Report.m "max_rps" "1/s" max_rps;
    ]
  in
  let rung_notes =
    List.map
      (fun (rate, p) ->
        Printf.sprintf
          "  open loop %6.0f/s: %d requests, p50 %.3f ms, p95 %.3f ms (%d beyond), drain %.1f ms, \
           generator late p95 %.3f ms, %s"
          rate n
          (Stats.median (latencies p))
          (Stats.percentile (latencies p) 95.0)
          (Stats.beyond ~n 95.0) (Openloop.drain_ms p.samples)
          (Stats.percentile (Array.to_list (Array.map Openloop.lateness_ms p.samples)) 95.0)
          (if Openloop.sustained ~limit_ms p.samples then "sustained" else "NOT sustained"))
      rungs
  in
  (* a traced run adds one traced open-loop pass at the high rate *)
  let open_t = if traced then [ phase ~tracer:tr (Open high_rate) ] else [] in
  let phases = !all_phases in
  let wrong = List.rev !wrong in
  let attempted = n * List.length phases in
  let setup_s = Stats.median (List.map (fun p -> p.create_s) phases) in
  let st = Gc.quick_stat () in
  if not traced then begin
    let walls = List.concat_map latencies closed_u in
    let k = List.length walls in
    let busy = List.fold_left (fun a p -> a +. p.wall_s) 0.0 closed_u in
    let alloc = List.fold_left (fun a p -> a +. p.alloc_b) 0.0 closed_u in
    {
      Report.workload = "serve";
      seed;
      attempted;
      failed = !failed;
      wrong;
      gated =
        [
          Report.m "checks_per_s" "1/s" (float_of_int k /. busy);
          Report.m "check_ms_p50" "ms" (Stats.median walls);
          Report.m "check_ms_p90" "ms" (Stats.percentile walls 90.0);
          Report.m "alloc_mb" "MB" (alloc /. float_of_int k /. 1e6);
          Report.m "peak_heap_mb" "MB" (float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
          Report.m "setup_s" "s" setup_s;
        ];
      shown = open_metrics;
      notes =
        [
          Printf.sprintf
            "closed loop, one caller: %d requests in %d passes of the %d-request mix; p90 has %d \
             samples beyond it; setup_s is the median of %d Server.create calls"
            k (List.length closed_u) n (Stats.beyond ~n:k 90.0) (List.length phases);
          Printf.sprintf "open-loop ladder (latency from due time, limit p95 and drain <= %.0f ms):" limit_ms;
        ]
        @ rung_notes;
    }
  end
  else begin
    let traced_phases = closed_t @ open_t in
    let units = n * List.length traced_phases in
    let per x = x /. float_of_int (max 1 units) in
    let spans = Tracer.spans tr in
    spans_out spans;
    let by = Tracer.by_name spans in
    let self name = match Hashtbl.find_opt by name with Some (s, _, _) -> s | None -> 0.0 in
    (* parse and digest happen inside [Server.submit]; they are measured by
       calling the same public functions on the same request texts, after
       the timed phases so the schedule is not disturbed *)
    let shadow = Tracer.create () in
    Array.iteri
      (fun i rq ->
        match P.request_of_line rq.Gen.r_line with
        | Ok { P.rq_src = P.Inline text; _ } ->
          let nl, _ = Tracer.span shadow ~req:i "circuit.parse" (fun () -> Circuit.Textio.parse_string text) in
          ignore (Tracer.span shadow ~req:i "circuit.digest" (fun () -> Circuit.Netlist.digest nl))
        | Ok _ | Error _ -> ())
      mix.Gen.requests;
    let sby = Tracer.by_name (Tracer.spans shadow) in
    let shadow_ms name =
      match Hashtbl.find_opt sby name with Some (s, _, c) -> 1000.0 *. s /. float_of_int (max 1 c) | None -> 0.0
    in
    let totals = Report.layer_totals by in
    let layer_alloc l = List.fold_left (fun acc (l', _, a) -> if l = l' then acc +. a else acc) 0.0 totals in
    let wall = List.fold_left (fun a p -> a +. p.wall_s) 0.0 traced_phases in
    let idle = self "serve.wait" in
    let attributed = List.fold_left (fun acc (_, s, _) -> acc +. s) 0.0 totals in
    let over_line, over_pct, spread_pct =
      Report.overhead_line
        ~untraced:(List.map (fun p -> p.wall_s) closed_u)
        ~traced:(List.map (fun p -> p.wall_s) closed_t)
    in
    let answers ph =
      List.filter_map (function Some r -> Some r | None -> None) (Array.to_list ph.responses)
    in
    let oresp = List.concat_map answers open_t in
    let queue = List.map (fun r -> r.P.rs_queue_ms) oresp in
    let service = List.map (fun r -> r.P.rs_wall_ms -. r.P.rs_queue_ms) oresp in
    let pct xs p = if xs = [] then 0.0 else Stats.percentile xs p in
    let late = List.concat_map (fun p -> Array.to_list (Array.map Openloop.lateness_ms p.samples)) open_t in
    let mean_stat f =
      Stats.mean (List.map (fun p -> float_of_int (f p.stats)) traced_phases)
    in
    let sum f = List.fold_left (fun a p -> a +. f p) 0.0 traced_phases in
    let alloc = sum (fun p -> p.alloc_b) and front = sum (fun p -> p.front_b) in
    let values =
      [
        ("circuit.parse_ms", shadow_ms "circuit.parse");
        ("circuit.digest_ms", shadow_ms "circuit.digest");
        ("protocol.decode_us", 1e6 *. per (self "protocol.decode"));
        ("protocol.encode_us", 1e6 *. per (self "protocol.encode"));
        ("serve.submit_ms", 1000.0 *. per (self "serve.submit"));
        ("serve.process_ms", 1000.0 *. per (self "serve.process"));
        ("cache.hit_frac", class_frac traced_phases P.Hit);
        ("cache.warm_frac", class_frac traced_phases P.Warm);
        ("cache.miss_frac", class_frac traced_phases P.Miss);
        ("cache.evicted", mean_stat (fun s -> s.S.st_evicted));
        ("cache.resident_mb", mean_stat (fun s -> s.S.st_bytes) /. 1e6);
        ("serve.queue_ms_p50", pct queue 50.0);
        ("serve.queue_ms_p95", pct queue 95.0);
        ("serve.service_ms_p50", pct service 50.0);
        ("serve.service_ms_p95", pct service 95.0);
        ("gen.late_ms_p95", pct late 95.0);
        ("serve.req_ms_p50.low", lat_at low_rate 50.0);
        ("serve.req_ms_p95.low", lat_at low_rate 95.0);
        ("serve.req_ms_p50.high", lat_at high_rate 50.0);
        ("serve.req_ms_p95.high", lat_at high_rate 95.0);
        ("serve.max_rps", max_rps);
        ("bmc.alloc_mb", per (alloc -. front) /. 1e6);
        ("serve.alloc_mb", per (layer_alloc "serve") /. 1e6);
        ("bench.traced_ms", 1000.0 *. per wall);
        ("bench.unattributed_ms", 1000.0 *. per (wall -. attributed -. idle));
        ("bench.trace_overhead_pct", over_pct);
        ("bench.untraced_spread_pct", spread_pct);
      ]
    in
    {
      Report.workload = "serve";
      seed;
      attempted;
      failed = !failed;
      wrong;
      gated = Report.per_layer values;
      shown = [];
      notes =
        Report.layer_table ~wall ~units ~idle
          ~gc:("front end and worker domain; the worker's sessions and solves are not spanned", alloc)
          by
        @ [
            Printf.sprintf
              "  (circuit parse %.3f ms + digest %.3f ms per request run inside serve.submit)"
              (shadow_ms "circuit.parse") (shadow_ms "circuit.digest");
            Printf.sprintf
              "  (worker domain: %.3f MB per request, reported as bmc.alloc_mb: sessions, unrolling, solving)"
              (per (alloc -. front) /. 1e6);
            Printf.sprintf
              "cache (budget %.1f MB), per traced phase of %d requests: %.1f evictions, %.1f re-misses (misses \
               on a circuit asked for earlier in the phase), %.1f MB resident at the end"
              (float_of_int cache_bytes /. 1e6) n (mean_stat (fun s -> s.S.st_evicted))
              (Stats.mean (List.map (fun p -> float_of_int (re_misses mix p)) traced_phases))
              (mean_stat (fun s -> s.S.st_bytes) /. 1e6);
            over_line;
          ];
    }
  end
