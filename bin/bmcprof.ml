(* bmcprof: analysis toolchain for bmccheck run artefacts.

   Reads the run ledger (--ledger), the JSONL telemetry trace (--trace) and
   the flight-recorder dump (--flight-recorder: the same trace format, the
   last events of each domain) that bmccheck writes, and
   turns them into the reports the paper's evaluation wants: per-depth heat
   tables, the ordering-effectiveness report (how many decisions the
   bmc_score rank actually steered), an ASCII racer timeline, a regression
   diff between two run ledgers with pass/warn/fail verdicts, and a
   Prometheus textfile export.

   Exit codes: 0 = ok (diff: no FAIL findings), 1 = diff found a FAIL,
   2 = input error. *)

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error msg ->
    Format.eprintf "bmcprof: %s@." msg;
    exit 2

let load_ledger path =
  match Obs.Ledger.of_string (read_file path) with
  | Ok l -> l
  | Error msg ->
    Format.eprintf "bmcprof: %s: not a ledger: %s@." path msg;
    exit 2

(* ------------------------------------------------------------------ *)
(* report / trace: ledger-backed reports                               *)
(* ------------------------------------------------------------------ *)

let print_reports ledger =
  Format.printf "%a@." Obs.Ledger.pp_depth_table ledger;
  Format.printf "%a@." Obs.Ledger.pp_effectiveness ledger

let run_report path = print_reports (load_ledger path)

(* A trace is the same event stream a --ledger run folds in-process; fold
   it here instead, so a ledger can be reconstructed from any saved trace. *)
let run_trace path =
  let events =
    try Obs.Jsonl.events_of_string (read_file path)
    with Failure msg ->
      Format.eprintf "bmcprof: %s: not a JSONL trace: %s@." path msg;
      exit 2
  in
  if events = [] then begin
    Format.eprintf "bmcprof: %s: empty trace@." path;
    exit 2
  end;
  print_reports (Obs.Ledger.of_events events)

(* ------------------------------------------------------------------ *)
(* timeline: ASCII rendering of a flight-recorder dump                 *)
(* ------------------------------------------------------------------ *)

(* Glyph and weight per event: instant events by kind, spans by span name;
   anything else (phase spans, counters, gauges) draws nothing.  Later
   events overwrite earlier ones in a cell; rarer, more interesting kinds
   take precedence over bulk ones so a win is never hidden by the solver
   chatter around it. *)
let glyphs =
  [
    ("racer_win", ('*', 6));
    ("racer_cancel", ('x', 5));
    ("depth", ('D', 4));
    ("switch", ('S', 4));
    ("racer_start", ('<', 3));
    ("compact", ('C', 3));
    ("inprocess", ('P', 3));
    ("reduce_db", ('G', 2));
    ("restart", ('R', 2));
    ("solve", ('o', 1));
  ]

let glyph (e : Telemetry.Sink.event) =
  let key =
    if e.kind = "span" then Option.value ~default:"" (Telemetry.Sink.find_str e.fields "name")
    else e.kind
  in
  List.assoc_opt key glyphs

let run_timeline path width =
  let field e k = Option.value ~default:0 (Telemetry.Sink.find_int e.Telemetry.Sink.fields k) in
  let events =
    try Obs.Jsonl.events_of_string (read_file path)
    with Failure msg ->
      Format.eprintf "bmcprof: %s: not a flight-recorder dump: %s@." path msg;
      exit 2
  in
  match events with
  | [] -> Format.printf "flight recorder: no events@."
  | events ->
    let width = max 20 width in
    let t_us e = field e "t_us" and dom e = field e "dom" in
    let t_min = List.fold_left (fun a e -> min a (t_us e)) max_int events
    and t_max = List.fold_left (fun a e -> max a (t_us e)) min_int events in
    let span = max 1 (t_max - t_min) in
    let doms = List.sort_uniq compare (List.map dom events) in
    let lanes = List.map (fun d -> (d, Bytes.make width '.')) doms in
    let weights = List.map (fun d -> (d, Array.make width 0)) doms in
    List.iter
      (fun e ->
        match glyph e with
        | None -> ()
        | Some (c, kw) ->
          let col = min (width - 1) ((t_us e - t_min) * width / span) in
          let w = List.assoc (dom e) weights in
          if kw >= w.(col) then begin
            w.(col) <- kw;
            Bytes.set (List.assoc (dom e) lanes) col c
          end)
      events;
    Format.printf "flight recorder: %d events, %d domain(s), %.3fs span@."
      (List.length events) (List.length doms)
      (float_of_int span /. 1e6);
    List.iter
      (fun (d, lane) ->
        let n = List.length (List.filter (fun e -> dom e = d) events) in
        Format.printf "dom %3d |%s| %d ev@." d (Bytes.to_string lane) n)
      lanes;
    Format.printf
      "legend: R restart  G reduce_db  C compact  S switch  D depth  o solve  P inprocess@.";
    Format.printf
      "        < racer_start  * racer_win  x racer_cancel@.";
    (* the race storyline, spelled out: who started, won, was cancelled *)
    let racers =
      List.filter
        (fun (e : Telemetry.Sink.event) ->
          match e.kind with
          | "racer_start" | "racer_win" | "racer_cancel" -> true
          | _ -> false)
        events
    in
    if racers <> [] then begin
      Format.printf "@.races:@.";
      List.iter
        (fun (e : Telemetry.Sink.event) ->
          Format.printf "  %8.3fs dom %d %-12s depth=%d slot=%d@."
            (float_of_int (t_us e - t_min) /. 1e6)
            (dom e) e.kind (field e "depth") (field e "slot"))
        racers
    end

(* ------------------------------------------------------------------ *)
(* diff: ledger-vs-ledger regression gate                              *)
(* ------------------------------------------------------------------ *)

let run_diff path_a path_b warn_pct =
  let findings = Obs.Ledger.diff ~warn_pct (load_ledger path_a) (load_ledger path_b) in
  let fails =
    List.length (List.filter (fun f -> f.Obs.Ledger.severity = Obs.Ledger.Fail) findings)
  in
  let warns = List.length findings - fails in
  List.iter (fun f -> Format.printf "%a@." Obs.Ledger.pp_finding f) findings;
  if fails > 0 then begin
    Format.printf "diff: FAIL (%d regression(s), %d warning(s))@." fails warns;
    exit 1
  end
  else if warns > 0 then Format.printf "diff: PASS with %d warning(s)@." warns
  else Format.printf "diff: PASS (no regressions)@."

(* ------------------------------------------------------------------ *)
(* serve: aggregate a bmcserve request ledger                          *)
(* ------------------------------------------------------------------ *)

(* One JSON object per answered request (bmcserve --ledger); this folds
   the stream into the service-level numbers the serve bench gates on:
   throughput, cache hit rate and tail latency. *)
let run_serve path =
  let rows =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> String.trim l <> "")
    |> List.mapi (fun i l ->
           match Obs.Json.of_string l with
           | Ok (Obs.Json.Obj _ as j) -> j
           | Ok _ | Error _ ->
             Format.eprintf "bmcprof: %s: line %d is not a JSON object@." path (i + 1);
             exit 2)
  in
  if rows = [] then begin
    Format.eprintf "bmcprof: %s: empty serve ledger@." path;
    exit 2
  end;
  let n = List.length rows in
  let count pred = List.length (List.filter pred rows) in
  let status s = count (fun r -> Obs.Json.get_str ~default:"" r "status" = s) in
  let cache c = count (fun r -> Obs.Json.get_str ~default:"" r "cache" = c) in
  let ok = status "ok" and shed = status "shed" in
  let draining = status "draining" and errors = status "error" in
  let hits = cache "hit" and warm = cache "warm" and miss = cache "miss" in
  let span_ms =
    List.fold_left
      (fun a r -> max a (Obs.Json.get_float ~default:0.0 r "t_ms"))
      0.0 rows
  in
  let walls =
    List.filter_map
      (fun r ->
        if Obs.Json.get_str ~default:"" r "status" = "ok" then
          Some (Obs.Json.get_float ~default:0.0 r "wall_ms")
        else None)
      rows
    |> List.sort compare |> Array.of_list
  in
  let pctl p =
    if Array.length walls = 0 then 0.0
    else
      let i = int_of_float (ceil (p /. 100.0 *. float_of_int (Array.length walls))) - 1 in
      walls.(max 0 (min (Array.length walls - 1) i))
  in
  Format.printf "serve ledger: %d request(s) over %.1fs@." n (span_ms /. 1e3);
  Format.printf "  answered %d  shed %d  draining %d  error %d@." ok shed draining errors;
  let solved = hits + warm + miss in
  if solved > 0 then
    Format.printf "  cache: %d hit / %d warm / %d miss  (hit rate %.1f%%, warm-or-hit %.1f%%)@."
      hits warm miss
      (100.0 *. float_of_int hits /. float_of_int solved)
      (100.0 *. float_of_int (hits + warm) /. float_of_int solved);
  if span_ms > 0.0 then
    Format.printf "  throughput: %.1f req/s@." (float_of_int n *. 1e3 /. span_ms);
  if Array.length walls > 0 then
    Format.printf "  latency ms: p50 %.2f  p95 %.2f  p99 %.2f  max %.2f@."
      (pctl 50.0) (pctl 95.0) (pctl 99.0) walls.(Array.length walls - 1);
  (* per-digest rollup: which circuits the cache actually served warm *)
  let digests = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match Obs.Json.member "digest" r with
      | Some (Obs.Json.Str d) ->
        let h, w, m, depth =
          match Hashtbl.find_opt digests d with Some x -> x | None -> (0, 0, 0, 0)
        in
        let c = Obs.Json.get_str ~default:"" r "cache" in
        Hashtbl.replace digests d
          ( (h + if c = "hit" then 1 else 0),
            (w + if c = "warm" then 1 else 0),
            (m + if c = "miss" then 1 else 0),
            max depth (Obs.Json.get_int ~default:0 r "depth") )
      | _ -> ())
    rows;
  if Hashtbl.length digests > 0 then begin
    Format.printf "@.per circuit:@.";
    Hashtbl.fold (fun d v acc -> (d, v) :: acc) digests []
    |> List.sort compare
    |> List.iter (fun (d, (h, w, m, depth)) ->
           Format.printf "  %s  depth<=%-3d  %d hit / %d warm / %d miss@."
             (String.sub d 0 (min 12 (String.length d)))
             depth h w m)
  end

(* ------------------------------------------------------------------ *)
(* prom: Prometheus textfile export                                    *)
(* ------------------------------------------------------------------ *)

let run_prom path output =
  let ledger = load_ledger path in
  match output with
  | Some out ->
    Obs.Prom.write ledger out;
    Format.eprintf "bmcprof: metrics written to %s@." out
  | None -> print_string (Obs.Prom.render ledger)

(* ------------------------------------------------------------------ *)
(* command line                                                        *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let ledger_arg =
  Arg.(
    required & pos 0 (some file) None
    & info [] ~docv:"LEDGER" ~doc:"A run ledger written by bmccheck --ledger.")

let warn_pct =
  Arg.(
    value & opt float 25.0
    & info [ "warn-pct" ] ~docv:"PCT"
        ~doc:"Decision/conflict drift (percent) above which the diff warns (default 25).")

let report_cmd =
  let doc = "per-depth heat table and ordering-effectiveness report from a ledger" in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run_report $ ledger_arg)

let trace_cmd =
  let doc = "fold a JSONL telemetry trace into a ledger and print its reports" in
  let trace_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:"A JSONL trace written by bmccheck --trace, or a flight-recorder dump.")
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run_trace $ trace_arg)

let timeline_cmd =
  let doc = "ASCII per-domain timeline from a flight-recorder dump" in
  let flight_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"FLIGHT"
          ~doc:"A flight-recorder JSONL dump written by bmccheck --flight-recorder.")
  in
  let width =
    Arg.(
      value & opt int 72
      & info [ "width" ] ~docv:"COLS" ~doc:"Timeline width in columns (default 72).")
  in
  Cmd.v (Cmd.info "timeline" ~doc) Term.(const run_timeline $ flight_arg $ width)

let diff_cmd =
  let doc = "regression diff between two run ledgers (exit 1 on FAIL)" in
  let a = Arg.(required & pos 0 (some file) None & info [] ~docv:"BASELINE" ~doc:"Baseline ledger.") in
  let b = Arg.(required & pos 1 (some file) None & info [] ~docv:"CANDIDATE" ~doc:"Candidate ledger.") in
  Cmd.v (Cmd.info "diff" ~doc) Term.(const run_diff $ a $ b $ warn_pct)

let serve_cmd =
  let doc = "throughput, cache and latency report from a bmcserve request ledger" in
  let serve_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"LEDGER" ~doc:"A JSONL request ledger written by bmcserve --ledger.")
  in
  Cmd.v (Cmd.info "serve" ~doc) Term.(const run_serve $ serve_arg)

let prom_cmd =
  let doc = "render a ledger as a Prometheus textfile-collector document" in
  let output =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to $(docv) instead of stdout.")
  in
  Cmd.v (Cmd.info "prom" ~doc) Term.(const run_prom $ ledger_arg $ output)

let cmd =
  let doc = "analyse bmccheck run artefacts: ledgers, traces, flight recordings" in
  Cmd.group (Cmd.info "bmcprof" ~doc) [ report_cmd; trace_cmd; timeline_cmd; diff_cmd; serve_cmd; prom_cmd ]

let () = exit (Cmd.eval cmd)
