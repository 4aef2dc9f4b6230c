(* Observability layer: flight-recorder ring semantics (bounded memory,
   overwrite order, snapshot consistency under concurrent writers, the
   dump as a JSONL trace), the run
   ledger's schema round-trip and event-stream distillation, the regression
   diff and the Prometheus export. *)

module R = Obs.Recorder
module L = Obs.Ledger
module J = Obs.Json

(* ------------------------------------------------------------------ *)
(* Flight-recorder ring.                                               *)
(* ------------------------------------------------------------------ *)

module Sink = Telemetry.Sink

(* Emit one instant event into the recorder, from the calling domain. *)
let emit rec_ kind ~a ~b =
  (R.sink rec_).Sink.emit { Sink.ts = 0.0; kind; fields = [ ("a", Sink.Int a); ("b", Sink.Int b) ] }

let int_field (e : Sink.event) k =
  match Sink.find_int e.fields k with
  | Some v -> v
  | None -> Alcotest.failf "event %s lacks an int field %S" e.kind k

let test_ring_bounded_overwrite () =
  let cap = 64 in
  let rec_ = R.create ~capacity:cap () in
  let total = 10 * cap in
  for i = 0 to total - 1 do
    emit rec_ "restart" ~a:i ~b:(i * 2)
  done;
  let entries = R.snapshot rec_ in
  (* a wrapped ring surrenders one slot: the entry at [written - cap] may
     have been mid-overwrite when the cursor was read, so the snapshot keeps
     only the cap - 1 events strictly above it *)
  Alcotest.(check int) "the last capacity-1 events survive" (cap - 1)
    (List.length entries);
  (* the survivors are the final window, in order, payloads intact *)
  List.iteri
    (fun idx e ->
      let expect = total - (cap - 1) + idx in
      Alcotest.(check int) "sequence" expect (int_field e "seq");
      Alcotest.(check int) "payload a" expect (int_field e "a");
      Alcotest.(check int) "payload b" (expect * 2) (int_field e "b");
      Alcotest.(check string) "kind" "restart" e.Sink.kind)
    entries

let test_ring_snapshot_under_hammer () =
  (* Two writer domains fill their own rings while the main domain
     snapshots concurrently.  Every snapshot must be internally consistent:
     per-domain sequences strictly increasing, each event's payload
     matching its sequence (so a torn slot — an event paired with another
     slot's sequence — would be caught), never more than [cap] per domain. *)
  let cap = 128 in
  let rec_ = R.create ~capacity:cap () in
  let n = 20_000 in
  let worker tag () =
    for i = 0 to n - 1 do
      emit rec_ "solve" ~a:tag ~b:i
    done
  in
  let d1 = Domain.spawn (worker 1) in
  let d2 = Domain.spawn (worker 2) in
  let check_snapshot entries =
    let last = Hashtbl.create 4 and count = Hashtbl.create 4 in
    List.iter
      (fun e ->
        let dom = int_field e "dom" and seq = int_field e "seq" and b = int_field e "b" in
        (match Hashtbl.find_opt last dom with
        | Some (prev_seq, prev_b) ->
          if seq <= prev_seq then Alcotest.failf "dom %d: seq %d after %d" dom seq prev_seq;
          if b <= prev_b then Alcotest.failf "dom %d: payload %d after %d" dom b prev_b
        | None -> ());
        (* single writer per ring records b = loop index = sequence *)
        if e.Sink.kind = "solve" then begin
          if b <> seq then Alcotest.failf "dom %d: torn event seq=%d b=%d" dom seq b;
          let a = int_field e "a" in
          if a <> 1 && a <> 2 then Alcotest.failf "dom %d: foreign payload a=%d" dom a
        end;
        Hashtbl.replace last dom (seq, b);
        Hashtbl.replace count dom (1 + Option.value ~default:0 (Hashtbl.find_opt count dom)))
      entries;
    Hashtbl.iter
      (fun dom c ->
        if c > cap then Alcotest.failf "dom %d: %d > capacity %d events" dom c cap)
      count
  in
  for _ = 1 to 50 do
    check_snapshot (R.snapshot rec_)
  done;
  Domain.join d1;
  Domain.join d2;
  let final = R.snapshot rec_ in
  check_snapshot final;
  (* each full ring yields cap - 1 entries (torn-slot rule) *)
  Alcotest.(check int) "both rings full after the writers finish"
    (2 * (cap - 1))
    (List.length final)

let test_ring_entry_jsonl_roundtrip () =
  let rec_ = R.create ~capacity:8 () in
  emit rec_ "switch" ~a:3 ~b:1;
  emit rec_ "reduce_db" ~a:2 ~b:5;
  let entries = R.snapshot rec_ in
  Alcotest.(check int) "two events" 2 (List.length entries);
  List.iter
    (fun e ->
      match Obs.Jsonl.of_line (Obs.Jsonl.to_line e) with
      | Error msg -> Alcotest.failf "entry did not round-trip: %s" msg
      | Ok e' -> Alcotest.(check bool) "entry round-trips" true (e = e'))
    entries;
  let dump = String.concat "\n" (List.map Obs.Jsonl.to_line entries) in
  Alcotest.(check int) "events_of_string parses the dump" 2
    (List.length (Obs.Jsonl.events_of_string dump))

let test_signal_dumps_snapshot () =
  let rec_ = R.create ~capacity:8 () in
  emit rec_ "depth" ~a:4 ~b:0;
  emit rec_ "solve" ~a:4 ~b:1;
  let path = Filename.temp_file "recorder" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      R.on_signal rec_ ~signal:Sys.sigusr2 ~path;
      Unix.kill (Unix.getpid ()) Sys.sigusr2;
      (* delivery is asynchronous; give the runtime a safepoint to run the
         handler, then poll briefly for the file to land *)
      let rec wait n =
        Unix.sleepf 0.01;
        if Sys.file_exists path && (Unix.stat path).Unix.st_size > 0 then ()
        else if n > 0 then wait (n - 1)
        else Alcotest.fail "signal handler did not dump"
      in
      wait 100;
      let ic = open_in path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check int) "dump holds both events" 2
        (List.length (Obs.Jsonl.events_of_string text)))

(* The recorder is one more sink on the run's stream: a solver refuted
   while loading still leaves its solve event, and a session run's dump
   folds into the ledger the in-memory stream folds into. *)
let test_recorder_rides_the_stream () =
  let rec_ = R.create () in
  let cnf = Sat.Cnf.create () in
  Sat.Cnf.add_clause cnf [ Sat.Lit.pos 0 ];
  Sat.Cnf.add_clause cnf [ Sat.Lit.neg 0 ];
  let solver =
    Sat.Solver.create ~telemetry:(Telemetry.create ~timing:false (R.sink rec_)) cnf
  in
  Alcotest.(check bool) "refuted while loading" true
    (Sat.Solver.solve solver = Sat.Solver.Unsat);
  let solves =
    List.filter
      (fun (e : Sink.event) -> Sink.find_str e.fields "name" = Some "solve")
      (R.snapshot rec_)
  in
  Alcotest.(check (list (option string))) "one unsat solve span" [ Some "unsat" ]
    (List.map (fun (e : Sink.event) -> Sink.find_str e.fields "outcome") solves);
  let mem, events = Sink.memory () in
  let rec_ = R.create () in
  let telemetry = Telemetry.create ~timing:false (Sink.tee [ mem; R.sink rec_ ]) in
  let case = Circuit.Generators.ring ~len:8 ~noise:8 () in
  let config =
    Bmc.Session.make_config ~mode:Bmc.Session.Dynamic ~max_depth:10 ~collect_cores:true
      ~telemetry ()
  in
  ignore
    (Bmc.Session.check ~config ~policy:Bmc.Session.Fresh case.Circuit.Generators.netlist
       ~property:case.Circuit.Generators.property
      : Bmc.Session.result);
  let dump = String.concat "\n" (List.map Obs.Jsonl.to_line (R.snapshot rec_)) in
  Alcotest.(check string) "the dump folds into the stream's ledger"
    (L.to_string (L.of_events (events ())))
    (L.to_string (L.of_events (Obs.Jsonl.events_of_string dump)))

(* ------------------------------------------------------------------ *)
(* Ledger: distillation from a real run.                               *)
(* ------------------------------------------------------------------ *)

let run_ledger ?(mode = Bmc.Session.Dynamic) ?(depth = 10) () =
  let sink, events = Telemetry.Sink.memory () in
  let telemetry = Telemetry.create ~timing:false sink in
  let case = Circuit.Generators.ring ~len:8 ~noise:8 () in
  let config =
    Bmc.Session.make_config ~mode ~max_depth:depth ~collect_cores:true ~telemetry ()
  in
  let r =
    Bmc.Session.check ~config ~policy:Bmc.Session.Persistent
      case.Circuit.Generators.netlist ~property:case.Circuit.Generators.property
  in
  (L.of_events (events ()), r)

let test_ledger_from_session () =
  let ledger, r = run_ledger () in
  Alcotest.(check bool) "depth rows present" true (ledger.L.depths <> []);
  Alcotest.(check int) "one row per instance" (List.length r.Bmc.Session.per_depth)
    (List.length ledger.L.depths);
  List.iter
    (fun d ->
      Alcotest.(check int)
        (Printf.sprintf "depth %d: attribution partitions decisions" d.L.l_depth)
        d.L.l_decisions
        (d.L.l_dec_rank + d.L.l_dec_vsids);
      Alcotest.(check string) "mode recorded" "dynamic" d.L.l_mode)
    ledger.L.depths;
  Alcotest.(check int) "aggregate decisions match the run" r.Bmc.Session.total_decisions
    (L.decisions ledger);
  Alcotest.(check bool) "effectiveness report is never empty" true
    (String.length (Format.asprintf "%a" L.pp_effectiveness ledger) > 0);
  Alcotest.(check bool) "depth table renders" true
    (String.length (Format.asprintf "%a" L.pp_depth_table ledger) > 0)

let test_ledger_schema_roundtrip () =
  let ledger, _ = run_ledger () in
  let printed = L.to_string ledger in
  match L.of_string printed with
  | Error msg -> Alcotest.failf "re-parse failed: %s" msg
  | Ok reparsed ->
    Alcotest.(check string) "emit -> parse -> re-emit is the identity" printed
      (L.to_string reparsed);
    Alcotest.(check string) "schema version" L.version reparsed.L.schema

let test_ledger_synthetic_events () =
  (* the restart / switch tallies fold into the ledger; a "race" event, as
     the builds that raced orderings emitted it, is ignored *)
  let ev kind fields = { Telemetry.Sink.ts = 0.0; kind; fields } in
  let open Telemetry.Sink in
  let tallies =
    [
      ev "restart" [ ("conflicts", Int 100) ];
      ev "restart" [ ("conflicts", Int 200) ];
      ev "switch" [ ("decisions", Int 50) ];
    ]
  in
  let race =
    ev "race"
      [
        ("depth", Int 2);
        ("winner", Str "static");
        ("wall_s", Float 0.25);
        ("cancelled", Int 2);
      ]
  in
  let ledger = L.of_events (race :: tallies) in
  Alcotest.(check int) "restarts" 2 ledger.L.restarts;
  Alcotest.(check int) "switches" 1 ledger.L.switches;
  Alcotest.(check int) "no depth rows" 0 (List.length ledger.L.depths);
  Alcotest.(check string) "the race event is ignored" (L.to_string (L.of_events tallies))
    (L.to_string ledger)

(* --ledger reads the live aggregate --metrics also reports from; a saved
   trace folds into a fresh one.  Two batch items on two workers emit at
   once through one tee, which must hand both sinks the same order, and
   every depth row names the item it belongs to. *)
let test_ledger_of_live_aggregate () =
  let agg = Sink.aggregate () in
  let path = Filename.temp_file "batch" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      let telemetry =
        Telemetry.create ~timing:false
          (Sink.tee [ Sink.of_aggregate agg; Obs.Jsonl.of_channel oc ])
      in
      let ring = Circuit.Generators.ring ~len:12 ()
      and gray = Circuit.Generators.gray ~bits:5 () in
      let item (case : Circuit.Generators.case) =
        (case.name, case.netlist, case.property, 10)
      in
      let config = Bmc.Session.make_config ~telemetry () in
      let results =
        Portfolio.Pool.with_pool ~telemetry ~jobs:2 (fun pool ->
            Portfolio.check_batch ~config ~pool [ item ring; item gray ])
      in
      Telemetry.flush telemetry;
      close_out oc;
      let live = L.of_aggregate agg in
      let saved =
        L.of_events (Obs.Jsonl.events_of_string (In_channel.with_open_bin path In_channel.input_all))
      in
      Alcotest.(check string) "live aggregate = re-read trace" (L.to_string saved)
        (L.to_string live);
      List.iter
        (fun (name, (r : Bmc.Session.result)) ->
          Alcotest.(check (list int))
            (name ^ ": one row per depth, named by its item")
            (List.map (fun (d : Bmc.Session.depth_stat) -> d.depth) r.per_depth)
            (List.filter_map
               (fun (row : L.depth_row) ->
                 if row.L.l_property = Some name then Some row.L.l_depth else None)
               live.L.depths))
        results;
      Alcotest.(check int) "every depth row names its item"
        (List.fold_left (fun n (_, (r : Bmc.Session.result)) -> n + List.length r.per_depth) 0
           results)
        (List.length live.L.depths))

(* A two-depth ledger in the bmc-ledger/v1 file format as older builds
   wrote it: a [share] member from the builds with clause sharing, and
   [races] and [wins] members from the builds that raced orderings.  It
   still loads, the per-depth table prints every header over its column,
   and the effectiveness report has no races line. *)
let golden_ledger =
  {|{
  "schema": "bmc-ledger/v1",
  "depths": [
    {"depth": 0, "mode": "dynamic", "outcome": "unsat", "decisions": 120, "dec_rank": 90,
     "dec_vsids": 30, "implications": 4567, "conflicts": 45, "core_clauses": 37,
     "core_vars": 21, "core_new": 21, "core_dropped": 0, "switched": false,
     "build_s": 0.0124, "solve_s": 0.034, "bcp_s": 0.02, "cdg_s": 0.0015,
     "inpr_elim": 0, "inpr_sub": 0, "inpr_str": 0, "inpr_probe_failed": 0, "inpr_s": 0.0,
     "core_pre": 50, "coremin_s": 0.25},
    {"depth": 1, "mode": "dynamic", "outcome": "sat", "decisions": 240, "dec_rank": 60,
     "dec_vsids": 180, "implications": 19876, "conflicts": 99, "core_clauses": 0,
     "core_vars": 0, "core_new": 3, "core_dropped": 21, "switched": true,
     "build_s": 0.5, "solve_s": 1.25, "bcp_s": 0.75, "cdg_s": 0.0,
     "inpr_elim": 0, "inpr_sub": 0, "inpr_str": 0, "inpr_probe_failed": 0, "inpr_s": 0.0}
  ],
  "races": [
    {"depth": 0, "winner": "dynamic", "wall_s": 0.05, "cancelled": 1, "rotated": 1,
     "racers": "dynamic,chb"}
  ],
  "restarts": 4,
  "switches": 1,
  "share": {"exported": 7, "imported": 4, "rejected_tainted": 1, "dropped_stale": 2},
  "wins": {"dynamic": 1}
}|}

let golden_table =
  String.concat "\n"
    [
      "depth  outcome  mode       decisions (heat)      rank%  implications  conflicts   core  \
       churn(+/-)   sw  build_s  solve_s    cdg_s";
      "    0  unsat    dynamic         120 ######        75.0          4567         45     37  \
      \  +21/0            0.012    0.034    0.002  [coremin 50->37]";
      "    1  sat      dynamic         240 ############  25.0         19876         99      0  \
      \   +3/-21     *    0.500    1.250    0.000";
      "TOTAL                           360                            24443        144       \
      \                     0.512    1.284    0.002";
      "";
    ]

let test_depth_table_golden () =
  match L.of_string golden_ledger with
  | Error msg -> Alcotest.failf "a v1 ledger with a share member must load: %s" msg
  | Ok ledger ->
    Alcotest.(check int) "two depth rows" 2 (List.length ledger.L.depths);
    Alcotest.(check int) "restarts" 4 ledger.L.restarts;
    Alcotest.(check string) "per-depth table" golden_table
      (Format.asprintf "%a" L.pp_depth_table ledger);
    let report = Format.asprintf "%a" L.pp_effectiveness ledger in
    Alcotest.(check bool) "no races line" false (Test_stats.contains report "races")

(* ------------------------------------------------------------------ *)
(* Diff.                                                               *)
(* ------------------------------------------------------------------ *)

let test_diff_identical_is_empty () =
  let ledger, _ = run_ledger () in
  Alcotest.(check int) "no findings between identical runs" 0
    (List.length (L.diff ledger ledger));
  (* several rows can share a depth and a mode (an induction ledger's step
     and base rows) — duplicate depths must pair one-to-one, not
     first-match *)
  let doubled =
    {
      ledger with
      L.depths =
        List.concat_map
          (fun (d : L.depth_row) ->
            [
              { d with L.l_mode = "static" };
              { d with L.l_mode = "dynamic"; l_decisions = 0; l_outcome = "unknown" };
            ])
          ledger.L.depths;
    }
  in
  Alcotest.(check int) "identical doubled ledgers diff clean" 0
    (List.length (L.diff doubled doubled))

let fails a b = List.filter (fun f -> f.L.severity = L.Fail) (L.diff a b)

let rendered findings = List.map (Format.asprintf "%a" L.pp_finding) findings

(* Rewrites the outcome of the [nth] row (0-based) at depth [k]. *)
let set_outcome ~k ~nth outcome (t : L.t) =
  let seen = ref 0 in
  {
    t with
    L.depths =
      List.map
        (fun (d : L.depth_row) ->
          if d.L.l_depth <> k then d
          else begin
            let i = !seen in
            incr seen;
            if i = nth then { d with L.l_outcome = outcome } else d
          end)
        t.L.depths;
  }

(* A batch's items finish in any order, so two runs of one batch write
   their rows interleaved differently.  Rows pair by property: the
   interleaving is no regression, and one property's flip is exactly one
   Fail. *)
let test_diff_keys_batch_properties () =
  let batch rows =
    L.of_events
      (List.map
         (fun (property, depth, outcome) ->
           {
             Sink.ts = 0.0;
             kind = "depth";
             fields =
               [
                 ("property", Sink.Str property);
                 ("depth", Sink.Int depth);
                 ("mode", Sink.Str "dynamic");
                 ("outcome", Sink.Str outcome);
               ];
           })
         rows)
  in
  let first =
    batch [ ("p", 0, "unsat"); ("q", 0, "unsat"); ("p", 1, "sat"); ("q", 1, "unsat") ]
  in
  let second =
    batch [ ("q", 0, "unsat"); ("p", 0, "unsat"); ("q", 1, "unsat"); ("p", 1, "sat") ]
  in
  Alcotest.(check (list string)) "interleaving is no regression" []
    (rendered (fails first second));
  let flipped =
    batch [ ("q", 0, "unsat"); ("p", 0, "unsat"); ("q", 1, "sat"); ("p", 1, "sat") ]
  in
  Alcotest.(check (list string)) "one property's flip is one Fail"
    [ "FAIL q depth 1 outcome changed: unsat -> sat" ]
    (rendered (fails first flipped))

(* Several rows at one depth are separate instances: an induction ledger
   writes step(j) and then base(j) at depth j in one mode.  The step row's
   "sat" must not stand in for the base row, so every base flip fails. *)
let test_diff_fails_unraced_rows () =
  let ledger, _ = run_ledger () in
  let induction =
    {
      ledger with
      L.depths =
        List.concat_map
          (fun (d : L.depth_row) -> [ { d with L.l_outcome = "sat" }; d ])
          ledger.L.depths;
    }
  in
  Alcotest.(check (list string)) "base unsat -> sat fails"
    [ "FAIL depth 2 outcome changed: unsat -> sat" ]
    (rendered (fails induction (set_outcome ~k:2 ~nth:1 "sat" induction)));
  Alcotest.(check (list string)) "base unsat -> unknown fails"
    [ "FAIL depth 2 outcome changed: unsat -> unknown" ]
    (rendered (fails induction (set_outcome ~k:2 ~nth:1 "unknown" induction)))

let test_diff_flags_regressions () =
  let ledger, _ = run_ledger () in
  let perturbed =
    {
      ledger with
      L.depths =
        List.map
          (fun d ->
            if d.L.l_depth = 3 then
              { d with L.l_outcome = "sat"; l_decisions = d.L.l_decisions + 1000 }
            else d)
          ledger.L.depths;
    }
  in
  let findings = L.diff ledger perturbed in
  let fails = List.filter (fun f -> f.L.severity = L.Fail) findings in
  Alcotest.(check bool) "outcome change is a FAIL" true (fails <> []);
  let rendered = Format.asprintf "%a" L.pp_finding (List.hd fails) in
  Alcotest.(check bool) "finding names the depth" true
    (Test_stats.contains rendered "depth 3")

(* ------------------------------------------------------------------ *)
(* Prometheus export.                                                  *)
(* ------------------------------------------------------------------ *)

let test_prom_render () =
  let ledger, _ = run_ledger () in
  let doc = Obs.Prom.render ledger in
  List.iter
    (fun metric ->
      Alcotest.(check bool) (metric ^ " present") true (Test_stats.contains doc metric))
    [
      "bmc_depths_total";
      "bmc_decisions_total";
      "bmc_conflicts_total";
      "bmc_rank_decision_share";
      "# HELP";
      "# TYPE";
    ]

(* ------------------------------------------------------------------ *)
(* JSON codec.                                                         *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let doc =
    J.Obj
      [
        ("schema", J.Str "test/v1");
        ("n", J.Int 42);
        ("x", J.Float 0.125);
        ("flag", J.Bool true);
        ("nothing", J.Null);
        ("text", J.Str "say \"hi\"\n\ttab\\slash");
        ("list", J.List [ J.Int 1; J.Obj [ ("k", J.Str "v") ]; J.List [] ]);
        ("empty", J.Obj []);
      ]
  in
  List.iter
    (fun indent ->
      let s = J.to_string ~indent doc in
      match J.of_string s with
      | Error msg -> Alcotest.failf "re-parse failed (indent=%b): %s" indent msg
      | Ok doc' ->
        Alcotest.(check bool)
          (Printf.sprintf "value round-trips (indent=%b)" indent)
          true (doc = doc'))
    [ false; true ];
  (* accessors *)
  Alcotest.(check int) "get_int" 42 (J.get_int doc "n");
  Alcotest.(check (float 0.0)) "get_float accepts Int" 42.0 (J.get_float doc "n");
  Alcotest.(check string) "get_str default" "none" (J.get_str ~default:"none" doc "missing");
  Alcotest.(check int) "get_list length" 3 (List.length (J.get_list doc "list"));
  (* rejects garbage *)
  List.iter
    (fun s ->
      match J.of_string s with
      | Ok _ -> Alcotest.failf "expected parse failure on %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":1} trailing"; "{'a':1}"; "nul" ]

let tests =
  [
    Alcotest.test_case "ring keeps only the last capacity events" `Quick
      test_ring_bounded_overwrite;
    Alcotest.test_case "ring snapshots consistent under two writers" `Slow
      test_ring_snapshot_under_hammer;
    Alcotest.test_case "recorder entries round-trip as JSONL" `Quick
      test_ring_entry_jsonl_roundtrip;
    Alcotest.test_case "signal handler dumps a snapshot" `Quick test_signal_dumps_snapshot;
    Alcotest.test_case "recorder rides the telemetry stream" `Quick
      test_recorder_rides_the_stream;
    Alcotest.test_case "ledger distils a session run" `Quick test_ledger_from_session;
    Alcotest.test_case "ledger schema round-trip is the identity" `Quick
      test_ledger_schema_roundtrip;
    Alcotest.test_case "ledger folds races, restarts and switches" `Quick
      test_ledger_synthetic_events;
    Alcotest.test_case "depth table golden (v1 ledger with share member)" `Quick
      test_depth_table_golden;
    Alcotest.test_case "ledger of a live race aggregate = of its trace" `Quick
      test_ledger_of_live_aggregate;
    Alcotest.test_case "diff of identical runs is empty" `Quick test_diff_identical_is_empty;
    Alcotest.test_case "diff fails on outcome change" `Quick test_diff_flags_regressions;
    Alcotest.test_case "diff keys batch rows by property" `Quick test_diff_keys_batch_properties;
    Alcotest.test_case "diff fails unraced row flips" `Quick test_diff_fails_unraced_rows;
    Alcotest.test_case "prometheus export names its metrics" `Quick test_prom_render;
    Alcotest.test_case "json codec round-trips and rejects garbage" `Quick
      test_json_roundtrip;
  ]
