(* Service layer: wire protocol, the digest-keyed warm-session cache, and
   the warm = cold equivalence the cache must preserve.

   The engine runs in-process here (no sockets): tests are the front-end
   thread, workers are real pool domains, so the completion-queue
   handshake is exercised exactly as bmcserve drives it. *)

module P = Serve.Protocol
module S = Serve.Server

let mk_request ?(id = "t") ?mode ?deadline_ms ?(stats = false) src depth =
  {
    P.rq_id = id;
    rq_src = src;
    rq_depth = depth;
    rq_mode = mode;
    rq_deadline_ms = deadline_ms;
    rq_stats = stats;
  }

let inline_of (case : Circuit.Generators.case) =
  P.Inline (Circuit.Textio.to_string case.netlist ~property:case.property)

let with_engine ?jobs ?max_pending ?cache_bytes ?max_conflicts ?ledger f =
  let cfg =
    S.make_config ?jobs ?max_pending ?cache_bytes ?max_conflicts ?ledger
      ~mode:Bmc.Session.Dynamic ()
  in
  let t = S.create cfg in
  Fun.protect ~finally:(fun () -> S.shutdown t) (fun () -> f t)

let answer rs =
  match rs.P.rs_reply with
  | P.Answer b -> b
  | P.Shed -> Alcotest.fail "request was shed"
  | P.Draining -> Alcotest.fail "request hit a draining server"
  | P.Bad_request msg -> Alcotest.failf "bad request: %s" msg

let cache_of rs = (answer rs).P.rs_cache

let check_cache what want rs =
  Alcotest.(check string) what (P.cache_class_string want)
    (P.cache_class_string (cache_of rs))

(* ------------------------------------------------------------------ *)
(* Protocol codec.                                                     *)
(* ------------------------------------------------------------------ *)

let test_request_roundtrip () =
  let rq =
    mk_request ~id:"r1" ~mode:Bmc.Session.Static ~deadline_ms:250.0 ~stats:true
      (P.Builtin "ring12") 9
  in
  match P.request_of_line (P.request_line rq) with
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg
  | Ok rq' ->
    Alcotest.(check string) "id" rq.P.rq_id rq'.P.rq_id;
    Alcotest.(check int) "depth" rq.P.rq_depth rq'.P.rq_depth;
    Alcotest.(check bool) "stats" rq.P.rq_stats rq'.P.rq_stats;
    (* names, not modes: [=] raises on a registry heuristic's closures *)
    Alcotest.(check (option string))
      "mode" (Some "static")
      (Option.map Bmc.Session.mode_string rq'.P.rq_mode);
    Alcotest.(check (option (float 1e-9))) "deadline" (Some 250.0) rq'.P.rq_deadline_ms

let test_request_rejects_garbage () =
  List.iter
    (fun line ->
      match P.request_of_line line with
      | Ok _ -> Alcotest.failf "expected rejection of %S" line
      | Error msg -> Alcotest.(check bool) "has message" true (String.length msg > 0))
    [
      "not json";
      "[1,2]";
      "{\"id\":\"x\"}" (* no circuit, no depth *);
      "{\"builtin\":\"a\",\"circuit\":\"b\",\"depth\":1}" (* both sources *);
      "{\"builtin\":\"a\",\"depth\":-1}";
      "{\"builtin\":\"a\",\"depth\":1,\"mode\":\"warp\"}";
    ]

(* Every registry name is a valid request "mode"; anything else is refused
   with the registry's names, and the front end answers the refusal inline
   under the request's id. *)
let test_request_modes_are_registry_names () =
  List.iter
    (fun name ->
      let line = Printf.sprintf {|{"id":"m","builtin":"ring12","depth":3,"mode":%S}|} name in
      match P.request_of_line line with
      | Ok rq ->
        Alcotest.(check (option string)) name (Some name)
          (Option.map Bmc.Session.mode_string rq.P.rq_mode)
      | Error msg -> Alcotest.failf "mode %s refused: %s" name msg)
    (Ordering.names ());
  let line = {|{"id":"u","builtin":"ring12","depth":3,"mode":"vsids"}|} in
  match P.request_of_line line with
  | Ok _ -> Alcotest.fail "unknown mode accepted"
  | Error msg ->
    List.iter
      (fun name ->
        Alcotest.(check bool) ("error lists " ^ name) true (Test_stats.contains msg name))
      (Ordering.names ());
    let rs = P.rejection ~line msg in
    Alcotest.(check string) "id echoed" "u" rs.P.rs_id;
    Alcotest.(check bool) "is an error" true (rs.P.rs_reply = P.Bad_request msg)

(* A refused line is answered under its own id when it has one, so a
   pipelined client can match the error to its request. *)
let test_rejection_keeps_request_id () =
  let reject line =
    match P.request_of_line line with
    | Ok _ -> Alcotest.failf "expected rejection of %S" line
    | Error msg -> P.rejection ~line msg
  in
  let rs = reject {|{"id":"bad","depth":1}|} in
  Alcotest.(check string) "object line: id echoed" "bad" rs.P.rs_id;
  let wire = P.response_line rs in
  Alcotest.(check bool) "wire carries the id" true (Test_stats.contains wire {|"id":"bad"|});
  Alcotest.(check bool) "wire status is error" true
    (Test_stats.contains wire {|"status":"error"|});
  List.iter
    (fun line ->
      let rs = reject line in
      Alcotest.(check string) (line ^ ": empty id") "" rs.P.rs_id;
      match rs.P.rs_reply with
      | P.Bad_request _ -> ()
      | _ -> Alcotest.failf "%s: expected an error reply" line)
    [ "not json"; {|{"id":"trunc|}; {|{"id":7,"depth":1}|}; {|["id","x"]|} ]

let test_response_roundtrip () =
  let body =
    {
      P.rs_verdict = P.Bounded_pass 7;
      rs_cache = P.Warm;
      rs_solved = 3;
      rs_decisions = 41;
      rs_conflicts = 17;
      rs_core = [ 2; 5; 9 ];
    }
  in
  let rs = { P.rs_id = "r2"; rs_reply = P.Answer body; rs_queue_ms = 1.5; rs_wall_ms = 9.25 } in
  match P.response_of_json (P.response_to_json rs) with
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg
  | Ok rs' ->
    Alcotest.(check string) "id" "r2" rs'.P.rs_id;
    let b = answer rs' in
    Alcotest.(check bool) "verdict" true (b.P.rs_verdict = P.Bounded_pass 7);
    Alcotest.(check string) "cache" "warm" (P.cache_class_string b.P.rs_cache);
    Alcotest.(check (list int)) "core" [ 2; 5; 9 ] b.P.rs_core;
    Alcotest.(check int) "solved" 3 b.P.rs_solved

(* ------------------------------------------------------------------ *)
(* Warm = cold equivalence.                                            *)
(* ------------------------------------------------------------------ *)

(* Reference answer: the same depth sweep the server's job runs, on a
   session built the way the server builds one.  The circuit goes through
   the same print/parse round-trip the request takes, so node numbering —
   and with it SAT variable numbering and core-variable lists — lines up
   with what the server solves. *)
let reference (case : Circuit.Generators.case) depth =
  let netlist, property =
    Circuit.Textio.parse_string
      (Circuit.Textio.to_string case.netlist ~property:case.property)
  in
  let cfg =
    Bmc.Session.make_config ~mode:Bmc.Session.Dynamic ~collect_cores:true
      ~max_depth:depth ()
  in
  let s = Bmc.Session.create cfg netlist ~property in
  let rec go k =
    if k > depth then (P.Bounded_pass depth, Bmc.Session.last_core_vars s)
    else
      let st = Bmc.Session.solve_depth s ~k in
      match st.Bmc.Session.outcome with
      | Sat.Solver.Sat ->
        let tr = Bmc.Session.trace s in
        (P.Falsified (k, P.trace_to_json netlist tr), [])
      | Sat.Solver.Unsat -> go (k + 1)
      | Sat.Solver.Unknown -> (P.Aborted k, [])
  in
  go 0

let same_verdict what want got =
  match (want, got) with
  | P.Falsified (dw, tw), P.Falsified (dg, tg) ->
    Alcotest.(check int) (what ^ ": failure depth") dw dg;
    Alcotest.(check string)
      (what ^ ": counterexample trace")
      (Obs.Json.to_string tw) (Obs.Json.to_string tg)
  | P.Bounded_pass dw, P.Bounded_pass dg -> Alcotest.(check int) (what ^ ": bound") dw dg
  | P.Aborted dw, P.Aborted dg -> Alcotest.(check int) (what ^ ": abort depth") dw dg
  | _ -> Alcotest.failf "%s: verdict shapes differ" what

let test_cold_hit_warm_equivalence () =
  (* one circuit that holds within the budget, one that fails inside it *)
  List.iter
    (fun ((case : Circuit.Generators.case), depth) ->
      let want, want_core = reference case depth in
      with_engine (fun t ->
          let rs1 = S.check_now t (mk_request ~stats:true (inline_of case) depth) in
          check_cache "first request is a miss" P.Miss rs1;
          same_verdict "cold vs session" want (answer rs1).P.rs_verdict;
          Alcotest.(check (list int)) "cold core" want_core (answer rs1).P.rs_core;
          (* the repeat is answered from the memo, no solver work at all *)
          let rs2 = S.check_now t (mk_request ~stats:true (inline_of case) depth) in
          check_cache "repeat is a hit" P.Hit rs2;
          Alcotest.(check int) "hit does not solve" 0 (answer rs2).P.rs_solved;
          same_verdict "hit vs cold" want (answer rs2).P.rs_verdict;
          Alcotest.(check (list int)) "hit core" want_core (answer rs2).P.rs_core))
    [
      (Circuit.Generators.ring ~len:6 ~noise:4 (), 5);
      (Circuit.Generators.counter ~bits:3 ~target:5 ~noise:2 (), 8);
    ]

let test_warm_extension_matches_cold () =
  let case = Circuit.Generators.ring ~len:8 ~noise:8 () in
  let d0 = 4 and d1 = 7 in
  let want, want_core = reference case d1 in
  with_engine (fun t ->
      let rs1 = S.check_now t (mk_request (inline_of case) d0) in
      check_cache "first request is a miss" P.Miss rs1;
      (* deepening resumes the warm session at d0+1 ... *)
      let rs2 = S.check_now t (mk_request ~stats:true (inline_of case) d1) in
      check_cache "extension is warm" P.Warm rs2;
      Alcotest.(check int) "solved only the new depths" (d1 - d0) (answer rs2).P.rs_solved;
      (* ... and lands exactly where a cold sweep to d1 lands *)
      same_verdict "warm vs cold" want (answer rs2).P.rs_verdict;
      Alcotest.(check (list int)) "warm core" want_core (answer rs2).P.rs_core)

let test_falsified_memo_and_shallower_bound () =
  let case = Circuit.Generators.counter ~bits:3 ~target:4 ~noise:0 () in
  let fails_at =
    match case.expect with
    | Some (Circuit.Generators.Fails_at f) -> f
    | _ -> Alcotest.fail "generator no longer predicts a failure"
  in
  with_engine (fun t ->
      let deep = fails_at + 3 in
      let rs1 = S.check_now t (mk_request (inline_of case) deep) in
      (match (answer rs1).P.rs_verdict with
      | P.Falsified (d, _) -> Alcotest.(check int) "failure depth" fails_at d
      | _ -> Alcotest.fail "expected a counterexample");
      (* a falsified property stays falsified: any budget that reaches the
         failure depth is answered from the memo *)
      let rs2 = S.check_now t (mk_request (inline_of case) deep) in
      check_cache "falsified repeat is a hit" P.Hit rs2;
      (* a budget short of the failure depth is a bounded pass — the depths
         below the failure were proved UNSAT on the way there *)
      let shallow = fails_at - 1 in
      let rs3 = S.check_now t (mk_request (inline_of case) shallow) in
      check_cache "shallower bound is a hit" P.Hit rs3;
      match (answer rs3).P.rs_verdict with
      | P.Bounded_pass d -> Alcotest.(check int) "bound is the request's" shallow d
      | _ -> Alcotest.fail "expected a bounded pass")

(* ------------------------------------------------------------------ *)
(* Deadlines, admission control, drain.                                *)
(* ------------------------------------------------------------------ *)

let test_deadline_aborts_then_cold_recovers () =
  let case = Circuit.Generators.ring ~len:10 ~noise:16 () in
  with_engine (fun t ->
      (* an already-expired deadline: the stop hook fires on the first
         solver step, the instance aborts, the entry is invalidated *)
      let rs1 = S.check_now t (mk_request ~deadline_ms:0.0 (inline_of case) 8) in
      (match (answer rs1).P.rs_verdict with
      | P.Aborted _ -> ()
      | _ -> Alcotest.fail "expected a deadline abort");
      (* the aborted instance cannot be re-solved (depths must increase), so
         the next request must rebuild cold — and succeed *)
      let rs2 = S.check_now t (mk_request (inline_of case) 6) in
      check_cache "post-abort request rebuilds cold" P.Miss rs2;
      match (answer rs2).P.rs_verdict with
      | P.Bounded_pass 6 -> ()
      | _ -> Alcotest.fail "post-abort request must complete")

let test_shed_when_saturated () =
  with_engine ~max_pending:0 (fun t ->
      let got = ref None in
      S.submit t ~respond:(fun rs -> got := Some rs) (mk_request (P.Builtin "ring12") 4);
      match !got with
      | Some { P.rs_reply = P.Shed; _ } -> ()
      | _ -> Alcotest.fail "expected synchronous shed at max_pending=0")

let test_bad_requests_answered_inline () =
  with_engine (fun t ->
      let expect_error rq =
        let got = ref None in
        S.submit t ~respond:(fun rs -> got := Some rs) rq;
        match !got with
        | Some { P.rs_reply = P.Bad_request _; _ } -> ()
        | _ -> Alcotest.fail "expected a synchronous error"
      in
      expect_error (mk_request (P.Builtin "no-such-circuit") 4);
      expect_error (mk_request (P.Inline "gibberish netlist") 4);
      (* the depth cap (default 64) bounds the work a request can demand *)
      expect_error (mk_request (P.Builtin "ring12") 1000))

let test_drain_answers_everything () =
  let ledger = ref [] in
  let case = Circuit.Generators.ring ~len:6 ~noise:4 () in
  with_engine ~jobs:2 ~ledger:(fun j -> ledger := j :: !ledger) (fun t ->
      let answered = ref 0 in
      let respond _ = incr answered in
      for i = 0 to 5 do
        S.submit t ~respond (mk_request ~id:(string_of_int i) (inline_of case) (3 + (i mod 3)))
      done;
      S.begin_drain t;
      (* admission is closed the instant the drain begins *)
      let late = ref None in
      S.submit t ~respond:(fun rs -> late := Some rs) (mk_request (inline_of case) 3);
      (match !late with
      | Some { P.rs_reply = P.Draining; _ } -> ()
      | _ -> Alcotest.fail "late request must be refused as draining");
      S.drain t;
      Alcotest.(check int) "every admitted request answered" 6 !answered;
      Alcotest.(check int) "nothing left pending" 0 (S.pending t);
      (* every response is ledgered — the six verdicts and the refusal *)
      Alcotest.(check int) "ledger lines" 7 (List.length !ledger);
      let status s =
        List.length
          (List.filter (fun j -> Obs.Json.get_str ~default:"" j "status" = s) !ledger)
      in
      Alcotest.(check int) "ok lines" 6 (status "ok");
      Alcotest.(check int) "draining line" 1 (status "draining");
      List.iter
        (fun j ->
          if Obs.Json.get_str ~default:"" j "status" = "ok" then
            Alcotest.(check bool) "ledger has a digest" true
              (Obs.Json.member "digest" j <> None))
        !ledger)

(* ------------------------------------------------------------------ *)
(* Parallel serving and the cache bound.                               *)
(* ------------------------------------------------------------------ *)

let test_two_parses_one_entry () =
  (* two separately-parsed copies of one circuit: digest-keyed identity
     must give them the same cache entry, and the answers must match the
     sequential reference *)
  let case = Circuit.Generators.lfsr ~width:8 ~noise:8 () in
  let depth = 7 in
  let want, _ = reference case depth in
  with_engine ~jobs:2 (fun t ->
      let rs1 = S.check_now t (mk_request ~id:"p1" (inline_of case) depth) in
      let rs2 = S.check_now t (mk_request ~id:"p2" (inline_of case) depth) in
      check_cache "first parse is a miss" P.Miss rs1;
      check_cache "second parse hits the same entry" P.Hit rs2;
      same_verdict "cold vs session" want (answer rs1).P.rs_verdict;
      same_verdict "hit answer" want (answer rs2).P.rs_verdict)

(* The byte bound across many distinct digests: twenty circuits that
   differ only in their noise registers, each a cold miss on a new entry,
   through one server whose budget holds one or two of them (an entry
   solved to depth 2 holds 12-64 KB of clause arena).  Resident bytes stay
   within the bound after every answer and after the drain, and the LRU
   keeps them there by evicting the older entries, not the newest. *)
let test_cache_bound_across_digests () =
  let bound = 96 * 1024 in
  let depth = 2 in
  with_engine ~cache_bytes:bound (fun t ->
      let digests = Hashtbl.create 32 in
      for n = 0 to 19 do
        let case = Circuit.Generators.lfsr ~width:8 ~noise:n () in
        Hashtbl.replace digests (Circuit.Netlist.digest case.netlist) ();
        let rs = S.check_now t (mk_request ~id:(string_of_int n) (inline_of case) depth) in
        check_cache (Printf.sprintf "request %d is a miss" n) P.Miss rs;
        let bytes = (S.stats t).S.st_bytes in
        if bytes > bound then
          Alcotest.failf "after request %d: %d resident bytes exceed the %d-byte bound" n bytes
            bound
      done;
      Alcotest.(check int) "twenty distinct digests" 20 (Hashtbl.length digests);
      S.drain t;
      let st = S.stats t in
      Alcotest.(check bool) "within the bound after the drain" true (st.S.st_bytes <= bound);
      Alcotest.(check bool) "the bound evicted entries" true (st.S.st_evicted > 0);
      Alcotest.(check bool) "some entries stayed resident" true (st.S.st_entries > 0);
      Alcotest.(check int) "every request answered" 20 st.S.st_answered)

let test_modes_are_distinct_entries () =
  (* same circuit, different requested orderings: distinct sessions, all
     correct *)
  let case = Circuit.Generators.gray ~bits:4 ~noise:4 () in
  let depth = 6 in
  let want, _ = reference case depth in
  with_engine ~jobs:2 (fun t ->
      let rs_dyn =
        S.check_now t (mk_request ~id:"dyn" ~mode:Bmc.Session.Dynamic (inline_of case) depth)
      in
      check_cache "dynamic is a miss" P.Miss rs_dyn;
      same_verdict "dynamic" want (answer rs_dyn).P.rs_verdict;
      (* every other ordering, a laboratory heuristic included, gets its own
         entry and the same verdict *)
      List.iter
        (fun name ->
          let mode = Option.get (Ordering.mode_of_name name) in
          let rs = S.check_now t (mk_request ~id:name ~mode (inline_of case) depth) in
          check_cache (name ^ " is its own entry") P.Miss rs;
          match ((answer rs).P.rs_verdict, want) with
          | P.Bounded_pass a, P.Bounded_pass b -> Alcotest.(check int) (name ^ " bound") b a
          | P.Falsified (a, _), P.Falsified (b, _) -> Alcotest.(check int) (name ^ " depth") b a
          | _ -> Alcotest.failf "%s and dynamic verdicts diverge" name)
        [ "static"; "chb" ])

let tests =
  [
    Alcotest.test_case "request line round-trips" `Quick test_request_roundtrip;
    Alcotest.test_case "malformed requests rejected" `Quick test_request_rejects_garbage;
    Alcotest.test_case "request modes are registry names" `Quick
      test_request_modes_are_registry_names;
    Alcotest.test_case "rejections keep the request id" `Quick test_rejection_keeps_request_id;
    Alcotest.test_case "response json round-trips" `Quick test_response_roundtrip;
    Alcotest.test_case "cold and hit match a session" `Quick test_cold_hit_warm_equivalence;
    Alcotest.test_case "warm extension = cold sweep" `Quick test_warm_extension_matches_cold;
    Alcotest.test_case "falsified memo and shallower bounds" `Quick
      test_falsified_memo_and_shallower_bound;
    Alcotest.test_case "deadline abort invalidates, cold recovers" `Quick
      test_deadline_aborts_then_cold_recovers;
    Alcotest.test_case "saturated server sheds" `Quick test_shed_when_saturated;
    Alcotest.test_case "bad requests answered inline" `Quick test_bad_requests_answered_inline;
    Alcotest.test_case "drain answers everything, ledgers it" `Quick
      test_drain_answers_everything;
    Alcotest.test_case "two parses share one entry (jobs=2, one digest)" `Quick
      test_two_parses_one_entry;
    Alcotest.test_case "cache bound holds across 20 digests" `Quick
      test_cache_bound_across_digests;
    Alcotest.test_case "modes get distinct entries" `Quick test_modes_are_distinct_entries;
  ]
