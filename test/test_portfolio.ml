(* Portfolio subsystem: pool scheduling and cancellation, domain ownership,
   strategy races vs the sequential engines, and the deterministic-portfolio
   differential (Session / Induction / Ltl outcomes must not depend on the
   number of workers). *)

module Pool = Portfolio.Pool

let outcome_char = function
  | Sat.Solver.Sat -> 's'
  | Sat.Solver.Unsat -> 'u'
  | Sat.Solver.Unknown -> '?'

let session_outcomes (r : Bmc.Session.result) =
  String.init (List.length r.per_depth) (fun i ->
      outcome_char (List.nth r.per_depth i).Bmc.Session.outcome)

let race_outcomes (r : Portfolio.result) =
  String.init (List.length r.per_depth) (fun i ->
      outcome_char (List.nth r.per_depth i).Portfolio.stat.Bmc.Session.outcome)

(* ------------------------------------------------------------------ *)
(* Pool basics.                                                        *)
(* ------------------------------------------------------------------ *)

let test_map_list_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 50 Fun.id in
      let ys = Pool.map_list pool (fun x -> x * x) xs in
      Alcotest.(check (list int)) "order preserved" (List.map (fun x -> x * x) xs) ys)

let test_exception_propagates () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let fut = Pool.submit pool (fun () -> failwith "boom") in
      (match Pool.await fut with
      | exception Failure msg -> Alcotest.(check string) "original exception" "boom" msg
      | _ -> Alcotest.fail "expected the job's exception");
      (* the pool survives a failing job *)
      Alcotest.(check int) "pool still works" 7 (Pool.await (Pool.submit pool (fun () -> 7))))

let test_submit_after_shutdown_rejected () =
  let pool = Pool.create ~jobs:1 () in
  Pool.shutdown pool;
  match Pool.submit pool (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"

let test_affinity_pins_worker () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let worker_of i =
        Pool.await (Pool.submit ~affinity:i pool (fun () -> (Domain.self () :> int)))
      in
      (* the same affinity always lands on the same domain; that is what
         lets racer jobs reuse their domain-confined session *)
      Alcotest.(check int) "affinity 0 stable" (worker_of 0) (worker_of 0);
      Alcotest.(check int) "affinity 1 stable" (worker_of 1) (worker_of 1);
      Alcotest.(check bool) "different affinities, different domains" true
        (worker_of 0 <> worker_of 1))

let test_cancel_latency () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let token = Pool.Token.create () in
      let fut =
        Pool.submit pool (fun () ->
            while not (Pool.Token.cancelled token) do
              Domain.cpu_relax ()
            done;
            Pool.wall ())
      in
      (* give the worker a moment to enter the loop, then cancel *)
      Unix.sleepf 0.02;
      let t_cancel = Pool.wall () in
      Pool.Token.cancel token;
      let t_exit = Pool.await fut in
      Alcotest.(check bool) "cooperative exit under a second" true
        (t_exit -. t_cancel < 1.0))

let test_queue_wait_telemetry () =
  let agg = Telemetry.Sink.aggregate () in
  let tel = Telemetry.create (Telemetry.Sink.of_aggregate agg) in
  Pool.with_pool ~telemetry:tel ~jobs:2 (fun pool ->
      ignore (Pool.map_list pool (fun x -> x) [ 1; 2; 3; 4 ]));
  Alcotest.(check int) "one queue_wait span per job" 4
    (Telemetry.Sink.span_count agg "queue_wait")

(* ------------------------------------------------------------------ *)
(* Domain ownership.                                                   *)
(* ------------------------------------------------------------------ *)

let test_session_domain_confined () =
  let case = Circuit.Generators.ring ~len:4 () in
  let s =
    Bmc.Session.create ~policy:Bmc.Session.Persistent Bmc.Session.default_config case.netlist
      ~property:case.property
  in
  (* fine on the owning domain *)
  Bmc.Session.begin_instance s ~k:0;
  (* any instance-building call from another domain must be refused *)
  let refused =
    Domain.join
      (Domain.spawn (fun () ->
           match Bmc.Session.constrain s [] with
           | exception Invalid_argument _ -> true
           | _ -> false))
  in
  Alcotest.(check bool) "cross-domain call refused" true refused

(* ------------------------------------------------------------------ *)
(* Mode A: races.                                                      *)
(* ------------------------------------------------------------------ *)

let race_config ~max_depth =
  Bmc.Session.make_config ~mode:Bmc.Session.Static ~max_depth ()

let test_race_matches_sequential_holds () =
  let case = Circuit.Generators.ring ~len:6 ~noise:8 () in
  let seq =
    Bmc.Session.check ~config:(race_config ~max_depth:6) ~policy:Bmc.Session.Persistent
      case.netlist ~property:case.property
  in
  Pool.with_pool ~jobs:3 (fun pool ->
      let par =
        Portfolio.check_race ~config:(race_config ~max_depth:6) ~pool case.netlist
          ~property:case.property
      in
      Alcotest.(check string) "outcome string" (session_outcomes seq) (race_outcomes par);
      match (seq.verdict, par.verdict) with
      | Bmc.Session.Bounded_pass a, Bmc.Session.Bounded_pass b ->
        Alcotest.(check int) "same bound" a b
      | _ -> Alcotest.fail "expected Bounded_pass from both")

let test_race_finds_counterexample () =
  let case = Circuit.Generators.counter ~noise:6 ~bits:4 ~target:5 () in
  let seq =
    Bmc.Session.check ~config:(race_config ~max_depth:8) ~policy:Bmc.Session.Persistent
      case.netlist ~property:case.property
  in
  Pool.with_pool ~jobs:3 (fun pool ->
      let par =
        Portfolio.check_race ~config:(race_config ~max_depth:8) ~pool case.netlist
          ~property:case.property
      in
      Alcotest.(check string) "outcome string" (session_outcomes seq) (race_outcomes par);
      match (seq.verdict, par.verdict) with
      | Bmc.Session.Falsified ts, Bmc.Session.Falsified tp ->
        Alcotest.(check int) "same counterexample depth" ts.Bmc.Trace.depth tp.Bmc.Trace.depth;
        Alcotest.(check bool) "portfolio trace replays" true
          (Bmc.Trace.replay tp case.netlist ~property:case.property)
      | _ -> Alcotest.fail "expected Falsified from both")

let test_race_telemetry_and_cancellation () =
  let agg = Telemetry.Sink.aggregate () in
  let tel = Telemetry.create (Telemetry.Sink.of_aggregate agg) in
  let case = Circuit.Generators.parity_pipe ~stages:5 ~noise:16 () in
  let config =
    Bmc.Session.make_config ~mode:Bmc.Session.Static ~max_depth:5 ~telemetry:tel ()
  in
  Pool.with_pool ~telemetry:tel ~jobs:3 (fun pool ->
      let par = Portfolio.check_race ~config ~pool case.netlist ~property:case.property in
      let rounds = List.length par.per_depth in
      Alcotest.(check int) "one race event per depth" rounds
        (Telemetry.Sink.tally_value agg "race");
      let total_wins =
        List.fold_left (fun acc (_, n) -> acc + n) 0 par.Portfolio.wins
      in
      Alcotest.(check int) "every round has a winner" rounds total_wins;
      (* the acceptance gate: when a loser was cancelled, it left within a
         restart interval — bounded here by a generous wall-clock second *)
      List.iter
        (fun (rs : Portfolio.race_stat) ->
          if rs.Portfolio.cancelled > 0 then
            Alcotest.(check bool) "cancelled loser exits quickly" true
              (rs.Portfolio.max_cancel_latency < 1.0))
        par.per_depth;
      let cancelled =
        List.fold_left (fun acc (rs : Portfolio.race_stat) -> acc + rs.Portfolio.cancelled)
          0 par.per_depth
      in
      Alcotest.(check int) "cancellation counter matches rounds" cancelled
        (Telemetry.Sink.counter_value agg "race.cancelled");
      Alcotest.(check int) "one latency span per cancelled loser" cancelled
        (Telemetry.Sink.span_count agg "cancel_latency"))

(* A winner's solve runs inside its round, so on the wall clock it cannot
   outlast the round; a process-wide CPU clock would also count the
   sibling racers' work on the other worker. *)
let test_race_times_on_the_wall_clock () =
  let case = Circuit.Generators.ring ~len:16 ~noise:24 () in
  Pool.with_pool ~jobs:2 (fun pool ->
      let par =
        Portfolio.check_race ~config:(race_config ~max_depth:14) ~pool case.netlist
          ~property:case.property
      in
      List.iter
        (fun (rs : Portfolio.race_stat) ->
          if rs.winner <> None && rs.stat.Bmc.Session.time > rs.wall then
            Alcotest.failf "depth %d: the winner solved for %.4fs in a %.4fs round" rs.depth
              rs.stat.Bmc.Session.time rs.wall)
        par.per_depth)

let test_race_depth_must_increase () =
  let case = Circuit.Generators.ring ~len:4 () in
  Pool.with_pool ~jobs:2 (fun pool ->
      let race =
        Portfolio.create_race ~pool (race_config ~max_depth:4) case.netlist
          ~property:case.property
      in
      ignore (Portfolio.race_depth race ~k:1);
      match Portfolio.race_depth race ~k:1 with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument on a repeated depth")

let test_race_custom_racers () =
  let case = Circuit.Generators.ring ~len:4 () in
  Pool.with_pool ~jobs:2 (fun pool ->
      (match
         Portfolio.create_race ~racers:[] ~pool (race_config ~max_depth:4) case.netlist
           ~property:case.property
       with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument on an empty ensemble");
      (* a two-racer ensemble with custom restart units must still agree
         with the sequential run *)
      let seq =
        Bmc.Session.check ~config:(race_config ~max_depth:4) ~policy:Bmc.Session.Persistent
          case.netlist ~property:case.property
      in
      let par =
        Portfolio.check_race ~config:(race_config ~max_depth:4)
          ~racers:
            [
              Portfolio.racer ~name:"standard" ~restart_base:32 Bmc.Session.Standard;
              Portfolio.racer ~name:"dynamic" ~restart_base:200 Bmc.Session.Dynamic;
            ]
          ~pool case.netlist ~property:case.property
      in
      Alcotest.(check string) "outcome string" (session_outcomes seq) (race_outcomes par))

(* Adaptive rotation: a lone racer with a one-conflict budget cannot be
   cancelled (there is no winner to cancel it), so the first depth whose
   instance needs more than one conflict deterministically exhausts the
   budget and recycles the slot onto the rotation queue. *)
let test_race_rotation () =
  let case = Circuit.Generators.parity_pipe ~stages:12 () in
  Pool.with_pool ~jobs:1 (fun pool ->
      let starved name = Portfolio.racer ~name ~conflicts:1 Bmc.Session.Standard in
      let race =
        Portfolio.create_race
          ~racers:[ starved "starved0" ]
          ~rotation:[ starved "rot1"; starved "rot2" ]
          ~pool (race_config ~max_depth:24) case.netlist ~property:case.property
      in
      let rotations = ref [] in
      let rec drive k =
        if k <= 24 && Portfolio.race_rotated race < 1 then begin
          let rs = Portfolio.race_depth race ~k in
          if rs.Portfolio.rotated > 0 then rotations := rs :: !rotations;
          drive (k + 1)
        end
      in
      drive 0;
      Alcotest.(check bool) "rotation fired" true (Portfolio.race_rotated race >= 1);
      (* per-round counts account for the run total *)
      Alcotest.(check int) "per-round rotation counts sum"
        (Portfolio.race_rotated race)
        (List.fold_left
           (fun acc (rs : Portfolio.race_stat) -> acc + rs.Portfolio.rotated)
           0 !rotations);
      (* the rotated-in heuristic is tallied (zero wins so far), the
         recycled slot keeps its history *)
      let names = List.map fst (Portfolio.race_wins race) in
      List.iter
        (fun n -> Alcotest.(check bool) (n ^ " tallied") true (List.mem n names))
        [ "starved0"; "rot1" ])

(* ------------------------------------------------------------------ *)
(* The deterministic-portfolio differential (satellite): outcomes at     *)
(* --jobs 2 and 4 must equal the sequential run, per engine.            *)
(* ------------------------------------------------------------------ *)

let differential_cases () =
  [
    Circuit.Generators.counter ~noise:6 ~bits:4 ~target:5 ();
    Circuit.Generators.shift_in ~noise:6 ~len:4 ();
    Circuit.Generators.ring ~noise:8 ~len:6 ();
    Circuit.Generators.parity_pipe ~noise:8 ~stages:4 ();
  ]

let test_batch_differential_engine () =
  let cases = differential_cases () in
  let config = race_config ~max_depth:6 in
  let seq =
    List.map
      (fun (case : Circuit.Generators.case) ->
        session_outcomes
          (Bmc.Session.check ~config ~policy:Bmc.Session.Persistent case.netlist
             ~property:case.property))
      cases
  in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let batch =
            Portfolio.check_batch ~pool ~config
              (List.map
                 (fun (case : Circuit.Generators.case) ->
                   (case.name, case.netlist, case.property))
                 cases)
          in
          List.iter2
            (fun a (_, r) ->
              Alcotest.(check string)
                (Printf.sprintf "engine outcomes, jobs=%d" jobs)
                a (session_outcomes r))
            seq batch))
    [ 2; 4 ]

let test_batch_differential_induction () =
  let cases = differential_cases () in
  let prove (case : Circuit.Generators.case) =
    let r =
      Bmc.Induction.prove ~config:(race_config ~max_depth:6) case.netlist
        ~property:case.property
    in
    String.concat ""
      (List.map
         (fun (st : Bmc.Induction.step_stat) ->
           Printf.sprintf "%c%c"
             (outcome_char st.Bmc.Induction.base_outcome)
             (match st.Bmc.Induction.step_outcome with
             | Some o -> outcome_char o
             | None -> '-'))
         r.Bmc.Induction.per_depth)
  in
  let seq = List.map prove cases in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let batch = Pool.map_list pool prove cases in
          List.iter2
            (fun a b ->
              Alcotest.(check string)
                (Printf.sprintf "induction outcomes, jobs=%d" jobs)
                a b)
            seq batch))
    [ 2; 4 ]

let test_batch_differential_ltl () =
  let cases = differential_cases () in
  let check (case : Circuit.Generators.case) =
    let r =
      Bmc.Ltl.check ~config:(race_config ~max_depth:6) case.netlist
        (Bmc.Ltl.always (Bmc.Ltl.atom case.property))
    in
    String.init (List.length r.Bmc.Ltl.per_depth) (fun i ->
        outcome_char (List.nth r.Bmc.Ltl.per_depth i).Bmc.Session.outcome)
  in
  let seq = List.map check cases in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let batch = Pool.map_list pool check cases in
          List.iter2
            (fun a b ->
              Alcotest.(check string) (Printf.sprintf "ltl outcomes, jobs=%d" jobs) a b)
            seq batch))
    [ 2; 4 ]

let test_batch_results_in_input_order () =
  let cases = differential_cases () in
  Pool.with_pool ~jobs:4 (fun pool ->
      let results =
        Portfolio.check_batch ~pool ~config:(race_config ~max_depth:5)
          (List.map
             (fun (case : Circuit.Generators.case) -> (case.name, case.netlist, case.property))
             cases)
      in
      Alcotest.(check (list string)) "names in input order"
        (List.map (fun (case : Circuit.Generators.case) -> case.name) cases)
        (List.map fst results))

let tests =
  [
    Alcotest.test_case "map_list preserves order" `Quick test_map_list_order;
    Alcotest.test_case "job exceptions propagate" `Quick test_exception_propagates;
    Alcotest.test_case "submit after shutdown rejected" `Quick test_submit_after_shutdown_rejected;
    Alcotest.test_case "affinity pins jobs to workers" `Quick test_affinity_pins_worker;
    Alcotest.test_case "token cancellation is prompt" `Quick test_cancel_latency;
    Alcotest.test_case "queue-wait telemetry" `Quick test_queue_wait_telemetry;
    Alcotest.test_case "sessions are domain-confined" `Quick test_session_domain_confined;
    Alcotest.test_case "race = sequential on a holding circuit" `Quick
      test_race_matches_sequential_holds;
    Alcotest.test_case "race finds the same counterexample" `Quick test_race_finds_counterexample;
    Alcotest.test_case "race telemetry and cancellation latency" `Quick
      test_race_telemetry_and_cancellation;
    Alcotest.test_case "race seconds are wall-clock" `Quick test_race_times_on_the_wall_clock;
    Alcotest.test_case "race depths must increase" `Quick test_race_depth_must_increase;
    Alcotest.test_case "custom racer ensembles" `Quick test_race_custom_racers;
    Alcotest.test_case "adaptive racer rotation" `Quick test_race_rotation;
    Alcotest.test_case "differential: engine (jobs 2/4)" `Quick test_batch_differential_engine;
    Alcotest.test_case "differential: induction (jobs 2/4)" `Quick
      test_batch_differential_induction;
    Alcotest.test_case "differential: ltl (jobs 2/4)" `Quick test_batch_differential_ltl;
    Alcotest.test_case "batch keeps input order" `Quick test_batch_results_in_input_order;
  ]
