(* Portfolio subsystem: pool scheduling, domain ownership, property
   batches, and the deterministic-portfolio differential (Session /
   Induction / Ltl outcomes must not depend on the number of workers). *)

module Pool = Portfolio.Pool

let outcome_char = function
  | Sat.Solver.Sat -> 's'
  | Sat.Solver.Unsat -> 'u'
  | Sat.Solver.Unknown -> '?'

let session_outcomes (r : Bmc.Session.result) =
  String.init (List.length r.per_depth) (fun i ->
      outcome_char (List.nth r.per_depth i).Bmc.Session.outcome)

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
         lets the serve layer's jobs reuse a warm, domain-confined session *)
      Alcotest.(check int) "affinity 0 stable" (worker_of 0) (worker_of 0);
      Alcotest.(check int) "affinity 1 stable" (worker_of 1) (worker_of 1);
      Alcotest.(check bool) "different affinities, different domains" true
        (worker_of 0 <> worker_of 1))

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
(* Property batches.                                                   *)
(* ------------------------------------------------------------------ *)

let static_config ~max_depth =
  Bmc.Session.make_config ~mode:Bmc.Session.Static ~max_depth ()

(* Two items solve at once on two workers.  An item's solves run inside the
   batch, so on the wall clock their seconds cannot add up to more than the
   batch's wall; a process-wide CPU clock would also count the other
   item's work on the other worker. *)
let test_batch_times_on_the_wall_clock () =
  let case = Circuit.Generators.ring ~len:16 ~noise:24 () in
  let item name = (name, case.netlist, case.property, 16) in
  Pool.with_pool ~jobs:2 (fun pool ->
      let t0 = Telemetry.wall () in
      let results =
        Portfolio.check_batch ~config:(static_config ~max_depth:16) ~pool
          [ item "a"; item "b" ]
      in
      let wall = Telemetry.wall () -. t0 in
      List.iter
        (fun (name, (r : Bmc.Session.result)) ->
          let solved =
            List.fold_left (fun acc (d : Bmc.Session.depth_stat) -> acc +. d.time) 0.0
              r.per_depth
          in
          if solved > wall then
            Alcotest.failf "item %s solved for %.4fs in a %.4fs batch" name solved wall)
        results)

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
  let config = static_config ~max_depth:6 in
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
                   (case.name, case.netlist, case.property, config.Bmc.Session.max_depth))
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
      Bmc.Induction.prove ~config:(static_config ~max_depth:6) case.netlist
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
      Bmc.Ltl.check ~config:(static_config ~max_depth:6) case.netlist
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

(* Each item carries its own bound: the batch must hand every property its
   own max depth and return the results in input order. *)
let test_batch_results_in_input_order () =
  let cases = differential_cases () in
  (* all below the failing cases' counterexample depths, so every item
     ends in a bounded pass at exactly its own bound *)
  let depths = [ 2; 3; 5; 4 ] in
  Pool.with_pool ~jobs:4 (fun pool ->
      let results =
        Portfolio.check_batch ~pool ~config:(static_config ~max_depth:6)
          (List.map2
             (fun (case : Circuit.Generators.case) depth ->
               (case.name, case.netlist, case.property, depth))
             cases depths)
      in
      Alcotest.(check (list string)) "names in input order"
        (List.map (fun (case : Circuit.Generators.case) -> case.name) cases)
        (List.map fst results);
      List.iter2
        (fun depth (name, (r : Bmc.Session.result)) ->
          (match r.verdict with
          | Bmc.Session.Bounded_pass k -> Alcotest.(check int) (name ^ " bound") depth k
          | _ -> Alcotest.failf "%s: expected a bounded pass at depth %d" name depth);
          Alcotest.(check int) (name ^ " depths checked") (depth + 1)
            (List.length r.per_depth))
        depths results)

let tests =
  [
    Alcotest.test_case "map_list preserves order" `Quick test_map_list_order;
    Alcotest.test_case "job exceptions propagate" `Quick test_exception_propagates;
    Alcotest.test_case "submit after shutdown rejected" `Quick test_submit_after_shutdown_rejected;
    Alcotest.test_case "affinity pins jobs to workers" `Quick test_affinity_pins_worker;
    Alcotest.test_case "queue-wait telemetry" `Quick test_queue_wait_telemetry;
    Alcotest.test_case "sessions are domain-confined" `Quick test_session_domain_confined;
    Alcotest.test_case "race seconds are wall-clock" `Quick test_batch_times_on_the_wall_clock;
    Alcotest.test_case "differential: engine (jobs 2/4)" `Quick test_batch_differential_engine;
    Alcotest.test_case "differential: induction (jobs 2/4)" `Quick
      test_batch_differential_induction;
    Alcotest.test_case "differential: ltl (jobs 2/4)" `Quick test_batch_differential_ltl;
    Alcotest.test_case "batch keeps input order" `Quick test_batch_results_in_input_order;
  ]
