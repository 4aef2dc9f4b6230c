(* BMC property checker CLI.

   Checks the invariant property of a circuit (a .rnl netlist, an AIGER
   .aag/.aig file, or a named built-in benchmark) by bounded model checking
   with a selectable decision ordering, or proves it by k-induction.
   With several CIRCUIT arguments the properties are batch-solved across
   a domain pool, one ordering per property.
   Exit codes: 10 = counterexample found, 20 = bounded pass / proved,
   0 = aborted on budget / undecided, 2 = input error.  A batch exits with
   the most severe code across its properties (10 over 0 over 20). *)

let load source =
  match Circuit.Generators.by_name source with
  | Some case -> Ok (case.Circuit.Generators.netlist, case.Circuit.Generators.property, Some case)
  | None -> (
    try
      if Filename.check_suffix source ".aag" || Filename.check_suffix source ".aig" then
        let nl, prop = Circuit.Aiger.parse_file source in
        Ok (nl, prop, None)
      else
        let nl, prop = Circuit.Textio.parse_file source in
        Ok (nl, prop, None)
    with
    | Circuit.Textio.Parse_error msg -> Error msg
    | Circuit.Aiger.Parse_error msg -> Error msg
    | Sys_error msg -> Error msg)

(* The run's telemetry for --trace/--metrics/--ledger/--flight-recorder
   ({!Obs.Run}); its artefacts are written at exit, which covers every exit
   path (the tool exits with protocol-specific codes all over) and comes
   after every worker domain has been joined.  The --metrics report goes
   to stdout. *)
let setup_telemetry trace metrics ledger flight =
  let metrics = if metrics then Some Format.std_formatter else None in
  let telemetry, finish =
    Obs.Run.setup ~tool:"bmccheck" ?trace ?metrics ?ledger ?flight ()
  in
  at_exit finish;
  telemetry

let pp_depth_stat ppf (d : Bmc.Session.depth_stat) =
  Format.fprintf ppf
    "depth %3d: %-7s dec=%-8d impl=%-10d confl=%-7d core=%d vars, build=%.3fs solve=%.3fs \
     cdg=%.3fs%s"
    d.depth
    (Format.asprintf "%a" Sat.Solver.pp_outcome d.outcome)
    d.decisions d.implications d.conflicts d.core_var_count d.build_time d.time d.cdg_time
    (if d.switched then " [switched to VSIDS]" else "");
  if d.inpr_elim + d.inpr_subsumed + d.inpr_strengthened + d.inpr_probe_failed > 0 then
    Format.fprintf ppf " [inpr elim=%d sub=%d str=%d probes=%d]" d.inpr_elim d.inpr_subsumed
      d.inpr_strengthened d.inpr_probe_failed;
  if d.core_pre > 0 && d.core_pre <> d.core_size then
    Format.fprintf ppf " [coremin %d->%d clauses%s]" d.core_pre d.core_size
      (if d.coremin_certified then "" else ", uncertified")

(* --inprocess exit summary: totals over the run's depth stats, printed
   only when inprocessing was requested (so default output is unchanged) *)
let pp_inprocess_summary source (per_depth : Bmc.Session.depth_stat list) =
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 per_depth in
  let time =
    List.fold_left (fun acc (d : Bmc.Session.depth_stat) -> acc +. d.inpr_time) 0.0 per_depth
  in
  Format.printf
    "%s: inprocessing eliminated %d vars, subsumed %d clauses, strengthened %d, %d failed \
     probes (%.3fs)@."
    source
    (sum (fun d -> d.Bmc.Session.inpr_elim))
    (sum (fun d -> d.Bmc.Session.inpr_subsumed))
    (sum (fun d -> d.Bmc.Session.inpr_strengthened))
    (sum (fun d -> d.Bmc.Session.inpr_probe_failed))
    time

(* --core-min exit summary: totals over the run's depth stats, printed only
   when minimisation was requested (so default output is unchanged) *)
let pp_coremin_summary source (per_depth : Bmc.Session.depth_stat list) =
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 per_depth in
  let pre = sum (fun (d : Bmc.Session.depth_stat) -> d.core_pre) in
  let post = sum (fun (d : Bmc.Session.depth_stat) -> d.core_size) in
  let time =
    List.fold_left
      (fun acc (d : Bmc.Session.depth_stat) -> acc +. d.coremin_time)
      0.0 per_depth
  in
  let uncertified =
    List.exists (fun (d : Bmc.Session.depth_stat) -> not d.coremin_certified) per_depth
  in
  Format.printf "%s: core minimisation %d -> %d clauses (%.3fs, %s)@." source pre post time
    (if uncertified then "NOT all certified" else "all certified")

(* --core-min[=N] -> session core policy: minimal cores, optionally bounded
   to N minimisation solver calls *)
let core_opts core_min =
  match core_min with
  | None -> (Bmc.Session.Core_fast, Sat.Coremin.no_budget)
  | Some n ->
    ( Bmc.Session.Core_minimal,
      if n >= 0 then { Sat.Coremin.no_budget with Sat.Coremin.max_solves = Some n }
      else Sat.Coremin.no_budget )

let parse_inprocess = function
  | None -> None
  | Some spec -> (
    match Sat.Inprocess.config_of_string spec with
    | Ok cfg -> Some cfg
    | Error msg ->
      Format.eprintf "bmccheck: --inprocess: %s@." msg;
      exit 2)

(* Every ordering name resolves through the heuristic registry, so --mode
   accepts the laboratory heuristic chb next to the four built-ins. *)
let parse_mode mode_name =
  match Ordering.mode_of_name mode_name with
  | Some m -> m
  | None ->
    Format.eprintf "bmccheck: unknown ordering %S (available: %s)@." mode_name
      (String.concat "|" (Ordering.names ()));
    exit 2

let parse_weighting = function
  | "linear" -> Bmc.Score.Linear
  | "uniform" -> Bmc.Score.Uniform
  | "last" -> Bmc.Score.Last_only
  | w ->
    Format.eprintf "bmccheck: unknown weighting %S (linear|uniform|last)@." w;
    exit 2

let run_single source engine_name mode_name max_depth coi weighting_name verbose max_conflicts
    max_seconds simple_path fresh_solver ltl_formula inprocess core_min trace_file metrics
    ledger_file flight_file =
  let mode = parse_mode mode_name in
  let weighting = parse_weighting weighting_name in
  match load source with
  | Error msg ->
    Format.eprintf "bmccheck: %s@." msg;
    exit 2
  | Ok (netlist, property, case) ->
    let max_depth =
      match (max_depth, case) with
      | Some d, _ -> d
      | None, Some c -> c.Circuit.Generators.suggested_depth
      | None, None -> 20
    in
    let budget =
      { Sat.Solver.max_conflicts; max_propagations = None; max_seconds; stop = None }
    in
    let telemetry = setup_telemetry trace_file metrics ledger_file flight_file in
    let core_mode, coremin_budget = core_opts core_min in
    let config =
      Bmc.Session.make_config ~mode ~weighting ~coi ~budget ~max_depth ?inprocess ~core_mode
        ~coremin_budget ~telemetry ()
    in
    (* induction and LTL take the session policy directly; for the invariant
       engines the policy is the engine name (bmc = fresh, incremental =
       persistent) *)
    let policy = if fresh_solver then Bmc.Session.Fresh else Bmc.Session.Persistent in
    if inprocess <> None && (fresh_solver || (ltl_formula = None && engine_name = "bmc")) then
      Format.eprintf
        "bmccheck: note: --inprocess only acts on persistent sessions (use --engine \
         incremental, or drop --fresh-solver)@.";
    (match ltl_formula with
    | Some text ->
      let formula =
        try Bmc.Ltl.parse netlist text
        with Bmc.Ltl.Parse_error msg ->
          Format.eprintf "bmccheck: LTL syntax: %s@." msg;
          exit 2
      in
      let r = Bmc.Ltl.check ~config ~policy netlist formula in
      if verbose then
        List.iter (fun d -> Format.printf "%a@." pp_depth_stat d) r.per_depth;
      if inprocess <> None then pp_inprocess_summary source r.per_depth;
      (match r.verdict with
      | Bmc.Ltl.Falsified w ->
        Format.printf "%s: LTL property falsified at depth %d (%s)@." source w.depth
          (match w.loop_start with
          | Some l -> Printf.sprintf "lasso back to state %d" l
          | None -> "finite prefix");
        Format.printf "%a@." (Bmc.Trace.pp ~netlist ()) w.trace;
        exit 10
      | Bmc.Ltl.Bounded_pass k ->
        Format.printf "%s: no LTL counterexample up to depth %d (%.3fs)@." source k
          r.total_time;
        exit 20
      | Bmc.Ltl.Aborted k ->
        Format.printf "%s: LTL check aborted at depth %d@." source k;
        exit 0)
    | None -> ());
    (match engine_name with
    | "bmc" | "incremental" -> ()
    | "interpolation" ->
      let r = Bmc.Interpolation.prove netlist ~property in
      Format.printf "%s: %a (%.3fs)@." source Bmc.Interpolation.pp_verdict r.verdict
        r.total_time;
      (match r.verdict with
      | Bmc.Interpolation.Falsified trace ->
        Format.printf "%a@." (Bmc.Trace.pp ~netlist ()) trace;
        exit 10
      | Bmc.Interpolation.Proved _ -> exit 20
      | Bmc.Interpolation.Unknown _ -> exit 0)
    | "pdr" ->
      let r = Bmc.Pdr.prove netlist ~property in
      Format.printf "%s: %a (%.3fs, %d queries)@." source Bmc.Pdr.pp_verdict r.verdict
        r.total_time r.queries;
      (match r.verdict with
      | Bmc.Pdr.Falsified trace ->
        Format.printf "%a@." (Bmc.Trace.pp ~netlist ()) trace;
        exit 10
      | Bmc.Pdr.Proved _ -> exit 20
      | Bmc.Pdr.Unknown _ -> exit 0)
    | "symbolic" ->
      let v = Bmc.Symbolic.check netlist ~property in
      Format.printf "%s: %a@." source Bmc.Symbolic.pp_verdict v;
      (match v with
      | Bmc.Symbolic.Fails_at _ -> exit 10
      | Bmc.Symbolic.Holds _ -> exit 20
      | Bmc.Symbolic.Blowup _ -> exit 0)
    | "abstraction" ->
      let r = Bmc.Abstraction.prove ~config netlist ~property in
      if verbose then
        List.iter
          (fun (round : Bmc.Abstraction.round) ->
            Format.printf "depth %3d: core regs=%-4d abstract=%s, %.3fs@." round.depth
              round.core_regs
              (match round.abstract_verdict with
              | Some v -> Format.asprintf "%a" Circuit.Reach.pp_verdict v
              | None -> "-")
              round.time)
          r.rounds;
      Format.printf "%s: %a (%.3fs)@." source Bmc.Abstraction.pp_verdict r.verdict
        r.total_time;
      (match r.verdict with
      | Bmc.Abstraction.Falsified trace ->
        Format.printf "%a@." (Bmc.Trace.pp ~netlist ()) trace;
        exit 10
      | Bmc.Abstraction.Proved _ -> exit 20
      | Bmc.Abstraction.Unknown _ -> exit 0)
    | "induction" ->
      let r = Bmc.Induction.prove ~config ~policy ~simple_path netlist ~property in
      if verbose then
        List.iter
          (fun (d : Bmc.Induction.step_stat) ->
            Format.printf "depth %3d: base=%-7s step=%-7s dec=%d+%d, %.3fs@." d.depth
              (Format.asprintf "%a" Sat.Solver.pp_outcome d.base_outcome)
              (match d.step_outcome with
              | Some o -> Format.asprintf "%a" Sat.Solver.pp_outcome o
              | None -> "-")
              d.base_decisions d.step_decisions d.time)
          r.per_depth;
      Format.printf "%s: %a (%.3fs)@." source Bmc.Induction.pp_verdict r.verdict r.total_time;
      (match r.verdict with
      | Bmc.Induction.Falsified trace ->
        Format.printf "%a@." (Bmc.Trace.pp ~netlist ()) trace;
        exit 10
      | Bmc.Induction.Proved _ -> exit 20
      | Bmc.Induction.Unknown _ -> exit 0)
    | other ->
      Format.eprintf
        "bmccheck: unknown engine %S (bmc|incremental|induction|symbolic|abstraction|pdr|interpolation)@."
        other;
      exit 2);
    let policy =
      if engine_name = "incremental" then Bmc.Session.Persistent else Bmc.Session.Fresh
    in
    let result = Bmc.Session.check ~config ~policy netlist ~property in
    if verbose then
      List.iter (fun d -> Format.printf "%a@." pp_depth_stat d) result.per_depth;
    if inprocess <> None then pp_inprocess_summary source result.per_depth;
    if core_min <> None then pp_coremin_summary source result.per_depth;
    Format.printf "%s: %a (%.3fs, %d decisions, %d implications)@." source
      Bmc.Session.pp_verdict result.verdict result.total_time result.total_decisions
      result.total_implications;
    (match result.verdict with
    | Bmc.Session.Falsified trace ->
      Format.printf "%a@." (Bmc.Trace.pp ~netlist ()) trace;
      exit 10
    | Bmc.Session.Bounded_pass _ -> exit 20
    | Bmc.Session.Aborted _ -> exit 0)

(* Several CIRCUITs: batch-solve the properties across the pool (mode B). *)
let run_batch sources engine_name mode_name max_depth coi weighting_name verbose
    max_conflicts max_seconds inprocess core_min trace_file metrics ledger_file flight_file
    jobs =
  let mode = parse_mode mode_name in
  let weighting = parse_weighting weighting_name in
  let policy =
    match engine_name with
    | "bmc" -> Bmc.Session.Fresh
    | "incremental" -> Bmc.Session.Persistent
    | other ->
      Format.eprintf "bmccheck: batch mode supports --engine bmc|incremental, not %S@." other;
      exit 2
  in
  let items =
    List.map
      (fun source ->
        match load source with
        | Error msg ->
          Format.eprintf "bmccheck: %s: %s@." source msg;
          exit 2
        | Ok (netlist, property, case) ->
          let depth =
            match (max_depth, case) with
            | Some d, _ -> d
            | None, Some c -> c.Circuit.Generators.suggested_depth
            | None, None -> 20
          in
          (source, netlist, property, depth))
      sources
  in
  let budget =
    { Sat.Solver.max_conflicts; max_propagations = None; max_seconds; stop = None }
  in
  let telemetry = setup_telemetry trace_file metrics ledger_file flight_file in
  let core_mode, coremin_budget = core_opts core_min in
  (* each item's own max depth replaces the config's *)
  let config =
    Bmc.Session.make_config ~mode ~weighting ~coi ~budget ?inprocess ~core_mode
      ~coremin_budget ~telemetry ()
  in
  let jobs =
    if jobs > 0 then jobs else min (List.length items) (Domain.recommended_domain_count ())
  in
  let t0 = Portfolio.Pool.wall () in
  let results =
    Portfolio.Pool.with_pool ~telemetry ~jobs (fun pool ->
        Portfolio.check_batch ~config ~policy ~pool items)
  in
  let wall = Portfolio.Pool.wall () -. t0 in
  let code = ref 20 in
  List.iter2
    (fun (_, netlist, _, _) (source, (r : Bmc.Session.result)) ->
      if verbose then List.iter (fun d -> Format.printf "%a@." pp_depth_stat d) r.per_depth;
      if core_min <> None then pp_coremin_summary source r.per_depth;
      Format.printf "%s: %a (%.3fs, %d decisions)@." source Bmc.Session.pp_verdict r.verdict
        r.total_time r.total_decisions;
      match r.verdict with
      | Bmc.Session.Falsified trace ->
        Format.printf "%a@." (Bmc.Trace.pp ~netlist ()) trace;
        code := 10
      | Bmc.Session.Bounded_pass _ -> ()
      | Bmc.Session.Aborted _ -> if !code <> 10 then code := 0)
    items results;
  Format.printf "batch: %d properties on %d workers in %.3fs wall@." (List.length results)
    jobs wall;
  exit !code

let run sources engine_name mode_name max_depth coi weighting_name verbose max_conflicts
    max_seconds simple_path fresh_solver ltl_formula inprocess_spec core_min trace_file
    metrics ledger_file flight_file jobs =
  let inprocess = parse_inprocess inprocess_spec in
  match sources with
  | [] -> assert false (* cmdliner: the positional list is non-empty *)
  | [ source ] ->
    run_single source engine_name mode_name max_depth coi weighting_name verbose
      max_conflicts max_seconds simple_path fresh_solver ltl_formula inprocess core_min
      trace_file metrics ledger_file flight_file
  | sources ->
    if ltl_formula <> None then begin
      Format.eprintf "bmccheck: batch mode checks built-in invariants, not --ltl@.";
      exit 2
    end;
    run_batch sources engine_name mode_name max_depth coi weighting_name verbose
      max_conflicts max_seconds inprocess core_min trace_file metrics ledger_file flight_file
      jobs

open Cmdliner

let sources =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"CIRCUIT"
        ~doc:"A .rnl netlist file, an AIGER file or a built-in benchmark name.  With \
              several circuits, their properties are batch-solved across the worker \
              pool (see --jobs).")

let engine =
  Arg.(
    value & opt string "bmc"
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:"Checking engine: bmc (one solver per depth), incremental (one \
              persistent solver), induction (k-induction proof), symbolic \
              (BDD reachability), abstraction (core-guided proof), pdr \
              (IC3), or interpolation (McMillan 2003).")

let mode =
  Arg.(
    value & opt string "dynamic"
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"Decision ordering: any registered heuristic — standard, static, dynamic, \
              shtrichman, or the laboratory heuristic chb.")

let ltl =
  Arg.(
    value
    & opt (some string) None
    & info [ "ltl" ] ~docv:"FORMULA"
        ~doc:"Check this LTL property instead of the built-in invariant, e.g. \
              'G (req -> F grant)'.  Signal names resolve in the netlist.")

let simple_path =
  Arg.(
    value & flag
    & info [ "simple-path" ]
        ~doc:"With --engine induction: add pairwise state-disequality constraints.")

let fresh_solver =
  Arg.(
    value & flag
    & info [ "fresh-solver" ]
        ~doc:"With --engine induction or --ltl: rebuild a fresh solver per depth (the \
              classic substrate) instead of running on persistent incremental sessions.")

let max_depth =
  Arg.(value & opt (some int) None & info [ "depth"; "k" ] ~docv:"K" ~doc:"Maximum unrolling depth.")

let coi = Arg.(value & flag & info [ "coi" ] ~doc:"Encode only the property's cone of influence.")

let weighting =
  Arg.(
    value & opt string "linear"
    & info [ "weighting" ] ~docv:"W" ~doc:"Core weighting: linear, uniform or last.")

let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print per-depth statistics.")

let max_conflicts =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-conflicts" ] ~docv:"N" ~doc:"Per-instance conflict budget.")

let max_seconds =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SEC" ~doc:"Per-instance budget in wall-clock seconds.")

let inprocess =
  Arg.(
    value
    & opt ~vopt:(Some "default") (some string) None
    & info [ "inprocess" ] ~docv:"BUDGET"
        ~doc:"Run proof-aware inprocessing (failed-literal probing, subsumption, \
              self-subsuming resolution, bounded variable elimination) inside the \
              persistent solver at every depth boundary.  Outcomes, unsat cores and \
              certificates are unchanged; the retired instance's satisfied clauses and \
              dead auxiliaries are swept before the next depth's deltas load.  $(docv) is \
              a preset (default | light | aggressive) or comma-separated \
              occ=/growth=/probes=/rounds=/ms= overrides (e.g. 'occ=16,probes=256').  \
              Requires a persistent session (--engine incremental, a batch on the \
              incremental engine, or --ltl / --engine induction without --fresh-solver).")

let core_min =
  Arg.(
    value
    & opt ~vopt:(Some (-1)) (some int) None
    & info [ "core-min" ] ~docv:"N"
        ~doc:"Destructively minimise every UNSAT instance's unsatisfiable core before it \
              refines the decision ranking: each core clause is re-solved under a selector \
              assumption and dropped if redundant, and the minimised core is re-proved and \
              certified by the independent checker (uncertified results fall back to the \
              raw core).  With a value, spend at most $(docv) minimisation solver calls \
              per depth; without one, run each core to minimality.  Works with every \
              session-based engine and with batches.")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a JSONL telemetry trace to $(docv): per-depth summaries (with \
              rank-vs-VSIDS decision attribution and core churn), solver phase spans (BCP, \
              conflict analysis, clause deletion, CDG bookkeeping), restarts, and \
              per-solve decisions.rank / decisions.vsids counters.  Feed the file to \
              bmcprof trace to rebuild the run ledger from it.")

let metrics =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Collect telemetry in memory and print a phase-breakdown report (span times, \
              counters, event tallies) and the run ledger's per-depth table (as bmcprof \
              report prints it) when the run finishes.")

let ledger_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:"Write the structured run ledger (bmc-ledger/v1 JSON) to $(docv) when the run \
              finishes: per-depth decision/conflict work with rank-vs-VSIDS attribution \
              and core-variable churn; in a batch every row names its CIRCUIT.  Analyse \
              it with bmcprof report / diff / prom.")

let flight_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-recorder" ] ~docv:"FILE"
        ~doc:"Keep the last telemetry events of every domain in a bounded in-memory \
              ring (restarts, GC, ordering switches, solves, depths, queue \
              waits) and dump them to $(docv) as a JSONL \
              trace at exit — or on SIGUSR1, to inspect a wedged run.  Render it with \
              bmcprof timeline, or fold it with bmcprof trace.")

let jobs =
  Arg.(
    value & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains for batch solving (several CIRCUITs).  0 (the default) \
              picks min(circuits, cores).")

let cmd =
  let doc = "bounded model checking with refined SAT decision orderings" in
  let info = Cmd.info "bmccheck" ~doc in
  Cmd.v info
    Term.(
      const run $ sources $ engine $ mode $ max_depth $ coi $ weighting $ verbose
      $ max_conflicts $ max_seconds $ simple_path $ fresh_solver $ ltl $ inprocess
      $ core_min $ trace_file $ metrics $ ledger_file $ flight_file $ jobs)

let () = exit (Cmd.eval cmd)
