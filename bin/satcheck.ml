(* DIMACS CNF solver CLI.

   Exit codes follow the SAT-competition convention: 10 = SAT, 20 = UNSAT,
   0 = unknown (budget exhausted), 2 = input error. *)

(* --trace/--metrics/--flight-recorder plumbing; the report lands on stderr
   so the "s ..." protocol lines on stdout stay machine-parsable.  The
   flight recorder's ring is dumped at exit and on SIGUSR1. *)
let setup_telemetry trace_file metrics flight_file =
  let agg = if metrics then Some (Telemetry.Sink.aggregate ()) else None in
  let trace_oc =
    Option.map
      (fun path ->
        try open_out path with
        | Sys_error msg ->
          Format.eprintf "satcheck: cannot open trace file: %s@." msg;
          exit 2)
      trace_file
  in
  let recorder =
    Option.map
      (fun path ->
        let r = Obs.Recorder.create () in
        Obs.Recorder.on_sigusr1 r ~path;
        at_exit (fun () ->
            try Obs.Recorder.dump r path
            with Sys_error msg ->
              Format.eprintf "satcheck: cannot write flight recording: %s@." msg);
        r)
      flight_file
  in
  let sinks =
    Option.to_list (Option.map Obs.Jsonl.of_channel trace_oc)
    @ Option.to_list (Option.map Telemetry.Sink.of_aggregate agg)
    @ Option.to_list (Option.map Obs.Recorder.sink recorder)
  in
  match sinks with
  | [] -> Telemetry.disabled
  | sinks ->
    (* phase timing (clock reads per BCP) only for the consumers that read it *)
    let timing = trace_file <> None || metrics in
    let telemetry = Telemetry.create ~timing (Telemetry.Sink.tee sinks) in
    at_exit (fun () ->
        Telemetry.flush telemetry;
        Option.iter close_out trace_oc;
        Option.iter (Format.eprintf "%a@." Telemetry.Sink.pp_report) agg);
    telemetry

(* DIMACS-signed literals ("3 -7 12") for --assume. *)
let parse_assumptions text =
  String.split_on_char ' ' text
  |> List.concat_map (String.split_on_char ',')
  |> List.filter_map (fun tok ->
         match String.trim tok with
         | "" -> None
         | tok -> (
           match int_of_string_opt tok with
           | Some 0 | None ->
             Format.eprintf "satcheck: --assume: %S is not a non-zero DIMACS literal@." tok;
             exit 2
           | Some d ->
             let v = abs d - 1 in
             Some (if d > 0 then Sat.Lit.pos v else Sat.Lit.neg v)))

let run file core core_min stats_flag max_conflicts max_seconds assume drat_file certify
    preprocess inprocess trace_file metrics flight_file =
  let core = core || core_min <> None in
  match
    (try Ok (Sat.Dimacs.parse_file file) with
    | Sat.Dimacs.Parse_error msg -> Error msg
    | Sys_error msg -> Error msg)
  with
  | Error msg ->
    Format.eprintf "satcheck: %s@." msg;
    exit 2
  | Ok cnf ->
    let assumptions = match assume with Some text -> parse_assumptions text | None -> [] in
    if assumptions <> [] && (certify || drat_file <> None) then begin
      Format.eprintf
        "satcheck: --assume solves under temporary hypotheses and cannot be combined with \
         --certify/--drat@.";
      exit 2
    end;
    let inprocess_cfg =
      match inprocess with
      | None -> if preprocess then Some Sat.Inprocess.default else None
      | Some spec -> (
        match Sat.Inprocess.config_of_string spec with
        | Ok cfg -> Some cfg
        | Error msg ->
          Format.eprintf "satcheck: --inprocess: %s@." msg;
          exit 2)
    in
    let with_drat = drat_file <> None || certify in
    let telemetry = setup_telemetry trace_file metrics flight_file in
    let solver = Sat.Solver.create ~with_proof:core ~with_drat ~telemetry cnf in
    let budget =
      {
        Sat.Solver.max_conflicts;
        max_propagations = None;
        max_seconds;
        stop = None;
      }
    in
    (match inprocess_cfg with
    | Some config ->
      (* assumption variables must survive elimination: an eliminated
         variable no longer occurs, so assuming it would constrain nothing
         and the answer could differ from the input formula's *)
      List.iter (fun l -> Sat.Solver.freeze solver (Sat.Lit.var l)) assumptions;
      let ist = Sat.Solver.inprocess ~config solver in
      Format.eprintf "c inprocess: %a@." Sat.Inprocess.pp_stats ist
    | None -> ());
    let outcome = Sat.Solver.solve ~budget ~assumptions solver in
    if stats_flag then Format.eprintf "c %a@." Sat.Stats.pp (Sat.Solver.stats solver);
    (match outcome with
    | Sat.Solver.Sat ->
      Format.printf "s SATISFIABLE@.";
      let model = Sat.Solver.model solver in
      Format.printf "v";
      Array.iteri
        (fun v b -> Format.printf " %d" (if b then v + 1 else -(v + 1)))
        model;
      Format.printf " 0@.";
      exit 10
    | Sat.Solver.Unsat ->
      Format.printf "s UNSATISFIABLE@.";
      if assumptions <> [] then begin
        (* which hypotheses the refutation actually leaned on (empty when
           the formula is unsatisfiable on its own) *)
        let failed = Sat.Solver.failed_assumptions solver in
        Format.printf "c failed-assumptions";
        List.iter
          (fun l ->
            let d = Sat.Lit.var l + 1 in
            Format.printf " %d" (if Sat.Lit.is_pos l then d else -d))
          failed;
        Format.printf " 0@."
      end;
      (match drat_file with
      | Some path ->
        let oc = open_out path in
        output_string oc (Sat.Checker.to_drat (Sat.Solver.drat_events solver));
        close_out oc;
        Format.printf "c drat proof written to %s@." path
      | None -> ());
      if certify then begin
        match Sat.Checker.check_refutation cnf (Sat.Solver.drat_events solver) with
        | Ok () -> Format.printf "c certified: the refutation passes the independent checker@."
        | Error msg ->
          Format.eprintf "satcheck: REFUTATION REJECTED: %s@." msg;
          exit 2
      end;
      if core then begin
        let ids = Sat.Solver.unsat_core solver in
        Format.printf "c core %d of %d clauses@." (List.length ids) (Sat.Cnf.num_clauses cnf);
        Format.printf "c core-clauses";
        List.iter (fun i -> Format.printf " %d" i) ids;
        Format.printf "@.";
        Format.printf "c core-vars";
        List.iter (fun v -> Format.printf " %d" (v + 1)) (Sat.Solver.core_vars solver);
        Format.printf "@.";
        (match core_min with
        | None -> ()
        | Some n ->
          let budget =
            if n >= 0 then { Sat.Coremin.no_budget with Sat.Coremin.max_solves = Some n }
            else Sat.Coremin.no_budget
          in
          let clauses =
            List.map (fun i -> (i, Array.to_list (Sat.Cnf.get_clause cnf i))) ids
          in
          let kept, st =
            Sat.Coremin.minimise ~budget ~assumptions ~num_vars:(Sat.Cnf.num_vars cnf)
              ~clauses ()
          in
          Format.printf "c core-min %d -> %d clauses (%d solves, %.3fs%s, %s)@."
            st.Sat.Coremin.initial st.Sat.Coremin.final st.Sat.Coremin.solves
            st.Sat.Coremin.seconds
            (if st.Sat.Coremin.minimal then ", minimal" else "")
            (if st.Sat.Coremin.certified then "certified" else "NOT certified");
          Format.printf "c core-min-clauses";
          List.iter (fun i -> Format.printf " %d" i) kept;
          Format.printf "@.")
      end;
      exit 20
    | Sat.Solver.Unknown ->
      Format.printf "s UNKNOWN@.";
      exit 0)

open Cmdliner

let file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"DIMACS CNF input file.")

let core =
  Arg.(value & flag & info [ "core" ] ~doc:"Log the resolution dependencies and print an unsatisfiable core on UNSAT.")

let core_min =
  Arg.(
    value
    & opt ~vopt:(Some (-1)) (some int) None
    & info [ "core-min" ] ~docv:"N"
        ~doc:"On UNSAT, destructively minimise the extracted core (implies --core): each \
              core clause is guarded by a selector and dropped in turn; the result is \
              re-proved from scratch and certified by the independent checker.  With a \
              value, stop after $(docv) minimisation solver calls (the result is then a \
              correct but possibly non-minimal core); without one, run to a minimal core.")

let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print search statistics to stderr.")

let max_conflicts =
  Arg.(value & opt (some int) None & info [ "max-conflicts" ] ~docv:"N" ~doc:"Abort after $(docv) conflicts.")

let max_seconds =
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SEC" ~doc:"Abort after $(docv) CPU seconds.")

let assume =
  Arg.(
    value
    & opt (some string) None
    & info [ "assume" ] ~docv:"LITS"
        ~doc:"Solve under temporary hypotheses: space- or comma-separated signed DIMACS \
              literals (e.g. '3 -7').  An UNSAT answer is relative to them; the responsible \
              subset is reported as 'c failed-assumptions' — the incremental interface the \
              BMC session layer drives.")

let drat_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "drat" ] ~docv:"FILE" ~doc:"Write the clausal (DRAT) refutation proof to $(docv) on UNSAT.")

let certify =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:"On UNSAT, replay the refutation through the independent RUP checker and fail \
              loudly if it is rejected.")

let preprocess =
  Arg.(
    value & flag
    & info [ "preprocess" ]
        ~doc:"Simplify before solving: the same pass as $(b,--inprocess) with the default \
              budget (an explicit $(b,--inprocess) budget takes precedence).")

let inprocess =
  Arg.(
    value
    & opt ~vopt:(Some "default") (some string) None
    & info [ "inprocess" ] ~docv:"BUDGET"
        ~doc:"Run one proof-aware inprocessing pass (failed-literal probing, subsumption, \
              self-subsuming resolution, bounded variable elimination) before solving.  \
              Assumption variables are frozen automatically, models are reconstructed, and \
              core/certify/drat output stays exact.  $(docv) is a preset (default | light | \
              aggressive) or comma-separated occ=/growth=/probes=/rounds=/ms= overrides.")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a JSONL telemetry trace to $(docv): solver phase spans, restarts, and \
              per-solve decision-attribution counters.")

let flight_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-recorder" ] ~docv:"FILE"
        ~doc:"Keep the last telemetry events in a bounded in-memory ring (restarts, \
              clause-DB reductions, arena compactions, ordering switches, solves) and \
              dump them to $(docv) as a JSONL trace at exit — or on SIGUSR1.  Render it \
              with bmcprof timeline.")

let metrics =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Collect telemetry in memory and print a phase-breakdown report to stderr when \
              the run finishes.")

let cmd =
  let doc = "CDCL SAT solver with unsatisfiable-core extraction" in
  let man =
    [
      `S Manpage.s_description;
      `P "Solves a DIMACS CNF formula.  Exit status: 10 satisfiable, 20 unsatisfiable, 0 \
          unknown (budget exhausted), 2 input error.";
      `P "On SAT, the $(b,v) line lists the formula's variables: 1 up to the highest \
          variable a clause mentions.  The header's variable count only bounds them; a \
          declared variable that no clause mentions is unconstrained and is not listed.";
    ]
  in
  let info = Cmd.info "satcheck" ~doc ~man in
  Cmd.v info
    Term.(
      const run $ file $ core $ core_min $ stats $ max_conflicts $ max_seconds $ assume
      $ drat_file $ certify $ preprocess $ inprocess $ trace_file $ metrics $ flight_file)

let () = exit (Cmd.eval cmd)
