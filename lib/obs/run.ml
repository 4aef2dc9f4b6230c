module Sink = Telemetry.Sink

let setup ~tool ?trace ?metrics ?ledger ?flight () =
  let say fmt = Format.eprintf ("%s: " ^^ fmt ^^ "@.") tool in
  let trace_oc =
    Option.map
      (fun path ->
        try (path, open_out path)
        with Sys_error msg ->
          say "cannot open trace file: %s" msg;
          exit 2)
      trace
  in
  let agg = if metrics <> None || ledger <> None then Some (Sink.aggregate ()) else None in
  let recorder =
    Option.map
      (fun path ->
        let r = Recorder.create () in
        Recorder.on_sigusr1 r ~path;
        (r, path))
      flight
  in
  let sinks =
    Option.to_list (Option.map (fun (_, oc) -> Jsonl.of_channel oc) trace_oc)
    @ Option.to_list (Option.map Sink.of_aggregate agg)
    @ Option.to_list (Option.map (fun (r, _) -> Recorder.sink r) recorder)
  in
  match sinks with
  | [] -> (Telemetry.disabled, ignore)
  | sinks ->
    let timing = trace <> None || metrics <> None in
    let telemetry = Telemetry.create ~timing (Sink.tee sinks) in
    let write what path f =
      match f path with
      | () -> say "%s written to %s" what path
      | exception Sys_error msg -> say "cannot write %s: %s" what msg
    in
    let finish () =
      Telemetry.flush telemetry;
      Option.iter (fun (path, oc) -> write "trace" path (fun _ -> close_out oc)) trace_oc;
      Option.iter (fun (r, path) -> write "flight recording" path (Recorder.dump r)) recorder;
      Option.iter
        (fun agg ->
          let run_ledger = Ledger.of_aggregate agg in
          Option.iter
            (fun path ->
              write "ledger" path (fun path ->
                  let oc = open_out path in
                  output_string oc (Ledger.to_string run_ledger);
                  close_out oc))
            ledger;
          Option.iter
            (fun ppf ->
              Format.fprintf ppf "%a@." Sink.pp_report agg;
              if run_ledger.depths <> [] then Ledger.pp_depth_table ppf run_ledger)
            metrics)
        agg
    in
    (telemetry, finish)
