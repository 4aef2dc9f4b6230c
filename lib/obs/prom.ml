let add_metric b ~help ~typ name rows =
  Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
  Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ);
  List.iter
    (fun (labels, value) ->
      let l =
        match labels with
        | [] -> ""
        | kvs ->
          "{"
          ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) kvs)
          ^ "}"
      in
      Buffer.add_string b (Printf.sprintf "%s%s %s\n" name l value))
    rows

let int_rows rows = List.map (fun (l, v) -> (l, string_of_int v)) rows

let render (t : Ledger.t) =
  let b = Buffer.create 1024 in
  add_metric b ~help:"BMC depths solved by final outcome" ~typ:"counter" "bmc_depths_total"
    (int_rows
       (List.map
          (fun outcome ->
            ( [ ("outcome", outcome) ],
              List.length (List.filter (fun d -> d.Ledger.l_outcome = outcome) t.depths)
            ))
          [ "unsat"; "sat"; "unknown" ]));
  add_metric b ~help:"SAT decisions by branching source" ~typ:"counter" "bmc_decisions_total"
    (int_rows
       [
         ([ ("src", "rank") ], Ledger.dec_rank t);
         ([ ("src", "vsids") ], Ledger.dec_vsids t);
       ]);
  add_metric b ~help:"SAT conflicts" ~typ:"counter" "bmc_conflicts_total"
    (int_rows [ ([], Ledger.conflicts t) ]);
  add_metric b ~help:"Solver restarts" ~typ:"counter" "bmc_restarts_total"
    (int_rows [ ([], t.restarts) ]);
  add_metric b ~help:"Dynamic ordering fallbacks" ~typ:"counter" "bmc_ordering_switches_total"
    (int_rows [ ([], t.switches) ]);
  add_metric b ~help:"Share of attributed decisions branching on a ranked variable"
    ~typ:"gauge" "bmc_rank_decision_share"
    [ ([], Printf.sprintf "%.4f" (Ledger.rank_share t /. 100.0)) ];
  add_metric b ~help:"Unsat-core variable churn between consecutive depths" ~typ:"counter"
    "bmc_core_churn_vars_total"
    (int_rows
       [
         ( [ ("kind", "new") ],
           List.fold_left (fun a d -> a + d.Ledger.l_core_new) 0 t.depths );
         ( [ ("kind", "dropped") ],
           List.fold_left (fun a d -> a + d.Ledger.l_core_dropped) 0 t.depths );
       ]);
  add_metric b ~help:"Portfolio races won per ordering mode" ~typ:"counter"
    "bmc_race_wins_total"
    (int_rows (List.map (fun (m, n) -> ([ ("mode", m) ], n)) t.wins));
  add_metric b ~help:"Portfolio racers cancelled after a sibling won" ~typ:"counter"
    "bmc_race_cancelled_total"
    (int_rows [ ([], List.fold_left (fun a r -> a + r.Ledger.r_cancelled) 0 t.races) ]);
  add_metric b ~help:"Wall-clock seconds spent solving, by phase" ~typ:"counter"
    "bmc_phase_seconds_total"
    (List.map
       (fun (phase, f) ->
         ( [ ("phase", phase) ],
           Printf.sprintf "%.6f" (List.fold_left (fun a d -> a +. f d) 0.0 t.depths) ))
       [
         ("build", fun (d : Ledger.depth_row) -> d.l_build_s);
         ("solve", fun d -> d.l_solve_s);
         ("bcp", fun d -> d.l_bcp_s);
         ("cdg", fun d -> d.l_cdg_s);
       ]);
  Buffer.contents b

let write (t : Ledger.t) path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (render t))
