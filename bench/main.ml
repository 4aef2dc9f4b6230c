(* Experiment harness: regenerates every table and figure of

     Wang, Jin, Hachtel, Somenzi,
     "Refining the SAT Decision Ordering for Bounded Model Checking",
     DAC 2004.

   Artefacts (see DESIGN.md, "Experiment index"):

     table1    Table 1  — time of plain BMC vs the refined orderings
                          (static and dynamic) over the 37-instance suite
     fig6      Figure 6 — the same data as scatter-plot series
     fig7      Figure 7 — per-depth decision / implication counts on one
                          deep all-UNSAT instance, plain vs refined
     overhead  §3.1     — cost of the simplified-CDG bookkeeping
     ablation  §3.2/§1  — core-weighting variants and the Shtrichman
                          time-axis baseline
     micro     Bechamel micro-benchmarks, one per artefact

   Run everything:      dune exec bench/main.exe
   Run one artefact:    dune exec bench/main.exe -- table1

   As in the paper, instances that exhaust their budget are compared at the
   maximum unrolling depth every method completed, shown as "(k)". *)

let per_instance_budget =
  {
    Sat.Solver.max_conflicts = Some 30_000;
    max_propagations = None;
    max_seconds = Some 1.5;
    stop = None;
  }

(* Every artefact also publishes its headline numbers through the telemetry
   aggregator; the driver writes the whole aggregate to bench_results.json so
   downstream tooling can diff runs without scraping the tables above. *)
let bench_agg = Telemetry.Sink.aggregate ()
let tel = Telemetry.create (Telemetry.Sink.of_aggregate bench_agg)
let results_file = "bench_results.json"

(* ------------------------------------------------------------------ *)
(* Shared machinery.                                                   *)
(* ------------------------------------------------------------------ *)

(* Highest depth whose instance was fully solved. *)
let completed_depth (r : Bmc.Session.result) =
  match r.verdict with
  | Bmc.Session.Falsified t -> t.Bmc.Trace.depth
  | Bmc.Session.Bounded_pass k -> k
  | Bmc.Session.Aborted k -> k - 1

let fold_to_depth (r : Bmc.Session.result) depth f init =
  List.fold_left
    (fun acc (d : Bmc.Session.depth_stat) -> if d.depth <= depth then f acc d else acc)
    init r.per_depth

let time_to_depth r depth = fold_to_depth r depth (fun acc d -> acc +. d.time) 0.0

type case_run = {
  case : Circuit.Generators.case;
  standard : Bmc.Session.result;
  static_ : Bmc.Session.result;
  dynamic : Bmc.Session.result;
  common_depth : int; (* max depth completed by all three *)
  capped : bool; (* some engine hit its budget *)
}

let run_mode ?(budget = per_instance_budget) mode (case : Circuit.Generators.case) =
  let config = Bmc.Session.make_config ~mode ~budget ~max_depth:case.suggested_depth () in
  Bmc.Session.check ~config ~policy:Bmc.Session.Fresh case.netlist ~property:case.property

let run_case case =
  let standard = run_mode Bmc.Session.Standard case in
  let static_ = run_mode Bmc.Session.Static case in
  let dynamic = run_mode Bmc.Session.Dynamic case in
  let depths = [ completed_depth standard; completed_depth static_; completed_depth dynamic ] in
  let common_depth = List.fold_left min max_int depths in
  let aborted (r : Bmc.Session.result) =
    match r.verdict with
    | Bmc.Session.Aborted _ -> true
    | Bmc.Session.Falsified _ | Bmc.Session.Bounded_pass _ -> false
  in
  {
    case;
    standard;
    static_;
    dynamic;
    common_depth;
    capped = aborted standard || aborted static_ || aborted dynamic;
  }

let table1_runs : case_run list Lazy.t =
  lazy
    (let cases = Circuit.Generators.suite () in
     List.mapi
       (fun i case ->
         Printf.eprintf "  [%2d/%2d] %s...\n%!" (i + 1) (List.length cases)
           case.Circuit.Generators.name;
         run_case case)
       cases)

(* ------------------------------------------------------------------ *)
(* Table 1.                                                            *)
(* ------------------------------------------------------------------ *)

let verdict_tag run =
  if run.capped then Printf.sprintf "(%d)" run.common_depth
  else
    match run.standard.verdict with
    | Bmc.Session.Falsified t -> Printf.sprintf "F %d" t.Bmc.Trace.depth
    | Bmc.Session.Bounded_pass k -> Printf.sprintf "T %d" k
    | Bmc.Session.Aborted k -> Printf.sprintf "(%d)" (k - 1)

let table1 () =
  let runs = Lazy.force table1_runs in
  Printf.printf "\n== Table 1: BMC vs refine_order BMC (static and dynamic) ==\n";
  Printf.printf
    "   Times are wall-clock seconds to reach the deepest unrolling completed by all\n\
    \   three methods; '(k)' marks instances where a budget was hit (paper: 2 h).\n\n";
  Printf.printf "%-16s %-7s %10s %10s %10s\n" "model" "T/F(k)" "bmc(s)" "static(s)" "dyn.(s)";
  let tot_std = ref 0.0 and tot_sta = ref 0.0 and tot_dyn = ref 0.0 in
  let wins_sta = ref 0 and wins_dyn = ref 0 in
  let speedups_sta = ref [] and speedups_dyn = ref [] in
  List.iter
    (fun run ->
      let d = run.common_depth in
      let t_std = time_to_depth run.standard d in
      let t_sta = time_to_depth run.static_ d in
      let t_dyn = time_to_depth run.dynamic d in
      tot_std := !tot_std +. t_std;
      tot_sta := !tot_sta +. t_sta;
      tot_dyn := !tot_dyn +. t_dyn;
      if t_sta < t_std then incr wins_sta;
      if t_dyn < t_std then incr wins_dyn;
      if t_std > 0.0 then begin
        speedups_sta := ((t_std -. t_sta) /. t_std) :: !speedups_sta;
        speedups_dyn := ((t_std -. t_dyn) /. t_std) :: !speedups_dyn
      end;
      Printf.printf "%-16s %-7s %10.3f %10.3f %10.3f\n" run.case.Circuit.Generators.name
        (verdict_tag run) t_std t_sta t_dyn)
    runs;
  let n = List.length runs in
  Printf.printf "%-16s %-7s %10.3f %10.3f %10.3f\n" "TOTAL" "" !tot_std !tot_sta !tot_dyn;
  Printf.printf "%-16s %-7s %10s %9.0f%% %9.0f%%\n" "RATIO" "" "100%"
    (100.0 *. !tot_sta /. !tot_std)
    (100.0 *. !tot_dyn /. !tot_std);
  let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs)) in
  Printf.printf
    "\n   wins vs plain BMC: static %d/%d, dynamic %d/%d (paper: 26/37 and 32/37)\n" !wins_sta
    n !wins_dyn n;
  Printf.printf
    "   total-time improvement (paper's statistic): static %.0f%%, dynamic %.0f%% (paper: 38%% \
     and 42%%)\n"
    (100.0 *. (1.0 -. (!tot_sta /. !tot_std)))
    (100.0 *. (1.0 -. (!tot_dyn /. !tot_std)));
  Printf.printf "   mean per-circuit improvement: static %.0f%%, dynamic %.0f%%\n"
    (100.0 *. mean !speedups_sta)
    (100.0 *. mean !speedups_dyn);
  Telemetry.gauge tel "table1.total_s.standard" !tot_std;
  Telemetry.gauge tel "table1.total_s.static" !tot_sta;
  Telemetry.gauge tel "table1.total_s.dynamic" !tot_dyn;
  Telemetry.gauge tel "table1.wins.static" (float_of_int !wins_sta);
  Telemetry.gauge tel "table1.wins.dynamic" (float_of_int !wins_dyn);
  Telemetry.gauge tel "table1.instances" (float_of_int n)

(* ------------------------------------------------------------------ *)
(* Figure 6.                                                           *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  let runs = Lazy.force table1_runs in
  Printf.printf "\n== Figure 6: scatter series, time of BMC vs refine_order BMC ==\n";
  Printf.printf "   Each row is one dot; dots below the diagonal (y < x) favour the\n";
  Printf.printf "   new method.\n";
  let panel name pick =
    Printf.printf "\n   -- panel: %s --\n" name;
    Printf.printf "   %-16s %12s %12s  %s\n" "model" "x=bmc(s)" "y=new(s)" "below?";
    List.iter
      (fun run ->
        let d = run.common_depth in
        let x = time_to_depth run.standard d in
        let y = time_to_depth (pick run) d in
        Printf.printf "   %-16s %12.3f %12.3f  %s\n" run.case.Circuit.Generators.name x y
          (if y < x then "yes" else "no"))
      runs
  in
  panel "static" (fun r -> r.static_);
  panel "dynamic" (fun r -> r.dynamic)

(* ------------------------------------------------------------------ *)
(* Figure 7.                                                           *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  let case = Circuit.Generators.fig7_case () in
  Printf.printf "\n== Figure 7: per-depth statistics on %s ==\n" case.Circuit.Generators.name;
  Printf.printf "   BMC = plain VSIDS; ref_ord_BMC = the paper's dynamic ordering.\n";
  Printf.printf "   Smaller decision counts indicate smaller search trees.\n\n";
  let budget =
    { Sat.Solver.max_conflicts = Some 100_000; max_propagations = None; max_seconds = Some 3.0; stop = None }
  in
  let std = run_mode ~budget Bmc.Session.Standard case in
  let ref_ord = run_mode ~budget Bmc.Session.Dynamic case in
  let stats_at (r : Bmc.Session.result) k =
    match List.find_opt (fun (d : Bmc.Session.depth_stat) -> d.depth = k) r.per_depth with
    | Some d -> (
      match d.outcome with
      | Sat.Solver.Unknown -> None
      | Sat.Solver.Sat | Sat.Solver.Unsat -> Some d)
    | None -> None
  in
  Printf.printf "%5s  %12s %12s    %14s %14s\n" "depth" "dec(BMC)" "dec(ref)" "impl(BMC)"
    "impl(ref)";
  let max_k = case.Circuit.Generators.suggested_depth in
  for k = 0 to max_k do
    let cell f = function Some d -> string_of_int (f d) | None -> "-" in
    let s = stats_at std k and r = stats_at ref_ord k in
    if s <> None || r <> None then
      Printf.printf "%5d  %12s %12s    %14s %14s\n" k
        (cell (fun (d : Bmc.Session.depth_stat) -> d.decisions) s)
        (cell (fun (d : Bmc.Session.depth_stat) -> d.decisions) r)
        (cell (fun (d : Bmc.Session.depth_stat) -> d.implications) s)
        (cell (fun (d : Bmc.Session.depth_stat) -> d.implications) r)
  done;
  let tag name (r : Bmc.Session.result) =
    Printf.printf "   %s: %s, %.2fs total\n" name
      (Format.asprintf "%a" Bmc.Session.pp_verdict r.verdict)
      r.total_time
  in
  tag "BMC        " std;
  tag "ref_ord_BMC" ref_ord

(* ------------------------------------------------------------------ *)
(* Section 3.1 overhead.                                               *)
(* ------------------------------------------------------------------ *)

let overhead () =
  Printf.printf "\n== Section 3.1: cost of the simplified-CDG bookkeeping ==\n";
  Printf.printf
    "   The same instances solved with proof logging off and on (plain VSIDS\n\
    \   both times).  The paper reports about +5%% runtime and negligible memory.\n\n";
  let workloads =
    [
      (Circuit.Generators.parity_pipe ~stages:10 (), 14);
      (Circuit.Generators.ring ~len:12 (), 20);
      (Circuit.Generators.gray ~bits:5 (), 20);
    ]
  in
  Printf.printf "%-14s %12s %12s %9s %12s\n" "model" "off(s)" "on(s)" "delta" "CDG edges";
  let tot_off = ref 0.0 and tot_on = ref 0.0 in
  List.iter
    (fun ((case : Circuit.Generators.case), depth) ->
      let u = Bmc.Unroll.create case.netlist ~property:case.property in
      let t_off = ref 0.0 and t_on = ref 0.0 and edges = ref 0 in
      for k = 0 to depth do
        let cnf = Bmc.Unroll.instance u ~k in
        let s_off = Sat.Solver.create ~with_proof:false cnf in
        let t0 = Telemetry.wall () in
        ignore (Sat.Solver.solve s_off);
        t_off := !t_off +. Telemetry.wall () -. t0;
        let s_on = Sat.Solver.create ~with_proof:true cnf in
        let t1 = Telemetry.wall () in
        ignore (Sat.Solver.solve s_on);
        t_on := !t_on +. Telemetry.wall () -. t1;
        edges := !edges + Sat.Solver.proof_edges s_on
      done;
      tot_off := !tot_off +. !t_off;
      tot_on := !tot_on +. !t_on;
      Printf.printf "%-14s %12.3f %12.3f %8.1f%% %12d\n" case.name !t_off !t_on
        (100.0 *. (!t_on -. !t_off) /. max !t_off 1e-9)
        !edges)
    workloads;
  Printf.printf "%-14s %12.3f %12.3f %8.1f%%\n" "TOTAL" !tot_off !tot_on
    (100.0 *. (!tot_on -. !tot_off) /. max !tot_off 1e-9);
  Printf.printf "   (each CDG edge is one int; the memory overhead is edges * 8 bytes)\n";
  Telemetry.gauge tel "overhead.proof_off_s" !tot_off;
  Telemetry.gauge tel "overhead.proof_on_s" !tot_on;
  Telemetry.gauge tel "overhead.delta_pct"
    (100.0 *. (!tot_on -. !tot_off) /. max !tot_off 1e-9)

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)
(* ------------------------------------------------------------------ *)

(* A3: the combination the paper's conclusion anticipates — the refined
   ordering on top of an incremental solver (activation literals,
   clause reuse) vs the per-depth engine. *)
let incremental_ablation () =
  Printf.printf
    "\n== Ablation A3: per-depth vs incremental engine (conclusion, refs [17,5]) ==\n";
  let cases =
    [
      Circuit.Generators.ring ~len:14 ~noise:16 ();
      Circuit.Generators.parity_pipe ~stages:12 ();
      Circuit.Generators.lfsr ~width:14 ~noise:24 ();
      Circuit.Generators.arbiter ~clients:10 ~noise:16 ();
    ]
  in
  Printf.printf "%-18s %12s %12s %14s %14s\n" "model" "plain(s)" "incr(s)" "plain(dec)"
    "incr(dec)";
  List.iter
    (fun (case : Circuit.Generators.case) ->
      let config =
        Bmc.Session.make_config ~mode:Bmc.Session.Dynamic ~budget:per_instance_budget
          ~max_depth:case.suggested_depth ()
      in
      let a =
        Bmc.Session.check ~config ~policy:Bmc.Session.Fresh case.netlist ~property:case.property
      in
      let b =
        Bmc.Session.check ~config ~policy:Bmc.Session.Persistent case.netlist
          ~property:case.property
      in
      Printf.printf "%-18s %12.3f %12.3f %14d %14d\n" case.name a.total_time b.total_time
        a.total_decisions b.total_decisions)
    cases;
  Printf.printf
    "   (clause reuse cuts decisions; whether wall-time follows depends on the\n\
    \    accumulated clause database — both effects are visible above)\n"

(* A5: cone-of-influence reduction at encoding time — VIS applied it, our
   default leaves the irrelevant logic in (that is what the paper's method
   exploits); this quantifies what COI alone buys. *)
let coi_ablation () =
  Printf.printf "\n== Ablation A5: cone-of-influence encoding (off = default) ==\n";
  let cases =
    [
      Circuit.Generators.ring ~len:14 ~noise:24 ();
      Circuit.Generators.johnson ~width:12 ~noise:24 ();
      Circuit.Generators.parity_pipe ~stages:12 ~noise:24 ();
      Circuit.Generators.arbiter ~clients:10 ~noise:24 ();
    ]
  in
  Printf.printf "%-18s %14s %14s %14s %14s\n" "model" "std(s)" "std+coi(s)" "dyn(s)"
    "dyn+coi(s)";
  List.iter
    (fun (case : Circuit.Generators.case) ->
      let run mode coi =
        let config =
          Bmc.Session.make_config ~mode ~coi ~budget:per_instance_budget
            ~max_depth:case.suggested_depth ()
        in
        (Bmc.Session.check ~config ~policy:Bmc.Session.Fresh case.netlist
           ~property:case.property)
          .total_time
      in
      Printf.printf "%-18s %14.3f %14.3f %14.3f %14.3f\n" case.name
        (run Bmc.Session.Standard false) (run Bmc.Session.Standard true)
        (run Bmc.Session.Dynamic false) (run Bmc.Session.Dynamic true))
    cases;
  Printf.printf
    "   (COI removes the noise before the solver ever sees it; the refined\n\
    \    ordering recovers most of that without structural information)\n"

(* A4: conflict-clause minimisation (post-Chaff technique, off by default
   for fidelity) measured at the solver level on the same instances. *)
let minimize_ablation () =
  Printf.printf "\n== Ablation A4: conflict-clause minimisation (off = faithful Chaff) ==\n";
  let workloads =
    [
      (Circuit.Generators.parity_pipe ~stages:10 (), 14);
      (Circuit.Generators.ring ~len:12 (), 20);
      (Circuit.Generators.gray ~bits:5 (), 20);
    ]
  in
  Printf.printf "%-14s %12s %12s %12s %12s\n" "model" "off(s)" "on(s)" "off(confl)"
    "on(confl)";
  List.iter
    (fun ((case : Circuit.Generators.case), depth) ->
      let u = Bmc.Unroll.create case.netlist ~property:case.property in
      let t_off = ref 0.0 and t_on = ref 0.0 and c_off = ref 0 and c_on = ref 0 in
      for k = 0 to depth do
        let cnf = Bmc.Unroll.instance u ~k in
        let s_off = Sat.Solver.create ~minimize:false cnf in
        let t0 = Telemetry.wall () in
        ignore (Sat.Solver.solve s_off);
        t_off := !t_off +. Telemetry.wall () -. t0;
        c_off := !c_off + (Sat.Solver.stats s_off).Sat.Stats.conflicts;
        let s_on = Sat.Solver.create ~minimize:true cnf in
        let t1 = Telemetry.wall () in
        ignore (Sat.Solver.solve s_on);
        t_on := !t_on +. Telemetry.wall () -. t1;
        c_on := !c_on + (Sat.Solver.stats s_on).Sat.Stats.conflicts
      done;
      Printf.printf "%-14s %12.3f %12.3f %12d %12d\n" case.name !t_off !t_on !c_off !c_on)
    workloads

let ablation () =
  Printf.printf "\n== Ablations: core weighting (Section 3.2) and the Shtrichman baseline ==\n";
  Printf.printf
    "   linear   = the paper's bmc_score (weight = instance index)\n\
    \   uniform  = every previous core counts equally\n\
    \   last     = only the most recent core\n\
    \   shtrich. = time-axis static ordering (Shtrichman, CAV 2000)\n\n";
  let cases =
    [
      Circuit.Generators.ring ~len:16 ~noise:24 ();
      Circuit.Generators.lfsr ~width:16 ~noise:32 ();
      Circuit.Generators.parity_pipe ~stages:12 ~noise:24 ();
      Circuit.Generators.johnson ~width:12 ~noise:24 ();
      Circuit.Generators.arbiter ~clients:12 ~noise:24 ();
      Circuit.Generators.gray ~bits:5 ~noise:24 ();
    ]
  in
  let configs =
    [
      ("standard", Bmc.Session.Standard, Bmc.Score.Linear);
      ("linear", Bmc.Session.Static, Bmc.Score.Linear);
      ("uniform", Bmc.Session.Static, Bmc.Score.Uniform);
      ("last", Bmc.Session.Static, Bmc.Score.Last_only);
      ("shtrich.", Bmc.Session.Shtrichman, Bmc.Score.Linear);
    ]
  in
  Printf.printf "%-18s" "model(k)";
  List.iter (fun (name, _, _) -> Printf.printf " %10s" name) configs;
  Printf.printf "\n";
  let totals = Array.make (List.length configs) 0.0 in
  List.iter
    (fun (case : Circuit.Generators.case) ->
      let results =
        List.map
          (fun (_, mode, weighting) ->
            let config =
              Bmc.Session.make_config ~mode ~weighting ~budget:per_instance_budget
                ~max_depth:case.suggested_depth ()
            in
            Bmc.Session.check ~config ~policy:Bmc.Session.Fresh case.netlist
              ~property:case.property)
          configs
      in
      let common = List.fold_left (fun acc r -> min acc (completed_depth r)) max_int results in
      Printf.printf "%-18s" (Printf.sprintf "%s(%d)" case.name common);
      List.iteri
        (fun i r ->
          let t = time_to_depth r common in
          totals.(i) <- totals.(i) +. t;
          Printf.printf " %10.3f" t)
        results;
      Printf.printf "\n")
    cases;
  Printf.printf "%-18s" "TOTAL";
  Array.iter (fun t -> Printf.printf " %10.3f" t) totals;
  Printf.printf "\n";
  incremental_ablation ();
  minimize_ablation ();
  coi_ablation ()

(* ------------------------------------------------------------------ *)
(* The complement relation (paper, Section 1, opening sentence).       *)
(* ------------------------------------------------------------------ *)

let complement () =
  Printf.printf
    "\n== BMC as \"a complement to model checking based on BDDs\" (Section 1) ==\n";
  Printf.printf
    "   Three engines on workloads chosen to separate them: SAT-based BMC\n\
    \   (dynamic refined ordering), BDD-based symbolic reachability, and\n\
    \   core-guided proof-based abstraction.\n\n";
  let budget =
    { Sat.Solver.max_conflicts = Some 50_000; max_propagations = None; max_seconds = Some 2.0; stop = None }
  in
  let cases =
    [
      ("wide datapath, shallow bug", Circuit.Generators.factor ~bits:12 ~target:(251 * 13) ());
      ("deep counterexample", Circuit.Generators.counter ~bits:16 ~target:40_000 ());
      ("unbounded proof wanted", Circuit.Generators.ring ~len:24 ());
      ("noisy invariant", Circuit.Generators.ring ~len:12 ~noise:32 ());
    ]
  in
  Printf.printf "%-14s %-28s %-30s %-30s %-34s %-30s\n" "case" "(flavour)" "BMC (dynamic)"
    "symbolic (BDD)" "abstraction (cores + explicit)" "IC3/PDR";
  List.iter
    (fun (flavour, (case : Circuit.Generators.case)) ->
      let timed f =
        let t0 = Telemetry.wall () in
        let v = f () in
        (v, Telemetry.wall () -. t0)
      in
      let bmc, t_bmc =
        timed (fun () ->
            let config =
              Bmc.Session.make_config ~mode:Bmc.Session.Dynamic ~budget
                ~max_depth:(min case.suggested_depth 48) ()
            in
            Format.asprintf "%a" Bmc.Session.pp_verdict
              (Bmc.Session.check ~config ~policy:Bmc.Session.Fresh case.netlist
                 ~property:case.property)
                .verdict)
      in
      let sym, t_sym =
        timed (fun () ->
            Format.asprintf "%a" Bmc.Symbolic.pp_verdict
              (Bmc.Symbolic.check ~node_limit:1_000_000 case.netlist
                 ~property:case.property))
      in
      let abs, t_abs =
        timed (fun () ->
            let config =
              Bmc.Session.make_config ~mode:Bmc.Session.Static ~budget
                ~max_depth:(min case.suggested_depth 48) ()
            in
            Format.asprintf "%a" Bmc.Abstraction.pp_verdict
              (Bmc.Abstraction.prove_case ~config case).verdict)
      in
      let pdr, t_pdr =
        timed (fun () ->
            Format.asprintf "%a" Bmc.Pdr.pp_verdict
              (Bmc.Pdr.prove_case ~max_queries:20_000 case).verdict)
      in
      Printf.printf "%-14s %-28s %-30s %-30s %-34s %-30s\n" case.name
        ("(" ^ flavour ^ ")")
        (Printf.sprintf "%s %.2fs" bmc t_bmc)
        (Printf.sprintf "%s %.2fs" sym t_sym)
        (Printf.sprintf "%s %.2fs" abs t_abs)
        (Printf.sprintf "%s %.2fs" pdr t_pdr))
    cases;
  Printf.printf
    "\n   BMC nails shallow bugs in wide datapaths where BDDs struggle; BDDs\n\
    \   reach counterexamples thousands of cycles deep and prove invariants\n\
    \   outright; the core-guided abstraction turns bounded UNSAT answers\n\
    \   into unbounded proofs — each engine covers the others' blind spots.\n"

(* ------------------------------------------------------------------ *)
(* bench quick: a small fixed subset for trajectory tracking.          *)
(* ------------------------------------------------------------------ *)

(* Deterministic by construction: generator parameters are fixed, the budget
   is conflict-based (never wall-clock), and the solver itself has no random
   state — so outcomes, core-variable sets and search counters are stable
   across runs and machines, and only the time/allocation fields move.
   [quick] writes the snapshot (BENCH_quick.json); [quick-check] re-runs and
   fails if any outcome, core-variable set or search counter (decisions,
   conflicts, propagations) diverges from the snapshot. *)

let quick_budget =
  { Sat.Solver.max_conflicts = Some 200_000; max_propagations = None; max_seconds = None; stop = None }

let quick_snapshot_file = "BENCH_quick.json"

let quick_cases () =
  [
    (Circuit.Generators.counter ~bits:6 ~target:30 ~noise:8 (), 12);
    (Circuit.Generators.shift_in ~len:8 ~noise:4 (), 10);
    (Circuit.Generators.ring ~len:12 ~noise:24 (), 14);
    (Circuit.Generators.lfsr ~width:12 ~noise:24 (), 14);
    (Circuit.Generators.parity_pipe ~stages:10 ~noise:16 (), 13);
    (Circuit.Generators.gray ~bits:5 ~noise:16 (), 12);
    (Circuit.Generators.arbiter ~clients:8 ~noise:16 (), 12);
    (Circuit.Generators.johnson ~width:10 ~noise:16 (), 12);
  ]

type quick_row = {
  q_name : string;
  q_outcomes : string; (* one char per depth: 's' | 'u' | '?' *)
  q_core_hash : int; (* combined hash of the UNSAT-core variable sets *)
  q_decisions : int;
  q_conflicts : int;
  q_propagations : int;
  q_build : float; (* instance construction: unroll/deltas + solver setup *)
  q_bcp : float;
  q_solve : float;
  q_wall : float; (* wall-clock for the whole depth sweep *)
}

let quick_mix h x = ((h * 131) + x) land 0x3FFFFFFF

(* Inprocessing ablation for the snapshot: the default session rows against
   the same sweep with depth-boundary inprocessing on (deterministic budget:
   the default preset has no wall-clock slice).  Outcomes are gated exactly
   like every other sequential row; the block records what elimination
   bought on the all-UNSAT tail of the sweep, which is where the clause
   arena otherwise only ever grows. *)
type quick_inpr_totals = {
  mutable i_eliminated : int;
  mutable i_subsumed : int;
  mutable i_strengthened : int;
  mutable i_probe_failed : int;
  mutable i_resolvents : int;
}

type quick_inpr_summary = {
  i_tail_off_s : float; (* UNSAT-depth solve time, inprocessing off *)
  i_tail_on_s : float; (* same depths, inprocessing on *)
  i_totals : quick_inpr_totals;
}

(* Core-minimisation ablation for the snapshot: the static-ordering rows
   against the same sweep under [Core_minimal] with a deterministic
   solve-count budget (no wall-clock term, so the minimised cores — and the
   row's core hash — are reproducible and snapshot-gated like any other
   sequential row).  The block records how much the destructive minimiser
   shrank the proof-derived cores and that every minimised core was
   re-proved by the independent checker. *)
type quick_cores_totals = {
  mutable c_pre : int; (* core clauses before minimisation, summed *)
  mutable c_post : int; (* after *)
  mutable c_min_s : float; (* seconds spent minimising *)
  mutable c_all_certified : bool;
}

type quick_cores_summary = {
  c_tail_plain_s : float; (* UNSAT-depth solve time, +static rows *)
  c_tail_min_s : float; (* same depths under Core_minimal *)
  c_rank_share_plain : float; (* % of attributed decisions on ranked vars *)
  c_rank_share_min : float; (* same, under Core_minimal *)
  c_totals : quick_cores_totals;
}

(* deterministic: a solve-count cap only, never wall-clock *)
let quick_coremin_budget = { Sat.Coremin.no_budget with Sat.Coremin.max_solves = Some 32 }

(* The ablation runs on the lighter half of the suite: destructive
   minimisation re-solves the candidate core from scratch per depth (plus an
   independent certification solve), which on the two deep noise-24 cases
   costs tens of seconds each — out of scale for a quick gate that the other
   blocks keep under a minute.  The plain-static accumulators are restricted
   to the same subset so the tail and rank-share comparisons stay
   apples-to-apples. *)
let quick_cores_case ((case : Circuit.Generators.case), _) =
  match case.name with
  | "cnt6_t30_z8" | "shift8_z4" | "gray5_z16" | "parity10_z16" -> true
  | _ -> false

(* The session substrate: one persistent solver, frame deltas loaded once,
   the per-depth ¬P clause guarded by an activation literal.  Outcomes must
   match the per-depth-rebuild rows depth for depth (quick-check gates on
   it); search counters and core hashes legitimately differ — learnt
   clauses survive and cores may name activation variables — so each
   substrate is compared against its own snapshot history.  [mode]/[suffix]
   default to the snapshot row; the Static/Dynamic instantiations
   ([+static] / [+dynamic]) are the per-ordering baselines — snapshotted
   and gated like every other row, since their orderings are deterministic
   functions of the (deterministic) core sequence.  [~policy:Fresh] with no
   suffix gives the per-depth-rebuild rows (the seed engines' behaviour: a
   fresh solver over the whole instance at every depth). *)
let quick_run_case_session ?(policy = Bmc.Session.Persistent) ?(mode = Bmc.Session.Standard)
    ?(suffix = "+session") ?inprocess ?core_mode ?coremin_budget ?unsat_tail ?inpr_totals
    ?cores_totals ?dec_split ((case : Circuit.Generators.case), depth) =
  let config =
    Bmc.Session.make_config ~mode ~budget:quick_budget ~max_depth:depth ~collect_cores:true
      ?inprocess ?core_mode ?coremin_budget ~telemetry:tel ()
  in
  let session = Bmc.Session.create ~policy config case.netlist ~property:case.property in
  let buf = Buffer.create (depth + 1) in
  let hash = ref 7 in
  let dec = ref 0 and confl = ref 0 and props = ref 0 in
  let build = ref 0.0 and bcp = ref 0.0 and slv = ref 0.0 in
  let w0 = Portfolio.Pool.wall () in
  for k = 0 to depth do
    Bmc.Session.begin_instance session ~k;
    Bmc.Session.constrain session
      [ Sat.Lit.neg (Bmc.Session.var_of session ~node:case.property ~frame:k) ];
    let st = Bmc.Session.solve_instance session in
    (match st.Bmc.Session.outcome with
    | Sat.Solver.Sat -> Buffer.add_char buf 's'
    | Sat.Solver.Unsat ->
      Buffer.add_char buf 'u';
      hash := quick_mix !hash (k + 1);
      List.iter (fun v -> hash := quick_mix !hash v) (Bmc.Session.last_core_vars session)
    | Sat.Solver.Unknown -> Buffer.add_char buf '?');
    dec := !dec + st.Bmc.Session.decisions;
    confl := !confl + st.Bmc.Session.conflicts;
    props := !props + st.Bmc.Session.implications;
    build := !build +. st.Bmc.Session.build_time;
    (* summed per depth: a Fresh session's solver covers only its last *)
    bcp := !bcp +. st.Bmc.Session.bcp_time;
    slv := !slv +. st.Bmc.Session.time;
    (match cores_totals with
    | Some t ->
      t.c_pre <- t.c_pre + st.Bmc.Session.core_pre;
      t.c_post <- t.c_post + st.Bmc.Session.core_size;
      t.c_min_s <- t.c_min_s +. st.Bmc.Session.coremin_time;
      if not st.Bmc.Session.coremin_certified then t.c_all_certified <- false
    | None -> ());
    (match dec_split with
    | Some (rank, vsids) ->
      rank := !rank + st.Bmc.Session.dec_rank;
      vsids := !vsids + st.Bmc.Session.dec_vsids
    | None -> ());
    (* the UNSAT tail: where inprocessing is supposed to pay — the deep
       all-UNSAT suffix of the sweep, measured by per-depth solve time *)
    match (unsat_tail, st.Bmc.Session.outcome) with
    | Some acc, Sat.Solver.Unsat -> acc := !acc +. st.Bmc.Session.time
    | Some _, (Sat.Solver.Sat | Sat.Solver.Unknown) | None, _ -> ()
  done;
  let stats = Bmc.Session.solver_stats session in
  (match inpr_totals with
  | Some t ->
    t.i_eliminated <- t.i_eliminated + stats.Sat.Stats.inpr_eliminated;
    t.i_subsumed <- t.i_subsumed + stats.Sat.Stats.inpr_subsumed;
    t.i_strengthened <- t.i_strengthened + stats.Sat.Stats.inpr_strengthened;
    t.i_probe_failed <- t.i_probe_failed + stats.Sat.Stats.inpr_probe_failed;
    t.i_resolvents <- t.i_resolvents + stats.Sat.Stats.inpr_resolvents
  | None -> ());
  {
    q_name = case.name ^ suffix;
    q_outcomes = Buffer.contents buf;
    q_core_hash = !hash;
    q_decisions = !dec;
    q_conflicts = !confl;
    q_propagations = !props;
    q_build = !build;
    q_bcp = !bcp;
    q_solve = !slv;
    q_wall = Portfolio.Pool.wall () -. w0;
  }

(* Observability-overhead ablation for the snapshot: the same fixed session
   workload with the full tracing stack on (one event stream teed into a
   flight recorder and the aggregate a run ledger is read off) vs
   everything off.
   Best-of-3 walls on each side so scheduler noise cancels; quick-check
   gates the overhead at 5% — the "cheap enough to leave on" claim. *)
type quick_obs_summary = {
  o_wall_off : float;
  o_wall_on : float;
  o_overhead_pct : float;
}

let quick_observability () =
  let subset =
    match quick_cases () with a :: b :: c :: d :: _ -> [ a; b; c; d ] | short -> short
  in
  let run_once ~obs () =
    let recorder = if obs then Some (Obs.Recorder.create ()) else None in
    let agg = if obs then Some (Telemetry.Sink.aggregate ()) else None in
    let telemetry =
      (* event stream only (~timing:false): the ledger and the recorder do
         not buy per-BCP clock reads, exactly as bmccheck --ledger
         --flight-recorder configures it *)
      match (agg, recorder) with
      | Some agg, Some r ->
        Telemetry.create ~timing:false
          (Telemetry.Sink.tee [ Telemetry.Sink.of_aggregate agg; Obs.Recorder.sink r ])
      | _ -> Telemetry.disabled
    in
    let w0 = Portfolio.Pool.wall () in
    List.iter
      (fun ((case : Circuit.Generators.case), depth) ->
        let config =
          Bmc.Session.make_config ~mode:Bmc.Session.Dynamic ~budget:quick_budget
            ~max_depth:depth ~collect_cores:true ~telemetry ()
        in
        ignore
          (Bmc.Session.check ~config ~policy:Bmc.Session.Persistent case.netlist
             ~property:case.property))
      subset;
    (* the enabled side pays for the whole pipeline: snapshot the rings and
       read the ledger off the aggregate, as bmccheck --ledger would *)
    (match (agg, recorder) with
    | Some agg, Some r ->
      ignore (Obs.Ledger.of_aggregate agg);
      ignore (Obs.Recorder.snapshot r)
    | _ -> ());
    Portfolio.Pool.wall () -. w0
  in
  let best f =
    let a = f () and b = f () and c = f () in
    min a (min b c)
  in
  let off = best (run_once ~obs:false) in
  let on_ = best (run_once ~obs:true) in
  {
    o_wall_off = off;
    o_wall_on = on_;
    o_overhead_pct = (if off > 0.0 then (on_ -. off) /. off *. 100.0 else 0.0);
  }

(* The inprocess block's counters, in snapshot order. *)
let quick_inpr_fields (t : quick_inpr_totals) =
  [
    ("eliminated", t.i_eliminated);
    ("subsumed", t.i_subsumed);
    ("strengthened", t.i_strengthened);
    ("probe_failed", t.i_probe_failed);
    ("resolvents", t.i_resolvents);
  ]

let quick_json rows ~alloc_mb ~inprocess:isum ~cores:csum ~observability:osum =
  let open Obs.Json in
  (* six decimals (microseconds for the timings) keep float noise out of the
     committed file *)
  let num x = Float (Float.round (x *. 1e6) /. 1e6) in
  let floats kvs = Obj (List.map (fun (k, v) -> (k, num v)) kvs) in
  let ints = List.map (fun (k, v) -> (k, Int v)) in
  let case r =
    Obj
      [
        ("name", Str r.q_name);
        ("outcomes", Str r.q_outcomes);
        ("core_vars_hash", Str (Printf.sprintf "%08x" r.q_core_hash));
        ("decisions", Int r.q_decisions);
        ("conflicts", Int r.q_conflicts);
        ("propagations", Int r.q_propagations);
        ("build_s", num r.q_build);
        ("bcp_s", num r.q_bcp);
        ("solve_s", num r.q_solve);
        ("wall_s", num r.q_wall);
      ]
  in
  let tot f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let toti f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  Obj
    [
      ("schema", Str "bench-quick/v11");
      ("cases", List (List.map case rows));
      ( "totals",
        Obj
          [
            ("build_s", num (tot (fun r -> r.q_build)));
            ("bcp_s", num (tot (fun r -> r.q_bcp)));
            ("solve_s", num (tot (fun r -> r.q_solve)));
            ("wall_s", num (tot (fun r -> r.q_wall)));
            ("decisions", Int (toti (fun r -> r.q_decisions)));
            ("conflicts", Int (toti (fun r -> r.q_conflicts)));
            ("propagations", Int (toti (fun r -> r.q_propagations)));
            ("alloc_mb", num alloc_mb);
          ] );
      ( "inprocess",
        Obj
          (("unsat_tail_off_s", num isum.i_tail_off_s)
          :: ("unsat_tail_on_s", num isum.i_tail_on_s)
          :: ints (quick_inpr_fields isum.i_totals)) );
      ( "cores",
        Obj
          [
            ("pre_clauses", Int csum.c_totals.c_pre);
            ("post_clauses", Int csum.c_totals.c_post);
            ("coremin_s", num csum.c_totals.c_min_s);
            ("certified", Bool csum.c_totals.c_all_certified);
            ("unsat_tail_plain_s", num csum.c_tail_plain_s);
            ("unsat_tail_min_s", num csum.c_tail_min_s);
            ("dec_rank_share_plain_pct", num csum.c_rank_share_plain);
            ("dec_rank_share_min_pct", num csum.c_rank_share_min);
          ] );
      ( "observability",
        floats
          [
            ("wall_off_s", osum.o_wall_off);
            ("wall_on_s", osum.o_wall_on);
            ("overhead_pct", osum.o_overhead_pct);
          ] );
    ]

let quick_rows () =
  let a0 = Gc.allocated_bytes () in
  let cases = quick_cases () in
  (* the substrates over the same cases: per-depth rebuilds (a Fresh
     session) and the persistent incremental session (in all three
     orderings) *)
  let fresh = List.map (quick_run_case_session ~policy:Bmc.Session.Fresh ~suffix:"") cases in
  let inpr_tail_off = ref 0.0 in
  let session = List.map (quick_run_case_session ~unsat_tail:inpr_tail_off) cases in
  let inpr_tail_on = ref 0.0 in
  let inpr_totals =
    { i_eliminated = 0; i_subsumed = 0; i_strengthened = 0; i_probe_failed = 0; i_resolvents = 0 }
  in
  let session_inpr =
    List.map
      (quick_run_case_session ~inprocess:Sat.Inprocess.default ~suffix:"+session+inpr"
         ~unsat_tail:inpr_tail_on ~inpr_totals)
      cases
  in
  (* per-ordering baselines *)
  let cores_tail_plain = ref 0.0 in
  let split_plain = (ref 0, ref 0) in
  let seq_static =
    List.map
      (fun cd ->
        if quick_cores_case cd then
          quick_run_case_session ~mode:Bmc.Session.Static ~suffix:"+static"
            ~unsat_tail:cores_tail_plain ~dec_split:split_plain cd
        else quick_run_case_session ~mode:Bmc.Session.Static ~suffix:"+static" cd)
      cases
  in
  let seq_dynamic =
    List.map (quick_run_case_session ~mode:Bmc.Session.Dynamic ~suffix:"+dynamic") cases
  in
  (* the static sweep again under [Core_minimal]: same instances, so the
     outcome string is gated against +static; the minimised cores re-rank
     the score, so decisions and core hashes legitimately differ and the
     row keeps its own snapshot history *)
  let cores_tail_min = ref 0.0 in
  let split_min = (ref 0, ref 0) in
  let cores_totals = { c_pre = 0; c_post = 0; c_min_s = 0.0; c_all_certified = true } in
  let seq_static_coremin =
    List.map
      (quick_run_case_session ~mode:Bmc.Session.Static ~suffix:"+static+coremin"
         ~core_mode:Bmc.Session.Core_minimal ~coremin_budget:quick_coremin_budget
         ~unsat_tail:cores_tail_min ~cores_totals ~dec_split:split_min)
      (List.filter quick_cores_case cases)
  in
  let isum =
    { i_tail_off_s = !inpr_tail_off; i_tail_on_s = !inpr_tail_on; i_totals = inpr_totals }
  in
  let rank_share (rank, vsids) =
    let attributed = !rank + !vsids in
    if attributed = 0 then 0.0 else float_of_int !rank /. float_of_int attributed *. 100.0
  in
  let csum =
    {
      c_tail_plain_s = !cores_tail_plain;
      c_tail_min_s = !cores_tail_min;
      c_rank_share_plain = rank_share split_plain;
      c_rank_share_min = rank_share split_min;
      c_totals = cores_totals;
    }
  in
  let osum = quick_observability () in
  let rows =
    fresh @ session @ session_inpr @ seq_static @ seq_static_coremin @ seq_dynamic
  in
  let alloc_mb = (Gc.allocated_bytes () -. a0) /. (1024.0 *. 1024.0) in
  Printf.printf "\n== bench quick: fixed small subset (deterministic outcomes) ==\n\n";
  Printf.printf "%-24s %-14s %10s %10s %12s %9s %9s %9s %9s\n" "model" "outcomes" "decisions"
    "conflicts" "implications" "build(s)" "bcp(s)" "solve(s)" "wall(s)";
  List.iter
    (fun r ->
      Printf.printf "%-24s %-14s %10d %10d %12d %9.3f %9.3f %9.3f %9.3f\n" r.q_name
        r.q_outcomes r.q_decisions r.q_conflicts r.q_propagations r.q_build r.q_bcp r.q_solve
        r.q_wall)
    rows;
  Printf.printf "%-24s %-14s %10d %10d %12d %9.3f %9.3f %9.3f %9.3f   (%.1f MB allocated)\n"
    "TOTAL" ""
    (List.fold_left (fun a r -> a + r.q_decisions) 0 rows)
    (List.fold_left (fun a r -> a + r.q_conflicts) 0 rows)
    (List.fold_left (fun a r -> a + r.q_propagations) 0 rows)
    (List.fold_left (fun a r -> a +. r.q_build) 0.0 rows)
    (List.fold_left (fun a r -> a +. r.q_bcp) 0.0 rows)
    (List.fold_left (fun a r -> a +. r.q_solve) 0.0 rows)
    (List.fold_left (fun a r -> a +. r.q_wall) 0.0 rows)
    alloc_mb;
  let build_of rs = List.fold_left (fun a r -> a +. r.q_build) 0.0 rs in
  Printf.printf
    "\n   instance build time: fresh %.3fs (O(k^2) rebuilds), session %.3fs (frame deltas)\n"
    (build_of fresh) (build_of session);
  Printf.printf
    "   inprocessing: UNSAT-tail solve %.3fs off vs %.3fs on; eliminated=%d subsumed=%d \
     strengthened=%d probe_failed=%d resolvents=%d\n"
    isum.i_tail_off_s isum.i_tail_on_s inpr_totals.i_eliminated inpr_totals.i_subsumed
    inpr_totals.i_strengthened inpr_totals.i_probe_failed inpr_totals.i_resolvents;
  Printf.printf
    "   core minimisation: %d -> %d core clauses (%.3fs, %s); UNSAT-tail solve %.3fs plain \
     vs %.3fs minimised; rank share %.1f%% -> %.1f%%\n"
    cores_totals.c_pre cores_totals.c_post cores_totals.c_min_s
    (if cores_totals.c_all_certified then "all certified" else "NOT all certified")
    csum.c_tail_plain_s csum.c_tail_min_s csum.c_rank_share_plain csum.c_rank_share_min;
  Printf.printf
    "   observability: session sweep %.3fs bare vs %.3fs with flight recorder + ledger \
     (%+.1f%% overhead, best of 3)\n"
    osum.o_wall_off osum.o_wall_on osum.o_overhead_pct;
  Telemetry.gauge tel "quick.build_s" (List.fold_left (fun a r -> a +. r.q_build) 0.0 rows);
  Telemetry.gauge tel "quick.bcp_s" (List.fold_left (fun a r -> a +. r.q_bcp) 0.0 rows);
  Telemetry.gauge tel "quick.solve_s" (List.fold_left (fun a r -> a +. r.q_solve) 0.0 rows);
  Telemetry.gauge tel "quick.alloc_mb" alloc_mb;
  Telemetry.gauge tel "quick.decisions"
    (float_of_int (List.fold_left (fun a r -> a + r.q_decisions) 0 rows));
  Telemetry.gauge tel "quick.observability.overhead_pct" osum.o_overhead_pct;
  Telemetry.gauge tel "quick.inprocess.unsat_tail_off_s" isum.i_tail_off_s;
  Telemetry.gauge tel "quick.inprocess.unsat_tail_on_s" isum.i_tail_on_s;
  Telemetry.gauge tel "quick.inprocess.eliminated" (float_of_int inpr_totals.i_eliminated);
  Telemetry.gauge tel "quick.inprocess.subsumed" (float_of_int inpr_totals.i_subsumed);
  Telemetry.gauge tel "quick.cores.pre_clauses" (float_of_int cores_totals.c_pre);
  Telemetry.gauge tel "quick.cores.post_clauses" (float_of_int cores_totals.c_post);
  Telemetry.gauge tel "quick.cores.coremin_s" cores_totals.c_min_s;
  (rows, alloc_mb, isum, csum, osum)

let quick () =
  let rows, alloc_mb, isum, csum, osum = quick_rows () in
  let doc = quick_json rows ~alloc_mb ~inprocess:isum ~cores:csum ~observability:osum in
  let oc = open_out quick_snapshot_file in
  output_string oc (Obs.Json.to_string ~indent:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "bench: quick snapshot written to %s\n%!" quick_snapshot_file

(* The committed snapshot a -check artefact compares against; a missing or
   unparsable file fails the check. *)
let read_snapshot ~tool file =
  let fail msg =
    Printf.eprintf "%s: %s\n" tool msg;
    exit 1
  in
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error msg -> fail msg
  | text -> (
    match Obs.Json.of_string text with Ok d -> d | Error msg -> fail (file ^ ": " ^ msg))

let quick_check () =
  let snapshot = read_snapshot ~tool:"quick-check" quick_snapshot_file in
  let rows, _, isum, csum, osum = quick_rows () in
  let str j k = Option.bind (Obs.Json.member k j) Obs.Json.to_str in
  let int j k = Option.bind (Obs.Json.member k j) Obs.Json.to_int in
  let expected =
    List.filter_map
      (fun c -> Option.map (fun name -> (name, c)) (str c "name"))
      (Obs.Json.get_list snapshot "cases")
  in
  let expected_inpr =
    Option.map
      (fun block -> List.map (fun (f, _) -> int block f) (quick_inpr_fields isum.i_totals))
      (Obs.Json.member "inprocess" snapshot)
  in
  let failures = ref 0 in
  List.iter
    (fun r ->
      match List.assoc_opt r.q_name expected with
      | None ->
        incr failures;
        Printf.eprintf "quick-check: %s missing from %s\n" r.q_name quick_snapshot_file
      | Some c ->
        let outcomes = str c "outcomes" and hash = str c "core_vars_hash" in
        let counters = List.map (int c) [ "decisions"; "conflicts"; "propagations" ] in
        let got_hash = Printf.sprintf "%08x" r.q_core_hash in
        if outcomes <> Some r.q_outcomes then begin
          incr failures;
          Printf.eprintf "quick-check: %s outcomes diverge: snapshot %s, got %s\n" r.q_name
            (Option.value ~default:"?" outcomes)
            r.q_outcomes
        end;
        if hash <> Some got_hash then begin
          incr failures;
          Printf.eprintf "quick-check: %s core-variable sets diverge: snapshot %s, got %s\n"
            r.q_name
            (Option.value ~default:"?" hash)
            got_hash
        end;
        (* the search itself is deterministic: a hot-path change must
           reproduce it counter for counter *)
        List.iter2
          (fun (field, got) want ->
            if want <> Some got then begin
              incr failures;
              Printf.eprintf "quick-check: %s %s diverge: snapshot %s, got %d\n" r.q_name field
                (match want with Some n -> string_of_int n | None -> "?")
                got
            end)
          [
            ("decisions", r.q_decisions);
            ("conflicts", r.q_conflicts);
            ("propagations", r.q_propagations);
          ]
          counters)
    rows;
  (* the inprocessing counters are deterministic too (the default preset
     has no wall-clock slice): a change to the engine or its replay must
     reproduce them exactly *)
  (match expected_inpr with
  | None ->
    incr failures;
    Printf.eprintf "quick-check: no inprocess block in %s\n" quick_snapshot_file
  | Some want ->
    List.iter2
      (fun (field, got) want ->
        if want <> Some got then begin
          incr failures;
          Printf.eprintf "quick-check: inprocess %s diverge: snapshot %s, got %d\n" field
            (match want with Some n -> string_of_int n | None -> "?")
            got
        end)
      (quick_inpr_fields isum.i_totals)
      want);
  (* cross-substrate gates: every substrate solves the same instance
     sequence, so per-depth outcomes must agree exactly across the fresh
     and session rows (all three orderings) *)
  let by_name = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace by_name r.q_name r) rows;
  List.iter
    (fun r ->
      List.iter
        (fun suffix ->
          match Hashtbl.find_opt by_name (r.q_name ^ suffix) with
          | Some s when s.q_outcomes <> r.q_outcomes ->
            incr failures;
            Printf.eprintf "quick-check: %s: fresh and %s outcomes diverge: %s vs %s\n"
              r.q_name suffix r.q_outcomes s.q_outcomes
          | Some _ | None -> ())
        [
          "+session";
          "+session+inpr";
          "+static";
          "+static+coremin";
          "+dynamic";
        ])
    rows;
  (* the core-minimisation gates: the minimised cores must be strictly
     smaller in aggregate than the proof-derived ones (the point of the
     pass), every one must be re-proved by the independent checker, and
     the minimised sweep's UNSAT-tail solve time must stay close to the
     plain static sweep's (the minimiser runs after each solve, so the
     tails only drift if the re-ranked score degrades the search) *)
  if csum.c_totals.c_pre > 0 && csum.c_totals.c_post >= csum.c_totals.c_pre then begin
    incr failures;
    Printf.eprintf
      "quick-check: core minimisation did not shrink the cores (%d -> %d clauses)\n"
      csum.c_totals.c_pre csum.c_totals.c_post
  end;
  if not csum.c_totals.c_all_certified then begin
    incr failures;
    Printf.eprintf "quick-check: a minimised core failed checker certification\n"
  end;
  if csum.c_tail_min_s > (2.0 *. csum.c_tail_plain_s) +. 0.5 then begin
    incr failures;
    Printf.eprintf
      "quick-check: UNSAT-tail solve regressed under core minimisation (%.3fs plain vs \
       %.3fs minimised)\n"
      csum.c_tail_plain_s csum.c_tail_min_s
  end;
  (* ordering quality must not regress: the static sweep steered by minimised
     cores has to keep branching on ranked variables about as often as the
     one steered by raw cores (10-point tolerance, same as the ledger diff) *)
  if csum.c_rank_share_min < csum.c_rank_share_plain -. 10.0 then begin
    incr failures;
    Printf.eprintf
      "quick-check: rank-guided decision share dropped under core minimisation (%.1f%% \
       plain vs %.1f%% minimised)\n"
      csum.c_rank_share_plain csum.c_rank_share_min
  end;
  (* the tracing-overhead gate: the flight recorder + ledger pipeline must
     stay within 5% of the bare wall (fresh measurement, best of 3) *)
  if osum.o_overhead_pct > 5.0 then begin
    incr failures;
    Printf.eprintf
      "quick-check: observability overhead %.1f%% exceeds the 5%% gate (%.3fs bare vs \
       %.3fs traced)\n"
      osum.o_overhead_pct osum.o_wall_off osum.o_wall_on
  end;
  if !failures > 0 then begin
    Printf.eprintf "quick-check: %d divergence(s) from %s\n" !failures quick_snapshot_file;
    exit 1
  end;
  Printf.printf
    "quick-check: all outcomes, core-variable sets, search and inprocessing counters match \
     %s (fresh and session agree; observability overhead %.1f%% within the 5%% gate)\n"
    quick_snapshot_file osum.o_overhead_pct

(* ------------------------------------------------------------------ *)
(* bench serve: service-layer workload over the warm-session cache.    *)
(* ------------------------------------------------------------------ *)

(* Replays the quick subset through the Serve engine as three phases per
   case: a cold request (cache miss, full depth sweep), an identical
   repeat (answered from the entry's memo without touching a solver) and
   a deeper extension (resuming the warm session at its first unproven
   depth).  Circuits travel as inline text, so every request is parsed
   fresh and cache identity really is the structural digest, not physical
   equality.  With one worker and no conflict budget the verdicts, cache
   classes and solve counts are deterministic; only the timing fields
   move.  [serve] writes BENCH_serve.json; [serve-check] re-runs and
   gates on the snapshot plus the headline service properties (hit rate
   positive, memo repeats >= 2x faster than cold). *)

let serve_snapshot_file = "BENCH_serve.json"

type serve_row = {
  sv_label : string; (* "<case>@<depth>/<phase>" *)
  sv_cache : string;
  sv_verdict : string;
  sv_vdepth : int; (* depth in the verdict: failure depth or proven bound *)
  sv_solved : int; (* solver instances run for this request *)
  sv_wall_ms : float;
}

let serve_workload () =
  List.concat_map
    (fun ((case : Circuit.Generators.case), depth) ->
      let d0 = max 2 (depth - 2) in
      [ (case, d0, "cold"); (case, d0, "repeat"); (case, depth, "extend") ])
    (quick_cases ())

let serve_rows () =
  let cfg =
    Serve.Server.make_config ~jobs:1 ~cache_bytes:(256 * 1024 * 1024)
      ~mode:Bmc.Session.Dynamic ()
  in
  let t = Serve.Server.create cfg in
  let rows =
    List.map
      (fun ((case : Circuit.Generators.case), depth, phase) ->
        let label = Printf.sprintf "%s@%d/%s" case.Circuit.Generators.name depth phase in
        let text =
          Circuit.Textio.to_string case.Circuit.Generators.netlist
            ~property:case.Circuit.Generators.property
        in
        let rq =
          {
            Serve.Protocol.rq_id = label;
            rq_src = Serve.Protocol.Inline text;
            rq_depth = depth;
            rq_mode = None;
            rq_deadline_ms = None;
            rq_stats = false;
          }
        in
        let rs = Serve.Server.check_now t rq in
        match rs.Serve.Protocol.rs_reply with
        | Serve.Protocol.Answer b ->
          let verdict, vdepth =
            match b.Serve.Protocol.rs_verdict with
            | Serve.Protocol.Falsified (d, _) -> ("falsified", d)
            | Serve.Protocol.Bounded_pass d -> ("bounded_pass", d)
            | Serve.Protocol.Aborted d -> ("aborted", d)
          in
          {
            sv_label = label;
            sv_cache = Serve.Protocol.cache_class_string b.Serve.Protocol.rs_cache;
            sv_verdict = verdict;
            sv_vdepth = vdepth;
            sv_solved = b.Serve.Protocol.rs_solved;
            sv_wall_ms = rs.Serve.Protocol.rs_wall_ms;
          }
        | Serve.Protocol.Shed | Serve.Protocol.Draining | Serve.Protocol.Bad_request _ ->
          Printf.eprintf "bench serve: request %s was not answered\n" label;
          exit 1)
      (serve_workload ())
  in
  let st = Serve.Server.stats t in
  let uptime_ms = Serve.Server.uptime_ms t in
  Serve.Server.shutdown t;
  (rows, st, uptime_ms)

let serve_mean f rows =
  match List.filter f rows with
  | [] -> 0.0
  | l -> List.fold_left (fun a r -> a +. r.sv_wall_ms) 0.0 l /. float_of_int (List.length l)

let serve_phase p r =
  let n = String.length r.sv_label and np = String.length p in
  n > np && String.sub r.sv_label (n - np) np = p

let serve_pctl rows p =
  match List.sort compare (List.map (fun r -> r.sv_wall_ms) rows) with
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    let i = int_of_float (ceil (p /. 100.0 *. float_of_int (Array.length a))) - 1 in
    a.(max 0 (min (Array.length a - 1) i))

let serve_json rows (st : Serve.Server.stats) uptime_ms =
  let cold_mean = serve_mean (serve_phase "/cold") rows in
  let repeat_mean = serve_mean (serve_phase "/repeat") rows in
  let warm_mean = serve_mean (fun r -> r.sv_cache = "warm") rows in
  let n = List.length rows in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "bench-serve/v1");
      ("requests", Obs.Json.Int n);
      ("shed", Obs.Json.Int st.Serve.Server.st_shed);
      ("errors", Obs.Json.Int st.Serve.Server.st_errors);
      ( "cache",
        Obs.Json.Obj
          [
            ("hit", Obs.Json.Int st.Serve.Server.st_hits);
            ("warm", Obs.Json.Int st.Serve.Server.st_warm);
            ("miss", Obs.Json.Int st.Serve.Server.st_misses);
          ] );
      ( "cache_hit_rate",
        Obs.Json.Float
          (float_of_int st.Serve.Server.st_hits /. float_of_int (max 1 n)) );
      ( "throughput_rps",
        Obs.Json.Float (float_of_int n *. 1e3 /. Float.max 1e-6 uptime_ms) );
      ("p50_ms", Obs.Json.Float (serve_pctl rows 50.0));
      ("p95_ms", Obs.Json.Float (serve_pctl rows 95.0));
      ("p99_ms", Obs.Json.Float (serve_pctl rows 99.0));
      ("cold_mean_ms", Obs.Json.Float cold_mean);
      ("repeat_mean_ms", Obs.Json.Float repeat_mean);
      ("warm_mean_ms", Obs.Json.Float warm_mean);
      ("warm_speedup", Obs.Json.Float (cold_mean /. Float.max 1e-6 repeat_mean));
      ( "rows",
        Obs.Json.List
          (List.map
             (fun r ->
               Obs.Json.Obj
                 [
                   ("name", Obs.Json.Str r.sv_label);
                   ("cache", Obs.Json.Str r.sv_cache);
                   ("verdict", Obs.Json.Str r.sv_verdict);
                   ("depth", Obs.Json.Int r.sv_vdepth);
                   ("solved", Obs.Json.Int r.sv_solved);
                 ])
             rows) );
    ]

let serve () =
  let rows, st, uptime_ms = serve_rows () in
  let doc = serve_json rows st uptime_ms in
  let oc = open_out serve_snapshot_file in
  output_string oc (Obs.Json.to_string ~indent:true doc);
  output_char oc '\n';
  close_out oc;
  Telemetry.gauge tel "serve.requests" (float_of_int (List.length rows));
  Telemetry.gauge tel "serve.hits" (float_of_int st.Serve.Server.st_hits);
  Printf.eprintf "bench: serve snapshot written to %s\n%!" serve_snapshot_file

let serve_check () =
  let snapshot = read_snapshot ~tool:"serve-check" serve_snapshot_file in
  let rows, st, _uptime_ms = serve_rows () in
  let failures = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> incr failures; Printf.eprintf "serve-check: %s\n" m) fmt in
  (* deterministic per-row fields must match the committed snapshot *)
  let snap_rows =
    List.filter_map
      (fun r ->
        match Obs.Json.member "name" r with
        | Some (Obs.Json.Str name) -> Some (name, r)
        | _ -> None)
      (Obs.Json.get_list snapshot "rows")
  in
  List.iter
    (fun r ->
      match List.assoc_opt r.sv_label snap_rows with
      | None -> fail "row %s missing from %s" r.sv_label serve_snapshot_file
      | Some s ->
        List.iter
          (fun (key, got) ->
            let want = Obs.Json.get_str ~default:"?" s key in
            if want <> got then
              fail "%s: %s diverges: snapshot %s, got %s" r.sv_label key want got)
          [ ("cache", r.sv_cache); ("verdict", r.sv_verdict) ];
        List.iter
          (fun (key, got) ->
            let want = Obs.Json.get_int ~default:min_int s key in
            if want <> got then
              fail "%s: %s diverges: snapshot %d, got %d" r.sv_label key want got)
          [ ("depth", r.sv_vdepth); ("solved", r.sv_solved) ])
    rows;
  if List.length snap_rows <> List.length rows then
    fail "row count diverges: snapshot %d, got %d" (List.length snap_rows)
      (List.length rows);
  (* verdicts must agree with the generators' ground truth *)
  List.iter
    (fun ((case : Circuit.Generators.case), depth, phase) ->
      let label = Printf.sprintf "%s@%d/%s" case.Circuit.Generators.name depth phase in
      match
        ( case.Circuit.Generators.expect,
          List.find_opt (fun r -> r.sv_label = label) rows )
      with
      | Some expect, Some r ->
        let want =
          match expect with
          | Circuit.Generators.Fails_at f when f <= depth -> ("falsified", f)
          | Circuit.Generators.Fails_at _ | Circuit.Generators.Holds ->
            ("bounded_pass", depth)
        in
        if (r.sv_verdict, r.sv_vdepth) <> want then
          fail "%s: expected %s@%d, got %s@%d" label (fst want) (snd want) r.sv_verdict
            r.sv_vdepth
      | _ -> ())
    (serve_workload ());
  (* headline service gates: the cache must actually serve, and a memo
     repeat must be far cheaper than the cold solve it replays *)
  if st.Serve.Server.st_hits = 0 then fail "cache hit rate is zero";
  if st.Serve.Server.st_warm = 0 then fail "no request resumed a warm session";
  let cold_mean = serve_mean (serve_phase "/cold") rows in
  let repeat_mean = serve_mean (serve_phase "/repeat") rows in
  let speedup = cold_mean /. Float.max 1e-6 repeat_mean in
  if speedup < 2.0 then
    fail "memo repeats only %.1fx faster than cold (gate: >= 2x, %.2fms vs %.2fms)"
      speedup cold_mean repeat_mean;
  if !failures > 0 then begin
    Printf.eprintf "serve-check: %d divergence(s) from %s\n" !failures serve_snapshot_file;
    exit 1
  end;
  Printf.printf
    "serve-check: all verdicts and cache classes match %s (%d hit / %d warm / %d miss; \
     memo repeats %.0fx faster than cold)\n"
    serve_snapshot_file st.Serve.Server.st_hits st.Serve.Server.st_warm
    st.Serve.Server.st_misses speedup

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks.                                          *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  Printf.printf "\n== Bechamel micro-benchmarks (one per artefact) ==\n";
  let representative = Circuit.Generators.ring ~len:8 ~noise:8 () in
  let u =
    Bmc.Unroll.create representative.Circuit.Generators.netlist
      ~property:representative.Circuit.Generators.property
  in
  let cnf = Bmc.Unroll.instance u ~k:6 in
  let solve_with mode () =
    let s = Sat.Solver.create ~mode cnf in
    ignore (Sat.Solver.solve s)
  in
  let rank =
    (* a plausible mid-run ranking: earlier-frame variables first *)
    Array.init (Sat.Cnf.num_vars cnf) (fun v ->
        match Bmc.Varmap.key_of (Bmc.Unroll.varmap u) v with
        | Some (_, frame) -> float_of_int (6 - frame)
        | None -> 0.0)
  in
  let proof_solve with_proof () =
    let s = Sat.Solver.create ~with_proof cnf in
    ignore (Sat.Solver.solve s)
  in
  let fig7_small () =
    let case = Circuit.Generators.ring ~len:6 () in
    let config =
      Bmc.Session.make_config ~mode:Bmc.Session.Dynamic ~max_depth:6 ~budget:per_instance_budget ()
    in
    ignore
      (Bmc.Session.check ~config ~policy:Bmc.Session.Fresh case.netlist ~property:case.property)
  in
  let tests =
    [
      Test.make ~name:"table1/solve-standard" (Staged.stage (solve_with Sat.Order.Vsids));
      Test.make ~name:"table1/solve-static" (Staged.stage (solve_with (Sat.Order.Static rank)));
      Test.make ~name:"table1/solve-dynamic"
        (Staged.stage (solve_with (Sat.Order.Dynamic rank)));
      Test.make ~name:"fig6/unroll-instance"
        (Staged.stage (fun () -> ignore (Bmc.Unroll.instance u ~k:6)));
      Test.make ~name:"fig7/engine-run" (Staged.stage fig7_small);
      Test.make ~name:"overhead/proof-off" (Staged.stage (proof_solve false));
      Test.make ~name:"overhead/proof-on" (Staged.stage (proof_solve true));
    ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  Printf.printf "%-24s %16s %10s\n" "name" "ns/run" "r^2";
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg [ Toolkit.Instance.monotonic_clock ] elt in
          let ols =
            Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
          in
          let est = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
          let ns =
            match Analyze.OLS.estimates est with
            | Some [ v ] -> v
            | Some _ | None -> Float.nan
          in
          let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square est) in
          Printf.printf "%-24s %16.0f %10.3f\n" (Test.Elt.name elt) ns r2)
        (Test.elements test))
    tests

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)
(* ------------------------------------------------------------------ *)

let usage () =
  Printf.printf
    "usage: main.exe \
     [table1|fig6|fig7|overhead|ablation|complement|quick|quick-check|serve|serve-check|micro]...\n\
     with no arguments, runs every artefact except quick-check and serve-check.\n\
     quick       small fixed-seed subset; writes the BENCH_quick.json snapshot\n\
     quick-check re-runs the quick subset and fails on any outcome, core or\n\
    \             search-counter divergence\n\
     serve       cold/repeat/extend workload through the service layer;\n\
    \             writes the BENCH_serve.json snapshot\n\
     serve-check re-runs the serve workload and fails on any divergence\n"

let write_results () =
  let oc = open_out results_file in
  output_string oc (Obs.Json.to_string (Obs.Jsonl.aggregate_to_json bench_agg));
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "bench: machine-readable results written to %s\n%!" results_file

let run_artefact name f = Telemetry.span tel ("artefact:" ^ name) f

let () =
  let artefacts =
    [
      ("table1", table1);
      ("fig6", fig6);
      ("fig7", fig7);
      ("overhead", overhead);
      ("ablation", ablation);
      ("complement", complement);
      ("quick", quick);
      ("quick-check", quick_check);
      ("serve", serve);
      ("serve-check", serve_check);
      ("micro", micro);
    ]
  in
  let canonical = function "--quick" -> "quick" | "--quick-check" -> "quick-check" | a -> a in
  match List.map canonical (List.tl (Array.to_list Sys.argv)) with
  | [] ->
    List.iter
      (fun (name, f) ->
        if name <> "quick-check" && name <> "serve-check" then run_artefact name f)
      artefacts;
    write_results ()
  | args ->
    List.iter
      (fun a ->
        match List.assoc_opt a artefacts with
        | Some f -> run_artefact a f
        | None ->
          usage ();
          exit 2)
      args;
    write_results ()
