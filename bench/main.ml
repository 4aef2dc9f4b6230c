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
     complement §1      — BMC beside BDD reachability, abstraction and PDR
     quick     the timing-free BENCH_quick.json snapshot (search counters)

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

(* [table1] and [overhead] also publish their headline numbers as gauges
   through the telemetry aggregator; when one of them ran, the whole
   aggregate is written to bench_results.json so downstream tooling can
   diff runs without scraping the tables above. *)
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
(* bench quick: the timing-free snapshot.                              *)
(* ------------------------------------------------------------------ *)

(* Deterministic by construction: generator parameters are fixed, every
   budget counts conflicts or solves (never seconds), and neither the
   solver nor the service layer has random state, so every field of the
   snapshot repeats exactly across runs and machines.  The snapshot holds
   strings, ints and bools only; time is measured by perfbench.  [quick]
   checks the invariants below and rewrites BENCH_quick.json only when all
   of them hold; the gate is that the regenerated file equals the
   committed one (`git diff --exit-code -- BENCH_quick.json`). *)

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

(* One depth sweep.  Only the first seven fields are snapshot rows; the
   rest feed the inprocess and cores blocks. *)
type quick_row = {
  q_name : string;
  q_outcomes : string; (* one char per depth: 's' | 'u' | '?' *)
  q_core_hash : int; (* combined hash of the UNSAT-core variable sets *)
  q_decisions : int;
  q_conflicts : int;
  q_propagations : int;
  q_heap_cmps : int; (* decision-heap key comparisons *)
  q_dec_rank : int; (* decisions on a ranked variable *)
  q_dec_vsids : int; (* decisions on VSIDS activity alone *)
  q_core_pre : int; (* core clauses before minimisation, summed over depths *)
  q_core_post : int; (* after *)
  q_certified : bool; (* every minimised core passed the checker *)
  q_inpr : int list; (* the session's inprocessing counters, [quick_inpr_fields] order *)
}

let quick_mix h x = ((h * 131) + x) land 0x3FFFFFFF

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* % of attributed decisions that branched on a ranked variable *)
let rank_share rows =
  let rank = sum (fun r -> r.q_dec_rank) rows and vsids = sum (fun r -> r.q_dec_vsids) rows in
  if rank + vsids = 0 then 0.0 else float_of_int rank /. float_of_int (rank + vsids) *. 100.0

let quick_inpr_fields = [ "eliminated"; "subsumed"; "strengthened"; "probe_failed"; "resolvents" ]

(* deterministic: a solve-count cap only, never wall-clock *)
let quick_coremin_budget = { Sat.Coremin.no_budget with Sat.Coremin.max_solves = Some 32 }

(* The core-minimisation sweep runs on the lighter half of the suite:
   destructive minimisation re-solves the candidate core from scratch per
   depth (plus an independent certification solve), which on the two deep
   noise-24 cases costs tens of seconds each.  The rank-share comparison
   restricts the plain static rows to the same cases. *)
let quick_cores_case ((case : Circuit.Generators.case), _) =
  match case.name with
  | "cnt6_t30_z8" | "shift8_z4" | "gray5_z16" | "parity10_z16" -> true
  | _ -> false

(* One depth sweep through [Session].  The default is the persistent
   session (one solver, frame deltas loaded once, the per-depth ¬P clause
   guarded by an activation literal); [~policy:Fresh] with no suffix gives
   the per-depth-rebuild rows.  Outcomes must agree across substrates depth
   for depth; search counters and core hashes legitimately differ (learnt
   clauses survive, and cores may name activation variables), so each row
   keeps its own snapshot history. *)
let quick_run_case_session ?(policy = Bmc.Session.Persistent) ?(mode = Bmc.Session.Standard)
    ?(suffix = "+session") ?inprocess ?core_mode ?coremin_budget
    ((case : Circuit.Generators.case), depth) =
  let config =
    Bmc.Session.make_config ~mode ~budget:quick_budget ~max_depth:depth ~collect_cores:true
      ?inprocess ?core_mode ?coremin_budget ()
  in
  let session = Bmc.Session.create ~policy config case.netlist ~property:case.property in
  let buf = Buffer.create (depth + 1) in
  let hash = ref 7 in
  let stats = ref [] in
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
    stats := st :: !stats
  done;
  let stats = !stats and s = Bmc.Session.solver_stats session in
  {
    q_name = case.name ^ suffix;
    q_outcomes = Buffer.contents buf;
    q_core_hash = !hash;
    q_decisions = sum (fun st -> st.Bmc.Session.decisions) stats;
    q_conflicts = sum (fun st -> st.Bmc.Session.conflicts) stats;
    q_propagations = sum (fun st -> st.Bmc.Session.implications) stats;
    q_heap_cmps = sum (fun st -> st.Bmc.Session.heap_cmps) stats;
    q_dec_rank = sum (fun st -> st.Bmc.Session.dec_rank) stats;
    q_dec_vsids = sum (fun st -> st.Bmc.Session.dec_vsids) stats;
    q_core_pre = sum (fun st -> st.Bmc.Session.core_pre) stats;
    q_core_post = sum (fun st -> st.Bmc.Session.core_size) stats;
    q_certified = List.for_all (fun st -> st.Bmc.Session.coremin_certified) stats;
    q_inpr =
      Sat.Stats.
        [
          s.inpr_eliminated; s.inpr_subsumed; s.inpr_strengthened; s.inpr_probe_failed;
          s.inpr_resolvents;
        ];
  }

(* The service layer over the same cases: per case a cold request (cache
   miss, full depth sweep), an identical repeat (answered from the entry's
   memo without touching a solver) and a deeper extension (resuming the
   warm session at its first unproven depth).  Circuits travel as inline
   text, so every request is parsed afresh and cache identity is the
   structural digest.  With one worker and no conflict budget the
   verdicts, cache classes and solve counts are deterministic. *)
type serve_row = {
  sv_label : string; (* "<case>@<depth>/<phase>" *)
  sv_expect : (string * int) option; (* the generator's verdict at this depth, if it has one *)
  sv_cache : string;
  sv_verdict : string;
  sv_vdepth : int; (* depth in the verdict: failure depth or proven bound *)
  sv_solved : int; (* solver instances run for this request *)
}

let serve_rows () =
  let cfg =
    Serve.Server.make_config ~jobs:1 ~cache_bytes:(256 * 1024 * 1024)
      ~mode:Bmc.Session.Dynamic ()
  in
  let t = Serve.Server.create cfg in
  let request ((case : Circuit.Generators.case), depth, phase) =
    let label = Printf.sprintf "%s@%d/%s" case.name depth phase in
    let text = Circuit.Textio.to_string case.netlist ~property:case.property in
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
    match (Serve.Server.check_now t rq).Serve.Protocol.rs_reply with
    | Serve.Protocol.Answer b ->
      let verdict, vdepth =
        match b.Serve.Protocol.rs_verdict with
        | Serve.Protocol.Falsified (d, _) -> ("falsified", d)
        | Serve.Protocol.Bounded_pass d -> ("bounded_pass", d)
        | Serve.Protocol.Aborted d -> ("aborted", d)
      in
      {
        sv_label = label;
        sv_expect =
          Option.map
            (function
              | Circuit.Generators.Fails_at f when f <= depth -> ("falsified", f)
              | Circuit.Generators.Fails_at _ | Circuit.Generators.Holds -> ("bounded_pass", depth))
            case.expect;
        sv_cache = Serve.Protocol.cache_class_string b.Serve.Protocol.rs_cache;
        sv_verdict = verdict;
        sv_vdepth = vdepth;
        sv_solved = b.Serve.Protocol.rs_solved;
      }
    | Serve.Protocol.Shed | Serve.Protocol.Draining | Serve.Protocol.Bad_request _ ->
      Printf.eprintf "bench quick: serve request %s was not answered\n" label;
      exit 1
  in
  let rows =
    List.concat_map
      (fun ((case : Circuit.Generators.case), depth) ->
        let d0 = max 2 (depth - 2) in
        List.map request [ (case, d0, "cold"); (case, d0, "repeat"); (case, depth, "extend") ])
      (quick_cases ())
  in
  let st = Serve.Server.stats t in
  Serve.Server.shutdown t;
  (rows, st)

(* The invariants [quick] asserts before it writes: every substrate and
   ordering solves the same instance sequence, so per-depth outcomes agree
   with the per-depth-rebuild rows; minimised cores shrink and are all
   re-proved by the independent checker; the static sweep steered by
   minimised cores branches on ranked variables about as often as the one
   steered by raw cores (10-point tolerance, as in the ledger diff); the
   service layer answers
   the generators' ground truth, replays every repeat from the memo, and
   both hits and resumes a warm session.  Returns one message per broken
   invariant. *)
let quick_failures ~fresh ~rows ~plain ~coremin ~serve:(srows, (st : Serve.Server.stats)) =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun f ->
      List.iter
        (fun suffix ->
          match List.find_opt (fun r -> r.q_name = f.q_name ^ suffix) rows with
          | Some r when r.q_outcomes <> f.q_outcomes ->
            fail "%s: fresh and %s outcomes diverge: %s vs %s" f.q_name suffix f.q_outcomes
              r.q_outcomes
          | Some _ | None -> ())
        [ "+session"; "+session+inpr"; "+static"; "+static+coremin"; "+dynamic" ])
    fresh;
  let pre = sum (fun r -> r.q_core_pre) coremin and post = sum (fun r -> r.q_core_post) coremin in
  if post >= pre then fail "core minimisation did not shrink the cores (%d -> %d clauses)" pre post;
  if not (List.for_all (fun r -> r.q_certified) coremin) then
    fail "a minimised core failed checker certification";
  if rank_share coremin < rank_share plain -. 10.0 then
    fail "rank-guided decision share dropped under core minimisation (%.1f%% plain vs %.1f%% \
          minimised)"
      (rank_share plain) (rank_share coremin);
  List.iter
    (fun r ->
      (match r.sv_expect with
      | Some (verdict, depth) when (verdict, depth) <> (r.sv_verdict, r.sv_vdepth) ->
        fail "%s: expected %s@%d, got %s@%d" r.sv_label verdict depth r.sv_verdict r.sv_vdepth
      | Some _ | None -> ());
      if String.ends_with ~suffix:"/repeat" r.sv_label && (r.sv_cache <> "hit" || r.sv_solved <> 0)
      then fail "%s: a repeat must be a memo hit solving nothing, got %s solving %d" r.sv_label
          r.sv_cache r.sv_solved)
    srows;
  if st.Serve.Server.st_hits = 0 then fail "no serve request hit the cache";
  if st.Serve.Server.st_warm = 0 then fail "no serve request resumed a warm session";
  List.rev !failures

let quick_json rows ~plain ~coremin ~session_inpr ~serve:(srows, (st : Serve.Server.stats)) =
  let open Obs.Json in
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
        ("heap_cmps", Int r.q_heap_cmps);
      ]
  in
  let serve_row r =
    Obj
      [
        ("name", Str r.sv_label);
        ("cache", Str r.sv_cache);
        ("verdict", Str r.sv_verdict);
        ("depth", Int r.sv_vdepth);
        ("solved", Int r.sv_solved);
      ]
  in
  let inpr =
    List.fold_left (List.map2 ( + )) (List.map (fun _ -> 0) quick_inpr_fields)
      (List.map (fun r -> r.q_inpr) session_inpr)
  in
  Obj
    [
      ("schema", Str "bench-quick/v13");
      ("cases", List (List.map case rows));
      ("inprocess", Obj (ints (List.combine quick_inpr_fields inpr)));
      ( "cores",
        Obj
          [
            ("pre_clauses", Int (sum (fun r -> r.q_core_pre) coremin));
            ("post_clauses", Int (sum (fun r -> r.q_core_post) coremin));
            ("certified", Bool (List.for_all (fun r -> r.q_certified) coremin));
            ("dec_rank_plain", Int (sum (fun r -> r.q_dec_rank) plain));
            ("dec_vsids_plain", Int (sum (fun r -> r.q_dec_vsids) plain));
            ("dec_rank_min", Int (sum (fun r -> r.q_dec_rank) coremin));
            ("dec_vsids_min", Int (sum (fun r -> r.q_dec_vsids) coremin));
          ] );
      ( "serve",
        Obj
          [
            ("requests", Int (List.length srows));
            ("shed", Int st.Serve.Server.st_shed);
            ("errors", Int st.Serve.Server.st_errors);
            ( "cache",
              Obj
                (ints
                   [
                     ("hit", st.Serve.Server.st_hits);
                     ("warm", st.Serve.Server.st_warm);
                     ("miss", st.Serve.Server.st_misses);
                   ]) );
            ("rows", List (List.map serve_row srows));
          ] );
    ]

let quick () =
  let cases = quick_cases () in
  let run = quick_run_case_session in
  (* the substrates over the same cases: per-depth rebuilds (a Fresh
     session), and the persistent session plain, with inprocessing, and
     in the paper's two orderings *)
  let fresh = List.map (run ~policy:Bmc.Session.Fresh ~suffix:"") cases in
  let session = List.map run cases in
  let session_inpr =
    List.map (run ~inprocess:Sat.Inprocess.default ~suffix:"+session+inpr") cases
  in
  let static_ = List.map (run ~mode:Bmc.Session.Static ~suffix:"+static") cases in
  let dynamic = List.map (run ~mode:Bmc.Session.Dynamic ~suffix:"+dynamic") cases in
  (* the static sweep again under [Core_minimal]: same instances, so its
     outcomes must agree with +static; the minimised cores re-rank the
     score, so its decisions and core hashes legitimately differ *)
  let coremin =
    List.map
      (run ~mode:Bmc.Session.Static ~suffix:"+static+coremin" ~core_mode:Bmc.Session.Core_minimal
         ~coremin_budget:quick_coremin_budget)
      (List.filter quick_cores_case cases)
  in
  let plain =
    List.concat (List.map2 (fun cd r -> if quick_cores_case cd then [ r ] else []) cases static_)
  in
  let rows = fresh @ session @ session_inpr @ static_ @ coremin @ dynamic in
  let serve = serve_rows () in
  Printf.printf "\n== bench quick: fixed small subset (deterministic counts) ==\n\n";
  Printf.printf "%-24s %-16s %10s %10s %12s\n" "model" "outcomes" "decisions" "conflicts"
    "implications";
  List.iter
    (fun r ->
      Printf.printf "%-24s %-16s %10d %10d %12d\n" r.q_name r.q_outcomes r.q_decisions
        r.q_conflicts r.q_propagations)
    rows;
  let srows, st = serve in
  Printf.printf
    "\n   core minimisation: %d -> %d core clauses; rank share %.1f%% plain -> %.1f%% minimised\n"
    (sum (fun r -> r.q_core_pre) coremin)
    (sum (fun r -> r.q_core_post) coremin)
    (rank_share plain) (rank_share coremin);
  Printf.printf "   serve: %d requests, %d hit / %d warm / %d miss\n" (List.length srows)
    st.Serve.Server.st_hits st.Serve.Server.st_warm st.Serve.Server.st_misses;
  match quick_failures ~fresh ~rows ~plain ~coremin ~serve with
  | [] ->
    let doc = quick_json rows ~plain ~coremin ~session_inpr ~serve in
    Out_channel.with_open_bin quick_snapshot_file (fun oc ->
        output_string oc (Obs.Json.to_string ~indent:true doc);
        output_char oc '\n');
    Printf.eprintf "bench: quick snapshot written to %s\n%!" quick_snapshot_file
  | failures ->
    List.iter (Printf.eprintf "bench quick: %s\n") failures;
    Printf.eprintf "bench quick: %d invariant(s) broken; %s left as it was\n%!"
      (List.length failures) quick_snapshot_file;
    exit 1

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)
(* ------------------------------------------------------------------ *)

let usage () =
  Printf.printf
    "usage: main.exe [table1|fig6|fig7|overhead|ablation|complement|quick]...\n\
     with no arguments, runs every artefact.\n\
     quick   fixed small subset through the solver and the service layer; checks\n\
    \        its invariants, then writes the BENCH_quick.json snapshot\n"

let write_results () =
  let oc = open_out results_file in
  output_string oc (Obs.Json.to_string (Obs.Jsonl.aggregate_to_json bench_agg));
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "bench: machine-readable results written to %s\n%!" results_file

let run_artefact name f = Telemetry.span tel ("artefact:" ^ name) f

let publishes_gauges name = List.mem name [ "table1"; "overhead" ]

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
    ]
  in
  let names =
    match List.tl (Array.to_list Sys.argv) with [] -> List.map fst artefacts | args -> args
  in
  List.iter
    (fun a ->
      match List.assoc_opt a artefacts with
      | Some f -> run_artefact a f
      | None ->
        usage ();
        exit 2)
    names;
  if List.exists publishes_gauges names then write_results ()
