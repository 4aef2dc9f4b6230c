type t = {
  mutable decisions : int;
  mutable decisions_rank : int;
  mutable decisions_vsids : int;
  mutable propagations : int;
  mutable conflicts : int;
  mutable restarts : int;
  mutable learned : int;
  mutable deleted : int;
  mutable max_decision_level : int;
  mutable heuristic_switches : int;
  mutable heap_cmps : int;
  mutable blocker_hits : int;
  mutable arena_bytes : int;
  mutable arena_compactions : int;
  mutable inpr_runs : int;
  mutable inpr_probes : int;
  mutable inpr_probe_failed : int;
  mutable inpr_satisfied : int;
  mutable inpr_subsumed : int;
  mutable inpr_strengthened : int;
  mutable inpr_eliminated : int;
  mutable inpr_resolvents : int;
  mutable inpr_time : float;
  mutable solve_time : float;
  mutable bcp_time : float;
  mutable analyze_time : float;
}

let create () =
  {
    decisions = 0;
    decisions_rank = 0;
    decisions_vsids = 0;
    propagations = 0;
    conflicts = 0;
    restarts = 0;
    learned = 0;
    deleted = 0;
    max_decision_level = 0;
    heuristic_switches = 0;
    heap_cmps = 0;
    blocker_hits = 0;
    arena_bytes = 0;
    arena_compactions = 0;
    inpr_runs = 0;
    inpr_probes = 0;
    inpr_probe_failed = 0;
    inpr_satisfied = 0;
    inpr_subsumed = 0;
    inpr_strengthened = 0;
    inpr_eliminated = 0;
    inpr_resolvents = 0;
    inpr_time = 0.0;
    solve_time = 0.0;
    bcp_time = 0.0;
    analyze_time = 0.0;
  }

let reset s =
  s.decisions <- 0;
  s.decisions_rank <- 0;
  s.decisions_vsids <- 0;
  s.propagations <- 0;
  s.conflicts <- 0;
  s.restarts <- 0;
  s.learned <- 0;
  s.deleted <- 0;
  s.max_decision_level <- 0;
  s.heuristic_switches <- 0;
  s.heap_cmps <- 0;
  s.blocker_hits <- 0;
  s.arena_bytes <- 0;
  s.arena_compactions <- 0;
  s.inpr_runs <- 0;
  s.inpr_probes <- 0;
  s.inpr_probe_failed <- 0;
  s.inpr_satisfied <- 0;
  s.inpr_subsumed <- 0;
  s.inpr_strengthened <- 0;
  s.inpr_eliminated <- 0;
  s.inpr_resolvents <- 0;
  s.inpr_time <- 0.0;
  s.solve_time <- 0.0;
  s.bcp_time <- 0.0;
  s.analyze_time <- 0.0

let copy s = { s with decisions = s.decisions }

let add acc s =
  acc.decisions <- acc.decisions + s.decisions;
  acc.decisions_rank <- acc.decisions_rank + s.decisions_rank;
  acc.decisions_vsids <- acc.decisions_vsids + s.decisions_vsids;
  acc.propagations <- acc.propagations + s.propagations;
  acc.conflicts <- acc.conflicts + s.conflicts;
  acc.restarts <- acc.restarts + s.restarts;
  acc.learned <- acc.learned + s.learned;
  acc.deleted <- acc.deleted + s.deleted;
  acc.max_decision_level <- max acc.max_decision_level s.max_decision_level;
  acc.heuristic_switches <- acc.heuristic_switches + s.heuristic_switches;
  acc.heap_cmps <- acc.heap_cmps + s.heap_cmps;
  acc.blocker_hits <- acc.blocker_hits + s.blocker_hits;
  acc.arena_bytes <- max acc.arena_bytes s.arena_bytes;
  acc.arena_compactions <- acc.arena_compactions + s.arena_compactions;
  acc.inpr_runs <- acc.inpr_runs + s.inpr_runs;
  acc.inpr_probes <- acc.inpr_probes + s.inpr_probes;
  acc.inpr_probe_failed <- acc.inpr_probe_failed + s.inpr_probe_failed;
  acc.inpr_satisfied <- acc.inpr_satisfied + s.inpr_satisfied;
  acc.inpr_subsumed <- acc.inpr_subsumed + s.inpr_subsumed;
  acc.inpr_strengthened <- acc.inpr_strengthened + s.inpr_strengthened;
  acc.inpr_eliminated <- acc.inpr_eliminated + s.inpr_eliminated;
  acc.inpr_resolvents <- acc.inpr_resolvents + s.inpr_resolvents;
  acc.inpr_time <- acc.inpr_time +. s.inpr_time;
  acc.solve_time <- acc.solve_time +. s.solve_time;
  acc.bcp_time <- acc.bcp_time +. s.bcp_time;
  acc.analyze_time <- acc.analyze_time +. s.analyze_time

let pp ppf s =
  Format.fprintf ppf
    "decisions=%d implications=%d conflicts=%d restarts=%d learned=%d deleted=%d \
     max_level=%d switches=%d heap_cmps=%d blockers=%d"
    s.decisions s.propagations s.conflicts s.restarts s.learned s.deleted
    s.max_decision_level s.heuristic_switches s.heap_cmps s.blocker_hits;
  if s.decisions_rank > 0 || s.decisions_vsids > 0 then
    Format.fprintf ppf " dec_rank=%d dec_vsids=%d" s.decisions_rank s.decisions_vsids;
  if s.arena_bytes > 0 then
    Format.fprintf ppf " arena=%dB gcs=%d" s.arena_bytes s.arena_compactions;
  if s.inpr_runs > 0 then
    Format.fprintf ppf " inpr_elim=%d inpr_sub=%d inpr_str=%d inpr_probe_failed=%d"
      s.inpr_eliminated s.inpr_subsumed s.inpr_strengthened s.inpr_probe_failed;
  if s.solve_time > 0.0 then
    Format.fprintf ppf " solve=%.3fs bcp=%.3fs analyze=%.3fs" s.solve_time s.bcp_time
      s.analyze_time
