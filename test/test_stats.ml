(* Sat.Stats: add / copy independence / printing, including the wall-time
   fields introduced for telemetry. *)

(* naive substring search; also used by Test_telemetry *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

let filled () =
  let s = Sat.Stats.create () in
  s.Sat.Stats.decisions <- 10;
  s.propagations <- 200;
  s.conflicts <- 7;
  s.restarts <- 2;
  s.learned <- 6;
  s.deleted <- 1;
  s.max_decision_level <- 5;
  s.heuristic_switches <- 1;
  s.heap_cmps <- 30;
  s.solve_time <- 0.5;
  s.bcp_time <- 0.25;
  s.analyze_time <- 0.125;
  s

let test_create_zeroed () =
  let s = Sat.Stats.create () in
  Alcotest.(check int) "decisions" 0 s.Sat.Stats.decisions;
  Alcotest.(check (float 0.0)) "solve_time" 0.0 s.Sat.Stats.solve_time;
  Alcotest.(check (float 0.0)) "bcp_time" 0.0 s.Sat.Stats.bcp_time;
  Alcotest.(check (float 0.0)) "analyze_time" 0.0 s.Sat.Stats.analyze_time

let test_add () =
  let acc = filled () in
  let s = filled () in
  s.Sat.Stats.max_decision_level <- 9;
  Sat.Stats.add acc s;
  Alcotest.(check int) "decisions sum" 20 acc.Sat.Stats.decisions;
  Alcotest.(check int) "propagations sum" 400 acc.propagations;
  Alcotest.(check int) "conflicts sum" 14 acc.conflicts;
  Alcotest.(check int) "restarts sum" 4 acc.restarts;
  Alcotest.(check int) "learned sum" 12 acc.learned;
  Alcotest.(check int) "deleted sum" 2 acc.deleted;
  Alcotest.(check int) "max level is a max, not a sum" 9 acc.max_decision_level;
  Alcotest.(check int) "switches sum" 2 acc.heuristic_switches;
  Alcotest.(check int) "heap comparisons sum" 60 acc.heap_cmps;
  Alcotest.(check (float 1e-9)) "solve_time sums" 1.0 acc.solve_time;
  Alcotest.(check (float 1e-9)) "bcp_time sums" 0.5 acc.bcp_time;
  Alcotest.(check (float 1e-9)) "analyze_time sums" 0.25 acc.analyze_time

let test_copy_independent () =
  let s = filled () in
  let c = Sat.Stats.copy s in
  c.Sat.Stats.decisions <- 999;
  c.solve_time <- 99.0;
  Alcotest.(check int) "original decisions untouched" 10 s.Sat.Stats.decisions;
  Alcotest.(check (float 0.0)) "original solve_time untouched" 0.5 s.solve_time;
  Alcotest.(check int) "copy holds its write" 999 c.Sat.Stats.decisions

let test_pp () =
  let str s = Format.asprintf "%a" Sat.Stats.pp s in
  let plain = str (Sat.Stats.create ()) in
  Alcotest.(check bool) "always shows decisions" true (contains plain "decisions=0");
  Alcotest.(check bool) "no time fields when none recorded" false (contains plain "solve=");
  let timed = str (filled ()) in
  Alcotest.(check bool) "shows solve time" true (contains timed "solve=0.500s");
  Alcotest.(check bool) "shows heap comparisons" true (contains timed "heap_cmps=30");
  Alcotest.(check bool) "shows bcp time" true (contains timed "bcp=0.250s");
  Alcotest.(check bool) "shows analyze time" true (contains timed "analyze=0.125s")

let tests =
  [
    Alcotest.test_case "create is zeroed" `Quick test_create_zeroed;
    Alcotest.test_case "add sums fields" `Quick test_add;
    Alcotest.test_case "copy is independent" `Quick test_copy_independent;
    Alcotest.test_case "pp renders time fields conditionally" `Quick test_pp;
  ]
