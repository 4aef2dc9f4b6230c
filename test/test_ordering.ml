(* Differential smoke for the ordering laboratory (lib/ordering).

   Every registered heuristic is pure decision strategy: it may change HOW
   the solver searches, never WHAT an instance's verdict is.  On a seeded
   random-netlist suite each heuristic must therefore be observationally
   equal to "standard": the per-depth outcome string is identical, and on
   every UNSAT depth both sides produce a minimised core the independent
   checker certifies.  (The core *variable sets* legitimately differ — a
   different decision order finds a different proof — so "certified cores
   equal" means equally certified valid cores on exactly the same UNSAT
   depths, not identical sets.) *)

let max_depth = 8

let budget =
  {
    Sat.Solver.max_conflicts = Some 100_000;
    max_propagations = None;
    max_seconds = None;
    stop = None;
  }

(* deterministic: a solve-count cap only, never wall-clock *)
let coremin_budget = { Sat.Coremin.no_budget with Sat.Coremin.max_solves = Some 8 }

(* ~20 seed-deterministic circuits spanning register/gate/input mixes the
   hand-written generators never produce *)
let circuits () =
  List.init 20 (fun i ->
      Circuit.Generators.random ~seed:(1 + (37 * i))
        ~regs:(2 + (i mod 5))
        ~gates:(6 + (3 * (i mod 6)))
        ~inputs:(i mod 4))

let sweep mode (case : Circuit.Generators.case) =
  let config =
    Bmc.Session.make_config ~mode ~budget ~max_depth ~collect_cores:true
      ~core_mode:Bmc.Session.Core_minimal ~coremin_budget ()
  in
  let session =
    Bmc.Session.create ~policy:Bmc.Session.Persistent config case.netlist
      ~property:case.property
  in
  let buf = Buffer.create (max_depth + 1) in
  let certified = ref true in
  for k = 0 to max_depth do
    Bmc.Session.begin_instance session ~k;
    Bmc.Session.constrain session
      [ Sat.Lit.neg (Bmc.Session.var_of session ~node:case.property ~frame:k) ];
    let st = Bmc.Session.solve_instance session in
    match st.Bmc.Session.outcome with
    | Sat.Solver.Sat -> Buffer.add_char buf 's'
    | Sat.Solver.Unsat ->
      Buffer.add_char buf 'u';
      if not st.Bmc.Session.coremin_certified then certified := false
    | Sat.Solver.Unknown -> Buffer.add_char buf '?'
  done;
  (Buffer.contents buf, !certified)

let test_registry () =
  let names = Ordering.names () in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    [ "standard"; "static"; "dynamic"; "shtrichman"; "chb" ];
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Ordering.name s ^ " has a doc line")
        true
        (String.length (Ordering.doc s) > 0))
    (Ordering.specs ());
  Alcotest.(check bool) "unknown name rejected" true
    (Ordering.mode_of_name "no-such-heuristic" = None)

let test_differential () =
  List.iter
    (fun (case : Circuit.Generators.case) ->
      let base, base_certified = sweep Bmc.Session.Standard case in
      Alcotest.(check bool)
        (Printf.sprintf "%s: standard cores certified" case.name)
        true base_certified;
      List.iter
        (fun spec ->
          let name = Ordering.name spec in
          let got, certified = sweep (Ordering.mode spec) case in
          Alcotest.(check string)
            (Printf.sprintf "%s: %s outcomes = standard" case.name name)
            base got;
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s cores certified" case.name name)
            true certified)
        (Ordering.specs ()))
    (circuits ())

let tests =
  [
    Alcotest.test_case "registry sanity" `Quick test_registry;
    Alcotest.test_case "every heuristic = standard on random netlists" `Quick
      test_differential;
  ]
