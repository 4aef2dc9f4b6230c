(* Time-axis ordering baseline. *)

let test_rank_increases_with_frame () =
  let case = Circuit.Generators.traffic () in
  let u = Bmc.Unroll.create case.netlist ~property:case.property in
  let _ = Bmc.Unroll.instance u ~k:4 in
  let rank = Bmc.Shtrichman.rank u ~k:4 in
  let v_at frame = Bmc.Unroll.var_of u ~node:case.property ~frame in
  Alcotest.(check bool) "frame 4 over frame 0" true (rank.(v_at 4) > rank.(v_at 0));
  Alcotest.(check bool) "frame 2 over frame 1" true (rank.(v_at 2) > rank.(v_at 1))

let test_rank_dimension () =
  let case = Circuit.Generators.ring ~len:4 () in
  let u = Bmc.Unroll.create case.netlist ~property:case.property in
  let _ = Bmc.Unroll.instance u ~k:3 in
  let rank = Bmc.Shtrichman.rank u ~k:3 in
  Alcotest.(check int) "covers every allocated variable"
    (Bmc.Varmap.num_vars (Bmc.Unroll.varmap u))
    (Array.length rank)

let test_mode_gives_same_verdicts () =
  List.iter
    (fun (case : Circuit.Generators.case) ->
      let verdict mode =
        let config = Bmc.Session.make_config ~mode ~max_depth:(min case.suggested_depth 6) () in
        (Bmc.Session.check ~config ~policy:Bmc.Session.Fresh case.netlist ~property:case.property)
          .verdict
      in
      let a = verdict Bmc.Session.Standard in
      let b = verdict Bmc.Session.Shtrichman in
      let same =
        match (a, b) with
        | Bmc.Session.Falsified t1, Bmc.Session.Falsified t2 ->
          t1.Bmc.Trace.depth = t2.Bmc.Trace.depth
        | Bmc.Session.Bounded_pass k1, Bmc.Session.Bounded_pass k2 -> k1 = k2
        | (Bmc.Session.Falsified _ | Bmc.Session.Bounded_pass _ | Bmc.Session.Aborted _), _ ->
          false
      in
      if not same then
        Alcotest.failf "%s: shtrichman disagrees (%a vs %a)" case.name Bmc.Session.pp_verdict a
          Bmc.Session.pp_verdict b)
    [
      Circuit.Generators.counter ~bits:3 ~target:5 ();
      Circuit.Generators.ring ~len:4 ();
      Circuit.Generators.parity_pipe ~stages:3 ();
    ]

let tests =
  [
    Alcotest.test_case "rank increases with frame" `Quick test_rank_increases_with_frame;
    Alcotest.test_case "rank dimension" `Quick test_rank_dimension;
    Alcotest.test_case "same verdicts" `Quick test_mode_gives_same_verdicts;
  ]
