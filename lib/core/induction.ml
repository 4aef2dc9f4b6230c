type verdict =
  | Proved of int
  | Falsified of Trace.t
  | Unknown of int

type step_stat = {
  depth : int;
  base_outcome : Sat.Solver.outcome;
  step_outcome : Sat.Solver.outcome option;
  base_decisions : int;
  step_decisions : int;
  time : float;
}

type result = {
  verdict : verdict;
  per_depth : step_stat list;
  total_time : float;
}

let pp_verdict ppf = function
  | Proved k -> Format.fprintf ppf "proved by %d-induction" k
  | Falsified trace -> Format.fprintf ppf "falsified at depth %d" trace.Trace.depth
  | Unknown k -> Format.fprintf ppf "undecided up to depth %d" k

(* Pairwise state-disequality over the step path: for every i < j ≤ last,
   some register differs between frames i and j.  The XOR auxiliaries come
   from the session (instance-local, so under the persistent policy they
   are guarded and retired with the instance). *)
let add_simple_path_constraints session ~last regs =
  for i = 0 to last - 1 do
    for j = i + 1 to last do
      let diff_lits =
        List.map
          (fun r ->
            let a = Sat.Lit.pos (Session.var_of session ~node:r ~frame:i) in
            let b = Sat.Lit.pos (Session.var_of session ~node:r ~frame:j) in
            let d = Session.fresh_lit session in
            (* d ↔ a ⊕ b *)
            Session.constrain session [ Sat.Lit.negate d; a; b ];
            Session.constrain session [ Sat.Lit.negate d; Sat.Lit.negate a; Sat.Lit.negate b ];
            Session.constrain session [ d; a; Sat.Lit.negate b ];
            Session.constrain session [ d; Sat.Lit.negate a; b ];
            d)
          regs
      in
      Session.constrain session diff_lits
    done
  done

let prove ?(config = Session.default_config) ?(policy = Session.Persistent)
    ?(simple_path = false) netlist ~property =
  let cfg = config in
  (match Circuit.Netlist.validate netlist with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Induction.prove: " ^ msg));
  (* Two sessions over one shared score: the base case is ordinary BMC with
     core refinement; the step case unrolls from an arbitrary state and
     consumes the ranking without feeding it (its instances are not part of
     the correlated refutation sequence, and the seed ran it without proof
     logging). *)
  let score = Score.create ~weighting:cfg.weighting () in
  let base = Session.create ~policy ~score cfg netlist ~property in
  let step =
    Session.create ~policy ~constrain_init:false ~score ~learn_cores:false cfg netlist ~property
  in
  let regs = Circuit.Netlist.regs netlist in
  (* the step instance constrains the property at every frame and (with
     simple-path) the registers at every frame pair, so those nodes must
     survive any depth-boundary variable elimination *)
  Session.freeze_nodes step (property :: regs);
  let per_depth = ref [] in
  let start = Telemetry.wall () in
  let finish verdict =
    { verdict; per_depth = List.rev !per_depth; total_time = Telemetry.wall () -. start }
  in
  let rec loop k =
    if k > cfg.max_depth then finish (Unknown cfg.max_depth)
    else begin
      let t0 = Telemetry.wall () in
      (* base case: ordinary BMC instance k, with core refinement *)
      Session.begin_instance base ~k;
      Session.constrain base [ Sat.Lit.neg (Session.var_of base ~node:property ~frame:k) ];
      let bstat = Session.solve_instance base in
      let base_outcome = bstat.Session.outcome in
      let base_decisions = bstat.Session.decisions in
      match base_outcome with
      | Sat.Solver.Sat ->
        per_depth :=
          {
            depth = k;
            base_outcome;
            step_outcome = None;
            base_decisions;
            step_decisions = 0;
            time = Telemetry.wall () -. t0;
          }
          :: !per_depth;
        let trace = Session.trace base in
        if not (Trace.replay trace netlist ~property) then
          failwith "Induction.prove: counterexample failed to replay (internal error)";
        finish (Falsified trace)
      | Sat.Solver.Unknown ->
        per_depth :=
          {
            depth = k;
            base_outcome;
            step_outcome = None;
            base_decisions;
            step_decisions = 0;
            time = Telemetry.wall () -. t0;
          }
          :: !per_depth;
        finish (Unknown k)
      | Sat.Solver.Unsat ->
        (* step case over the arbitrary-start unrolling:
           frames 0..k+1, P at 0..k, ¬P at k+1, optional uniqueness *)
        Session.begin_instance step ~k:(k + 1);
        for i = 0 to k do
          Session.constrain step [ Sat.Lit.pos (Session.var_of step ~node:property ~frame:i) ]
        done;
        Session.constrain step
          [ Sat.Lit.neg (Session.var_of step ~node:property ~frame:(k + 1)) ];
        if simple_path then add_simple_path_constraints step ~last:(k + 1) regs;
        let sstat = Session.solve_instance step in
        let step_outcome = sstat.Session.outcome in
        per_depth :=
          {
            depth = k;
            base_outcome;
            step_outcome = Some step_outcome;
            base_decisions;
            step_decisions = sstat.Session.decisions;
            time = Telemetry.wall () -. t0;
          }
          :: !per_depth;
        (match step_outcome with
        | Sat.Solver.Unsat -> finish (Proved k)
        | Sat.Solver.Sat -> loop (k + 1)
        | Sat.Solver.Unknown -> finish (Unknown k))
    end
  in
  loop 0

let prove_case ?config ?policy ?simple_path (case : Circuit.Generators.case) =
  let config =
    match config with
    | Some c -> c
    | None -> { Session.default_config with max_depth = case.Circuit.Generators.suggested_depth }
  in
  prove ~config ?policy ?simple_path case.Circuit.Generators.netlist
    ~property:case.Circuit.Generators.property
