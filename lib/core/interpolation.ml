type verdict =
  | Proved of { bound : int; iterations : int }
  | Falsified of Trace.t
  | Unknown of int

type result = {
  verdict : verdict;
  total_time : float;
  interpolants : int;
}

let pp_verdict ppf = function
  | Proved { bound; iterations } ->
    Format.fprintf ppf "proved by interpolation (bound %d, %d interpolants)" bound iterations
  | Falsified trace -> Format.fprintf ppf "falsified at depth %d" trace.Trace.depth
  | Unknown k -> Format.fprintf ppf "undecided up to bound %d" k

(* Instantiate an interpolant over frame-1 register variables as gates over
   the register nodes themselves. *)
let rec formula_to_node nl varmap = function
  | Sat.Itp.Ftrue -> Circuit.Netlist.const_true nl
  | Sat.Itp.Ffalse -> Circuit.Netlist.const_false nl
  | Sat.Itp.Flit l -> (
    match Varmap.key_of varmap (Sat.Lit.var l) with
    | Some (node, 1) ->
      if Sat.Lit.is_pos l then node else Circuit.Netlist.not_ nl node
    | Some (node, 0) -> (
      (* constants are encoded once, at frame 0, and shared by every frame *)
      match Circuit.Netlist.gate nl node with
      | Circuit.Netlist.Const _ ->
        if Sat.Lit.is_pos l then node else Circuit.Netlist.not_ nl node
      | Circuit.Netlist.Input _ | Circuit.Netlist.Not _ | Circuit.Netlist.And _
      | Circuit.Netlist.Or _ | Circuit.Netlist.Xor _ | Circuit.Netlist.Mux _
      | Circuit.Netlist.Reg _ ->
        invalid_arg "Interpolation: frame-0 interpolant variable is not a constant")
    | Some (_, frame) ->
      invalid_arg
        (Printf.sprintf "Interpolation: interpolant variable at frame %d (expected 1)" frame)
    | None -> invalid_arg "Interpolation: interpolant variable outside the unrolling")
  | Sat.Itp.Fand (a, b) ->
    Circuit.Netlist.and_ nl (formula_to_node nl varmap a) (formula_to_node nl varmap b)
  | Sat.Itp.For (a, b) ->
    Circuit.Netlist.or_ nl (formula_to_node nl varmap a) (formula_to_node nl varmap b)

(* SAT?(pred_a ∧ ¬pred_b) over one combinational frame. *)
let predicate_sat nl ~budget pred_a ~not_b =
  let u = Unroll.create ~constrain_init:false nl ~property:pred_a in
  let cnf = Unroll.base_cnf u ~k:0 in
  Sat.Cnf.add_clause cnf [ Sat.Lit.pos (Unroll.var_of u ~node:pred_a ~frame:0) ];
  Sat.Cnf.add_clause cnf [ Sat.Lit.neg (Unroll.var_of u ~node:not_b ~frame:0) ];
  let solver = Sat.Solver.create cnf in
  match Sat.Solver.solve ~budget solver with
  | Sat.Solver.Sat -> true
  | Sat.Solver.Unsat -> false
  | Sat.Solver.Unknown -> true (* treat as "maybe": no fixpoint claim *)

let prove ?(max_bound = 32) ?(max_iterations = 64) ?(budget = Sat.Solver.no_budget) netlist
    ~property =
  (match Circuit.Netlist.validate netlist with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Interpolation.prove: " ^ msg));
  let start = Telemetry.wall () in
  (* private copy: interpolant gates are added to it freely *)
  let nl, map = Circuit.Netlist.abstract_registers netlist ~keep:(fun _ -> true) in
  let property = map property in
  let regs = Circuit.Netlist.regs nl in
  let init_pred =
    List.fold_left
      (fun acc r ->
        match Circuit.Netlist.reg_init nl r with
        | Some true -> Circuit.Netlist.and_ nl acc r
        | Some false -> Circuit.Netlist.and_ nl acc (Circuit.Netlist.not_ nl r)
        | None -> acc)
      (Circuit.Netlist.const_true nl)
      regs
  in
  let interpolants = ref 0 in
  let finish verdict =
    { verdict; total_time = Telemetry.wall () -. start; interpolants = !interpolants }
  in
  (* depth-0 check on the true initial states *)
  let depth0 =
    let u = Unroll.create ~constrain_init:false nl ~property in
    let cnf = Unroll.base_cnf u ~k:0 in
    Sat.Cnf.add_clause cnf [ Sat.Lit.pos (Unroll.var_of u ~node:init_pred ~frame:0) ];
    Sat.Cnf.add_clause cnf [ Sat.Lit.neg (Unroll.var_of u ~node:property ~frame:0) ];
    let solver = Sat.Solver.create cnf in
    match Sat.Solver.solve ~budget solver with
    | Sat.Solver.Sat ->
      let trace = Trace.of_model u ~k:0 ~model:(Sat.Solver.model solver) in
      Some trace
    | Sat.Solver.Unsat -> None
    | Sat.Solver.Unknown -> None
  in
  match depth0 with
  | Some trace ->
    if not (Trace.replay trace nl ~property) then
      failwith "Interpolation.prove: depth-0 counterexample failed to replay";
    finish (Falsified trace)
  | None ->
    let rec outer k =
      if k > max_bound then finish (Unknown max_bound)
      else begin
        (* inner interpolation iteration at this bound *)
        let rec inner r iteration =
          if iteration > max_iterations then `Deepen
          else begin
            let u = Unroll.create ~constrain_init:false nl ~property in
            let cnf = Unroll.base_cnf u ~k in
            let n_base = Sat.Cnf.num_clauses cnf in
            (* R at frame 0 *)
            Sat.Cnf.add_clause cnf [ Sat.Lit.pos (Unroll.var_of u ~node:r ~frame:0) ];
            (* bad at some frame in 1..k *)
            Sat.Cnf.add_clause cnf
              (List.init k (fun i ->
                   Sat.Lit.neg (Unroll.var_of u ~node:property ~frame:(i + 1))));
            let a_side i =
              if i < n_base then
                Unroll.clause_frame u i = 0
                || (Unroll.clause_frame u i = 1 && Unroll.clause_is_link u i)
              else i = n_base (* the R unit; the bad clause is B *)
            in
            let solver = Sat.Solver.create ~with_proof:true cnf in
            match Sat.Solver.solve ~budget solver with
            | Sat.Solver.Unknown -> `Deepen
            | Sat.Solver.Sat ->
              if iteration = 0 then begin
                (* genuine counterexample: find the first violated frame *)
                let model = Sat.Solver.model solver in
                let rec first_bad i =
                  if i > k then k
                  else begin
                    let v = Unroll.var_of u ~node:property ~frame:i in
                    if v < Array.length model && not model.(v) then i else first_bad (i + 1)
                  end
                in
                let j = first_bad 1 in
                let trace = Trace.of_model u ~k:j ~model in
                `Cex trace
              end
              else `Deepen (* over-approximation became too coarse *)
            | Sat.Solver.Unsat ->
              let itp = Sat.Solver.interpolant solver ~a_side in
              incr interpolants;
              let itp_node = formula_to_node nl (Unroll.varmap u) itp in
              if not (predicate_sat nl ~budget itp_node ~not_b:r) then
                (* I ⊨ R: the reachable states are inside R, which avoids
                   ¬P at every distance — proved *)
                `Fixpoint iteration
              else inner (Circuit.Netlist.or_ nl r itp_node) (iteration + 1)
          end
        in
        match inner init_pred 0 with
        | `Fixpoint iterations -> finish (Proved { bound = k; iterations })
        | `Cex trace ->
          if not (Trace.replay trace nl ~property) then
            failwith "Interpolation.prove: counterexample failed to replay (internal error)";
          finish (Falsified trace)
        | `Deepen -> outer (k + 1)
      end
    in
    outer 1

let prove_case ?max_bound ?max_iterations ?budget (case : Circuit.Generators.case) =
  prove ?max_bound ?max_iterations ?budget case.Circuit.Generators.netlist
    ~property:case.Circuit.Generators.property
