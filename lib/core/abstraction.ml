type verdict =
  | Proved of { depth : int; kept_regs : int; total_regs : int }
  | Falsified of Trace.t
  | Unknown of int

type round = {
  depth : int;
  core_regs : int;
  abstract_verdict : Circuit.Reach.verdict option;
  time : float;
}

type result = {
  verdict : verdict;
  rounds : round list;
  total_time : float;
}

let pp_verdict ppf = function
  | Proved { depth; kept_regs; total_regs } ->
    Format.fprintf ppf "proved from the depth-%d core (%d of %d registers kept)" depth
      kept_regs total_regs
  | Falsified trace -> Format.fprintf ppf "falsified at depth %d" trace.Trace.depth
  | Unknown k -> Format.fprintf ppf "undecided up to depth %d" k

(* Registers named by the core: any core variable whose Varmap key is a
   register node, at any frame. *)
let core_registers unroll netlist core_vars =
  let vm = Unroll.varmap unroll in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun v ->
      match Varmap.key_of vm v with
      | Some (node, _) when node >= 0 -> (
        match Circuit.Netlist.gate netlist node with
        | Circuit.Netlist.Reg _ -> Hashtbl.replace tbl node ()
        | Circuit.Netlist.Input _ | Circuit.Netlist.Const _ | Circuit.Netlist.Not _
        | Circuit.Netlist.And _ | Circuit.Netlist.Or _ | Circuit.Netlist.Xor _
        | Circuit.Netlist.Mux _ ->
          ())
      | Some _ | None -> ())
    core_vars;
  tbl

let prove ?(config = Session.default_config) ?(max_abstract_regs = 22) netlist ~property =
  (match Circuit.Netlist.validate netlist with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Abstraction.prove: " ^ msg));
  (* every round reads the raw proof core, whatever the ordering *)
  let cfg = { config with Session.collect_cores = true; core_mode = Session.Core_fast } in
  let session = Session.create ~policy:Session.Fresh cfg netlist ~property in
  let unroll = Session.unroll session in
  let total_regs = List.length (Circuit.Netlist.regs netlist) in
  let rounds = ref [] in
  let start = Sys.time () in
  let finish verdict =
    { verdict; rounds = List.rev !rounds; total_time = Sys.time () -. start }
  in
  let rec loop k =
    if k > cfg.max_depth then finish (Unknown cfg.max_depth)
    else begin
      let t0 = Sys.time () in
      match (Session.solve_depth session ~k).Session.outcome with
      | Sat.Solver.Sat ->
        rounds :=
          { depth = k; core_regs = 0; abstract_verdict = None; time = Sys.time () -. t0 }
          :: !rounds;
        let trace = Session.trace session in
        if not (Trace.replay trace netlist ~property) then
          failwith "Abstraction.prove: counterexample failed to replay (internal error)";
        finish (Falsified trace)
      | Sat.Solver.Unknown ->
        rounds :=
          { depth = k; core_regs = 0; abstract_verdict = None; time = Sys.time () -. t0 }
          :: !rounds;
        finish (Unknown k)
      | Sat.Solver.Unsat ->
        let kept = core_registers unroll netlist (Session.last_core_vars session) in
        let kept_count = Hashtbl.length kept in
        let abstract_verdict, next_k =
          if kept_count > max_abstract_regs then (None, k + 1)
          else begin
            let abstract_nl, map =
              Circuit.Netlist.abstract_registers netlist ~keep:(Hashtbl.mem kept)
            in
            let v =
              Circuit.Reach.check ~max_regs:max_abstract_regs ~max_inputs:16 abstract_nl
                ~property:(map property)
            in
            match v with
            | Circuit.Reach.Holds _ -> (Some v, -1) (* proved *)
            | Circuit.Reach.Fails_at j ->
              (* spurious if within the refuted bound; otherwise aim BMC at
                 exactly the abstract counterexample's depth *)
              (Some v, if j > k then j else k + 1)
            | Circuit.Reach.Too_large -> (Some v, k + 1)
          end
        in
        rounds :=
          { depth = k; core_regs = kept_count; abstract_verdict; time = Sys.time () -. t0 }
          :: !rounds;
        if next_k < 0 then finish (Proved { depth = k; kept_regs = kept_count; total_regs })
        else loop next_k
    end
  in
  loop 0

let prove_case ?config ?max_abstract_regs (case : Circuit.Generators.case) =
  let config =
    match config with
    | Some c -> c
    | None -> { Session.default_config with max_depth = case.Circuit.Generators.suggested_depth }
  in
  prove ~config ?max_abstract_regs case.Circuit.Generators.netlist
    ~property:case.Circuit.Generators.property
