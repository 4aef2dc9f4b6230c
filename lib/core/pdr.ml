type verdict =
  | Proved of { frames : int; invariant_clauses : int }
  | Falsified of Trace.t
  | Unknown of { frames : int; queries : int }

type result = {
  verdict : verdict;
  queries : int;
  total_time : float;
}

let pp_verdict ppf = function
  | Proved { frames; invariant_clauses } ->
    Format.fprintf ppf "proved (inductive invariant with %d clauses at frame %d)"
      invariant_clauses frames
  | Falsified trace -> Format.fprintf ppf "falsified at depth %d" trace.Trace.depth
  | Unknown { frames; queries } ->
    Format.fprintf ppf "undecided (%d frames, %d queries)" frames queries

(* A cube is a total assignment to the registers, kept as a sorted
   association list; blocked cubes may be partial after generalisation. *)
type cube = (Circuit.Netlist.node * bool) list

exception Out_of_budget

exception
  Cex of {
    initial : cube;
    transitions : (Circuit.Netlist.node * bool) list list;
        (** inputs per step, ending with the inputs of the violating frame *)
  }

type ctx = {
  netlist : Circuit.Netlist.t;
  unroll : Unroll.t;
  base : Sat.Cnf.t; (* two-frame transition, no init constraint *)
  regs : Circuit.Netlist.node list;
  inputs : Circuit.Netlist.node list;
  property : Circuit.Netlist.node;
  init : (Circuit.Netlist.node * bool) list; (* constrained registers only *)
  mutable delta : cube list array; (* cubes blocked exactly at this level *)
  mutable top : int; (* current highest frame k *)
  mutable queries : int;
  max_queries : int;
}

let v0 ctx r = Unroll.var_of ctx.unroll ~node:r ~frame:0

let v1 ctx r = Unroll.var_of ctx.unroll ~node:r ~frame:1

(* clause ¬cube over frame-0 variables *)
let blocking_clause ctx cube =
  List.map (fun (r, b) -> Sat.Lit.make (v0 ctx r) (not b)) cube

let frame_clauses ctx i =
  let acc = ref [] in
  for j = i to Array.length ctx.delta - 1 do
    List.iter (fun c -> acc := blocking_clause ctx c :: !acc) ctx.delta.(j)
  done;
  !acc

let cube_intersects_init ctx cube =
  List.for_all
    (fun (r, b) ->
      match List.assoc_opt r ctx.init with
      | Some v -> v = b
      | None -> true)
    cube

(* Run one fresh solver over the base plus extra clauses; [Some model] on
   SAT. *)
let query ctx extra =
  ctx.queries <- ctx.queries + 1;
  if ctx.queries > ctx.max_queries then raise Out_of_budget;
  let cnf = Sat.Cnf.copy ctx.base in
  List.iter (Sat.Cnf.add_clause cnf) extra;
  let solver = Sat.Solver.create cnf in
  match Sat.Solver.solve solver with
  | Sat.Solver.Sat -> Some (Sat.Solver.model solver)
  | Sat.Solver.Unsat -> None
  | Sat.Solver.Unknown -> raise Out_of_budget

let model_cube ctx model =
  List.map (fun r -> (r, model.(v0 ctx r))) ctx.regs

let model_inputs ctx model =
  List.map (fun i -> (i, model.(v0 ctx i))) ctx.inputs

let init_units ctx =
  List.map (fun (r, b) -> [ Sat.Lit.make (v0 ctx r) b ]) ctx.init

(* SAT?(F_{i-1} ∧ ¬s ∧ T ∧ s') — the relative-induction query. *)
let predecessor_query ctx s ~i =
  let pre = if i - 1 = 0 then init_units ctx else frame_clauses ctx (i - 1) in
  let not_s = [ blocking_clause ctx s ] in
  let s_next = List.map (fun (r, b) -> [ Sat.Lit.make (v1 ctx r) b ]) s in
  query ctx (pre @ not_s @ s_next)

(* Drop literals while the cube stays blockable and init-disjoint. *)
let generalize ctx s ~i =
  let still_blocked s = predecessor_query ctx s ~i = None in
  List.fold_left
    (fun current (r, b) ->
      if List.length current <= 1 then current
      else begin
        let candidate = List.filter (fun (r', _) -> r' <> r) current in
        if List.mem (r, b) current
           && (not (cube_intersects_init ctx candidate))
           && still_blocked candidate
        then candidate
        else current
      end)
    s s

let add_blocked ctx cube ~level =
  ctx.delta.(level) <- cube :: ctx.delta.(level)

(* Recursively block obligation [s] at frame [i].  [suffix] holds the
   input valuations of the transitions from s onwards (last element = the
   violating frame's inputs). *)
let rec block ctx s ~i ~suffix =
  if cube_intersects_init ctx s then raise (Cex { initial = s; transitions = suffix });
  if i = 0 then
    (* cannot happen: an obligation at frame 0 must intersect init, which
       the previous test catches; defensive nonetheless *)
    raise (Cex { initial = s; transitions = suffix });
  let rec drain () =
    match predecessor_query ctx s ~i with
    | Some model ->
      let t = model_cube ctx model in
      let step_inputs = model_inputs ctx model in
      block ctx t ~i:(i - 1) ~suffix:(step_inputs :: suffix);
      drain ()
    | None -> ()
  in
  drain ();
  let g = generalize ctx s ~i in
  (* block g at every frame up to i *)
  add_blocked ctx g ~level:i

(* SAT?(F_k ∧ ¬P) over the present frame only. *)
let bad_state_query ctx ~k =
  let clauses = frame_clauses ctx k in
  let not_p = [ [ Sat.Lit.neg (Unroll.var_of ctx.unroll ~node:ctx.property ~frame:0) ] ] in
  query ctx (clauses @ not_p)

let trace_of_cex ctx initial transitions =
  let depth = List.length transitions - 1 in
  let init_regs =
    List.map
      (fun r ->
        match List.assoc_opt r initial with
        | Some b -> (r, b)
        | None -> (r, match List.assoc_opt r ctx.init with Some b -> b | None -> false))
      ctx.regs
  in
  { Trace.depth = max depth 0; init_regs; inputs = Array.of_list transitions }

let prove ?(max_frames = 64) ?(max_queries = 200_000) netlist ~property =
  (match Circuit.Netlist.validate netlist with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Pdr.prove: " ^ msg));
  let start = Telemetry.wall () in
  let unroll = Unroll.create ~constrain_init:false netlist ~property in
  let base = Unroll.base_cnf unroll ~k:1 in
  let regs = Circuit.Netlist.regs netlist in
  let init =
    List.filter_map
      (fun r -> Option.map (fun b -> (r, b)) (Circuit.Netlist.reg_init netlist r))
      regs
  in
  let ctx =
    {
      netlist;
      unroll;
      base;
      regs;
      inputs = Circuit.Netlist.inputs netlist;
      property;
      init;
      delta = Array.make 2 [];
      top = 1;
      queries = 0;
      max_queries;
    }
  in
  let finish verdict = { verdict; queries = ctx.queries; total_time = Telemetry.wall () -. start } in
  let falsify initial transitions =
    let trace = trace_of_cex ctx initial transitions in
    if not (Trace.replay trace netlist ~property) then
      failwith "Pdr.prove: counterexample failed to replay (internal error)";
    finish (Falsified trace)
  in
  try
    (* depth-0 check: an initial state violating P *)
    (match
       query ctx
         (init_units ctx
         @ [ [ Sat.Lit.neg (Unroll.var_of unroll ~node:property ~frame:0) ] ])
     with
    | Some model ->
      raise
        (Cex { initial = model_cube ctx model; transitions = [ model_inputs ctx model ] })
    | None -> ());
    let rec iterate () =
      if ctx.top > max_frames then
        finish (Unknown { frames = ctx.top; queries = ctx.queries })
      else begin
        (* block every reachable violation at the top frame *)
        let rec hunt () =
          match bad_state_query ctx ~k:ctx.top with
          | Some model ->
            let s = model_cube ctx model in
            block ctx s ~i:ctx.top ~suffix:[ model_inputs ctx model ];
            hunt ()
          | None -> ()
        in
        hunt ();
        (* extend and propagate *)
        let bigger = Array.make (ctx.top + 2) [] in
        Array.blit ctx.delta 0 bigger 0 (ctx.top + 1);
        ctx.delta <- bigger;
        for i = 1 to ctx.top do
          let keep = ref [] in
          List.iter
            (fun c ->
              let s_next = List.map (fun (r, b) -> [ Sat.Lit.make (v1 ctx r) b ]) c in
              match query ctx (frame_clauses ctx i @ s_next) with
              | None -> ctx.delta.(i + 1) <- c :: ctx.delta.(i + 1) (* pushed forward *)
              | Some _ -> keep := c :: !keep)
            ctx.delta.(i);
          ctx.delta.(i) <- !keep
        done;
        (* fixpoint: some frame between 1 and top emptied out *)
        let fixed = ref None in
        for i = 1 to ctx.top do
          if !fixed = None && ctx.delta.(i) = [] then fixed := Some i
        done;
        match !fixed with
        | Some i ->
          let invariant_clauses =
            let n = ref 0 in
            for j = i + 1 to Array.length ctx.delta - 1 do
              n := !n + List.length ctx.delta.(j)
            done;
            !n
          in
          finish (Proved { frames = ctx.top; invariant_clauses })
        | None ->
          ctx.top <- ctx.top + 1;
          iterate ()
      end
    in
    iterate ()
  with
  | Cex { initial; transitions } -> falsify initial transitions
  | Out_of_budget -> finish (Unknown { frames = ctx.top; queries = ctx.queries })

let prove_case ?max_frames ?max_queries (case : Circuit.Generators.case) =
  prove ?max_frames ?max_queries case.Circuit.Generators.netlist
    ~property:case.Circuit.Generators.property
