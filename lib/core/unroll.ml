type t = {
  netlist : Circuit.Netlist.t;
  property : Circuit.Netlist.node;
  constrain_init : bool;
  varmap : Varmap.t;
  in_cone : Circuit.Netlist.node -> bool;
  encode_order : Circuit.Netlist.node array; (* nodes encoded per frame, fixed order *)
  base : Sat.Lit.t array Sat.Vec.t;
      (* clauses in emission order, each built once and shared, never
         copied, by every formula and solver they are loaded into *)
  link_flags : bool Sat.Vec.t; (* aligned with base: register-link clause? *)
  frame_var_limit : int Sat.Vec.t; (* vars allocated after materialising frame f *)
  frame_clause_limit : int Sat.Vec.t; (* base length after materialising frame f *)
  mutable depth : int;
}

let create ?(coi = false) ?(constrain_init = true) netlist ~property =
  (match Circuit.Netlist.validate netlist with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Unroll.create: " ^ msg));
  let in_cone =
    if coi then Circuit.Netlist.transitive_fanin netlist [ property ] else fun _ -> true
  in
  let order =
    List.init (Circuit.Netlist.num_nodes netlist) Fun.id |> List.filter in_cone |> Array.of_list
  in
  {
    netlist;
    property;
    constrain_init;
    varmap = Varmap.create ();
    in_cone;
    encode_order = order;
    base = Sat.Vec.create ~dummy:[||] ();
    link_flags = Sat.Vec.create ~dummy:false ();
    frame_var_limit = Sat.Vec.create ~dummy:0 ();
    frame_clause_limit = Sat.Vec.create ~dummy:0 ();
    depth = -1;
  }

let netlist t = t.netlist

let property t = t.property

let varmap t = t.varmap

(* Constants get a single variable shared by all frames. *)
let var_of t ~node ~frame =
  match Circuit.Netlist.gate t.netlist node with
  | Circuit.Netlist.Const _ -> Varmap.var t.varmap ~node ~frame:0
  | Circuit.Netlist.Input _ | Circuit.Netlist.Not _ | Circuit.Netlist.And _ | Circuit.Netlist.Or _ | Circuit.Netlist.Xor _
  | Circuit.Netlist.Mux _ | Circuit.Netlist.Reg _ ->
    Varmap.var t.varmap ~node ~frame

let frame_of_var t v = Option.map snd (Varmap.key_of t.varmap v)

let emit ?(link = false) t clause =
  Sat.Vec.push t.base clause;
  Sat.Vec.push t.link_flags link

let encode_node t frame node =
  let nl = t.netlist in
  let v = var_of t ~node ~frame in
  let pos = Sat.Lit.pos v and neg = Sat.Lit.neg v in
  let at n = var_of t ~node:n ~frame in
  match Circuit.Netlist.gate nl node with
  | Circuit.Netlist.Input _ -> ()
  | Circuit.Netlist.Const b ->
    (* one unit clause, emitted only when the constant is first seen *)
    if frame = 0 then emit t [| (if b then pos else neg) |]
  | Circuit.Netlist.Not a ->
    let a = at a in
    emit t [| pos; Sat.Lit.pos a |];
    emit t [| neg; Sat.Lit.neg a |]
  | Circuit.Netlist.And (a, b) ->
    let a = at a and b = at b in
    emit t [| neg; Sat.Lit.pos a |];
    emit t [| neg; Sat.Lit.pos b |];
    emit t [| pos; Sat.Lit.neg a; Sat.Lit.neg b |]
  | Circuit.Netlist.Or (a, b) ->
    let a = at a and b = at b in
    emit t [| pos; Sat.Lit.neg a |];
    emit t [| pos; Sat.Lit.neg b |];
    emit t [| neg; Sat.Lit.pos a; Sat.Lit.pos b |]
  | Circuit.Netlist.Xor (a, b) ->
    let a = at a and b = at b in
    emit t [| neg; Sat.Lit.pos a; Sat.Lit.pos b |];
    emit t [| neg; Sat.Lit.neg a; Sat.Lit.neg b |];
    emit t [| pos; Sat.Lit.pos a; Sat.Lit.neg b |];
    emit t [| pos; Sat.Lit.neg a; Sat.Lit.pos b |]
  | Circuit.Netlist.Mux (s, h, l) ->
    let s = at s and h = at h and l = at l in
    emit t [| neg; Sat.Lit.neg s; Sat.Lit.pos h |];
    emit t [| pos; Sat.Lit.neg s; Sat.Lit.neg h |];
    emit t [| neg; Sat.Lit.pos s; Sat.Lit.pos l |];
    emit t [| pos; Sat.Lit.pos s; Sat.Lit.neg l |]
  | Circuit.Netlist.Reg _ ->
    if frame = 0 then begin
      if t.constrain_init then
        match Circuit.Netlist.reg_init nl node with
        | Some true -> emit t [| pos |]
        | Some false -> emit t [| neg |]
        | None -> ()
    end
    else begin
      (* v(reg, f) ↔ v(next, f-1) *)
      let prev = var_of t ~node:(Circuit.Netlist.reg_next nl node) ~frame:(frame - 1) in
      emit ~link:true t [| neg; Sat.Lit.pos prev |];
      emit ~link:true t [| pos; Sat.Lit.neg prev |]
    end

let materialise_frame t frame =
  Array.iter (fun node -> encode_node t frame node) t.encode_order;
  Sat.Vec.push t.frame_var_limit (Varmap.num_vars t.varmap);
  Sat.Vec.push t.frame_clause_limit (Sat.Vec.length t.base)

let extend_to t k =
  if k < 0 then invalid_arg "Unroll.extend_to: negative depth";
  while t.depth < k do
    t.depth <- t.depth + 1;
    materialise_frame t t.depth
  done

let depth t = t.depth

(* Frames are materialised in order, so frames 0..k are a prefix of the
   base. *)
let fill_base t ~k cnf =
  extend_to t k;
  Sat.Cnf.refill cnf
    ~num_vars:(Sat.Vec.get t.frame_var_limit k)
    t.base
    (Sat.Vec.get t.frame_clause_limit k)

let base_cnf t ~k =
  extend_to t k;
  (* one slot more for the property unit callers add *)
  let cnf = Sat.Cnf.create ~capacity:(Sat.Vec.get t.frame_clause_limit k + 1) () in
  fill_base t ~k cnf;
  cnf

let instance t ~k =
  let cnf = base_cnf t ~k in
  Sat.Cnf.add_clause cnf [ Sat.Lit.neg (var_of t ~node:t.property ~frame:k) ];
  cnf

(* The clauses emitted while materialising frame f are the contiguous base
   range between consecutive frame_clause_limit entries — concatenating
   the deltas for 0..k reproduces base_cnf ~k clause for clause. *)
let iter_delta t ~frame f =
  extend_to t frame;
  let lo = if frame = 0 then 0 else Sat.Vec.get t.frame_clause_limit (frame - 1) in
  let hi = Sat.Vec.get t.frame_clause_limit frame in
  for i = lo to hi - 1 do
    f (Sat.Vec.get t.base i)
  done

let delta_cnf t ~frame =
  extend_to t frame;
  let cnf = Sat.Cnf.create ~num_vars:(Sat.Vec.get t.frame_var_limit frame) () in
  iter_delta t ~frame (Sat.Cnf.add_clause_a cnf);
  cnf

(* Frames are materialised in order, so clause [i] belongs to the first
   frame whose clause limit exceeds it. *)
let clause_frame t i =
  if i < 0 || i >= Sat.Vec.length t.base then invalid_arg "Unroll.clause_frame";
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if i < Sat.Vec.get t.frame_clause_limit mid then search lo mid else search (mid + 1) hi
  in
  search 0 t.depth

let clause_is_link t i = Sat.Vec.get t.link_flags i

let num_base_clauses t = Sat.Vec.length t.base
