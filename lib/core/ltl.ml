(* Internal representation is negation normal form: negation lives only in
   the atoms' phase, so the bounded translation needs no negative cases. *)
type formula =
  | Const of bool
  | Atom of Circuit.Netlist.node * bool (* phase: true = positive *)
  | And of formula * formula
  | Or of formula * formula
  | X of formula
  | U of formula * formula
  | R of formula * formula

let atom n =
  if n < 0 then invalid_arg "Ltl.atom: negative node";
  Atom (n, true)

let rec not_ = function
  | Const b -> Const (not b)
  | Atom (n, phase) -> Atom (n, not phase)
  | And (a, b) -> Or (not_ a, not_ b)
  | Or (a, b) -> And (not_ a, not_ b)
  | X a -> X (not_ a)
  | U (a, b) -> R (not_ a, not_ b)
  | R (a, b) -> U (not_ a, not_ b)

let and_ a b =
  match (a, b) with
  | Const false, _ | _, Const false -> Const false
  | Const true, x | x, Const true -> x
  | _ -> And (a, b)

let or_ a b =
  match (a, b) with
  | Const true, _ | _, Const true -> Const true
  | Const false, x | x, Const false -> x
  | _ -> Or (a, b)

let implies a b = or_ (not_ a) b

let next a = X a

let until a b = U (a, b)

let release a b = R (a, b)

let eventually a = U (Const true, a)

let always a = R (Const false, a)

let pp ?netlist () ppf f =
  let name n =
    match netlist with
    | Some nl -> (
      match Circuit.Netlist.name_of nl n with Some s -> s | None -> Printf.sprintf "n%d" n)
    | None -> Printf.sprintf "n%d" n
  in
  let rec go ppf = function
    | Const b -> Format.pp_print_bool ppf b
    | Atom (n, true) -> Format.pp_print_string ppf (name n)
    | Atom (n, false) -> Format.fprintf ppf "!%s" (name n)
    | And (a, b) -> Format.fprintf ppf "(%a & %a)" go a go b
    | Or (a, b) -> Format.fprintf ppf "(%a | %a)" go a go b
    | X a -> Format.fprintf ppf "X %a" go a
    | U (Const true, b) -> Format.fprintf ppf "F %a" go b
    | U (a, b) -> Format.fprintf ppf "(%a U %a)" go a go b
    | R (Const false, b) -> Format.fprintf ppf "G %a" go b
    | R (a, b) -> Format.fprintf ppf "(%a R %a)" go a go b
  in
  go ppf f

exception Parse_error of string

(* Recursive-descent parser over a simple token stream. *)
let parse nl text =
  let fail fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt in
  let n = String.length text in
  let pos = ref 0 in
  let peek () =
    while !pos < n && (text.[!pos] = ' ' || text.[!pos] = '\t') do
      incr pos
    done;
    if !pos < n then Some text.[!pos] else None
  in
  let ident () =
    let start = !pos in
    while
      !pos < n
      && (match text.[!pos] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
    do
      incr pos
    done;
    String.sub text start (!pos - start)
  in
  (* a keyword is only a keyword when not glued to identifier characters *)
  let try_keyword kw =
    let save = !pos in
    match peek () with
    | Some c when c = kw.[0] ->
      let id = ident () in
      if id = kw then true
      else begin
        pos := save;
        false
      end
    | Some _ | None -> false
  in
  let expect c =
    match peek () with
    | Some d when d = c -> incr pos
    | Some d -> fail "expected '%c', found '%c' at offset %d" c d !pos
    | None -> fail "expected '%c', found end of input" c
  in
  let rec formula () = imp ()
  and imp () =
    let lhs = until_level () in
    match peek () with
    | Some '-' ->
      incr pos;
      expect '>';
      implies lhs (imp ())
    | Some _ | None -> lhs
  and until_level () =
    let lhs = disj () in
    if try_keyword "U" then until lhs (until_level ())
    else if try_keyword "R" then release lhs (until_level ())
    else lhs
  and disj () =
    let lhs = ref (conj ()) in
    let rec more () =
      match peek () with
      | Some '|' ->
        incr pos;
        lhs := or_ !lhs (conj ());
        more ()
      | Some _ | None -> ()
    in
    more ();
    !lhs
  and conj () =
    let lhs = ref (unary ()) in
    let rec more () =
      match peek () with
      | Some '&' ->
        incr pos;
        lhs := and_ !lhs (unary ());
        more ()
      | Some _ | None -> ()
    in
    more ();
    !lhs
  and unary () =
    match peek () with
    | Some '!' ->
      incr pos;
      not_ (unary ())
    | Some 'G' when try_keyword "G" -> always (unary ())
    | Some 'F' when try_keyword "F" -> eventually (unary ())
    | Some 'X' when try_keyword "X" -> next (unary ())
    | Some _ | None -> primary ()
  and primary () =
    match peek () with
    | Some '(' ->
      incr pos;
      let f = formula () in
      expect ')';
      f
    | Some ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') -> (
      let id = ident () in
      match id with
      | "" -> fail "expected a formula at offset %d" !pos
      | "true" -> Const true
      | "false" -> Const false
      | name -> (
        match Circuit.Netlist.find nl name with
        | Some node -> atom node
        | None -> fail "unknown signal %S" name))
    | Some c -> fail "unexpected character '%c' at offset %d" c !pos
    | None -> fail "unexpected end of input"
  in
  let f = formula () in
  (match peek () with
  | None -> ()
  | Some c -> fail "trailing input starting with '%c' at offset %d" c !pos);
  f

let rec atoms acc = function
  | Const _ -> acc
  | Atom (n, _) -> n :: acc
  | And (a, b) | Or (a, b) | U (a, b) | R (a, b) -> atoms (atoms acc a) b
  | X a -> atoms acc a

(* ------------------------------------------------------------------ *)
(* CNF-level encoding.                                                 *)
(* ------------------------------------------------------------------ *)

type lc =
  | L of Sat.Lit.t
  | C of bool

(* The witness-shape encoding is instance-local: auxiliaries and clauses go
   through the session, which guards them behind the instance's activation
   literal under the persistent policy and retires them at the next depth. *)
type enc_ctx = {
  session : Session.t;
  k : int;
}

let mk_and ctx a b =
  match (a, b) with
  | C false, _ | _, C false -> C false
  | C true, x | x, C true -> x
  | L la, L lb ->
    let v = Session.fresh_lit ctx.session in
    Session.constrain ctx.session [ Sat.Lit.negate v; la ];
    Session.constrain ctx.session [ Sat.Lit.negate v; lb ];
    Session.constrain ctx.session [ v; Sat.Lit.negate la; Sat.Lit.negate lb ];
    L v

let mk_or ctx a b =
  match (a, b) with
  | C true, _ | _, C true -> C true
  | C false, x | x, C false -> x
  | L la, L lb ->
    let v = Session.fresh_lit ctx.session in
    Session.constrain ctx.session [ v; Sat.Lit.negate la ];
    Session.constrain ctx.session [ v; Sat.Lit.negate lb ];
    Session.constrain ctx.session [ Sat.Lit.negate v; la; lb ];
    L v

let atom_lit ctx node phase i =
  let v = Session.var_of ctx.session ~node ~frame:i in
  L (if phase then Sat.Lit.pos v else Sat.Lit.neg v)

(* The without-loop (pessimistic) translation. *)
let encode_noloop ctx psi =
  let memo : (formula * int, lc) Hashtbl.t = Hashtbl.create 64 in
  let rec enc f i =
    match Hashtbl.find_opt memo (f, i) with
    | Some v -> v
    | None ->
      let v =
        match f with
        | Const b -> C b
        | Atom (n, phase) -> atom_lit ctx n phase i
        | And (a, b) -> mk_and ctx (enc a i) (enc b i)
        | Or (a, b) -> mk_or ctx (enc a i) (enc b i)
        | X a -> if i < ctx.k then enc a (i + 1) else C false
        | U (a, b) ->
          let tail = if i < ctx.k then enc f (i + 1) else C false in
          mk_or ctx (enc b i) (mk_and ctx (enc a i) tail)
        | R (a, b) ->
          (* without a loop the release must trigger before the end *)
          let tail = if i < ctx.k then enc f (i + 1) else C false in
          mk_and ctx (enc b i) (mk_or ctx (enc a i) tail)
      in
      Hashtbl.replace memo (f, i) v;
      v
  in
  enc psi 0

(* The (k,l)-loop translation, with the second-lap auxiliaries for the
   U/R fixpoints. *)
let encode_loop ctx psi ~l =
  let memo : (formula * int, lc) Hashtbl.t = Hashtbl.create 64 in
  let aux_memo : (formula * int, lc) Hashtbl.t = Hashtbl.create 64 in
  let succ i = if i < ctx.k then i + 1 else l in
  (* second lap: plain unrolling from j to k, stopping pessimistically *)
  let rec enc_aux f j =
    match Hashtbl.find_opt aux_memo (f, j) with
    | Some v -> v
    | None ->
      let v =
        match f with
        | U (a, b) ->
          let tail = if j < ctx.k then enc_aux f (j + 1) else C false in
          mk_or ctx (enc b j) (mk_and ctx (enc a j) tail)
        | R (a, b) ->
          let tail = if j < ctx.k then enc_aux f (j + 1) else C true in
          mk_and ctx (enc b j) (mk_or ctx (enc a j) tail)
        | Const _ | Atom _ | And _ | Or _ | X _ -> enc f j
      in
      Hashtbl.replace aux_memo (f, j) v;
      v
  and enc f i =
    match Hashtbl.find_opt memo (f, i) with
    | Some v -> v
    | None ->
      let v =
        match f with
        | Const b -> C b
        | Atom (n, phase) -> atom_lit ctx n phase i
        | And (a, b) -> mk_and ctx (enc a i) (enc b i)
        | Or (a, b) -> mk_or ctx (enc a i) (enc b i)
        | X a -> enc a (succ i)
        | U (a, b) ->
          let tail = if i < ctx.k then enc f (i + 1) else enc_aux f l in
          mk_or ctx (enc b i) (mk_and ctx (enc a i) tail)
        | R (a, b) ->
          let tail = if i < ctx.k then enc f (i + 1) else enc_aux f l in
          mk_and ctx (enc b i) (mk_or ctx (enc a i) tail)
      in
      Hashtbl.replace memo (f, i) v;
      v
  in
  enc psi 0

(* loop_l: the successor of state k equals state l, register by register. *)
let loop_literal ctx regs ~l =
  List.fold_left
    (fun acc r ->
      let a = Sat.Lit.pos (Session.var_of ctx.session ~node:r ~frame:(ctx.k + 1)) in
      let b = Sat.Lit.pos (Session.var_of ctx.session ~node:r ~frame:l) in
      let e = Session.fresh_lit ctx.session in
      Session.constrain ctx.session [ Sat.Lit.negate e; Sat.Lit.negate a; b ];
      Session.constrain ctx.session [ Sat.Lit.negate e; a; Sat.Lit.negate b ];
      Session.constrain ctx.session [ e; a; b ];
      Session.constrain ctx.session [ e; Sat.Lit.negate a; Sat.Lit.negate b ];
      mk_and ctx acc (L e))
    (C true) regs

(* ------------------------------------------------------------------ *)
(* Concrete lasso evaluation (the validation oracle).                  *)
(* ------------------------------------------------------------------ *)

let holds_on_lasso nl psi ~init ~inputs ~loop_start =
  let sim = Circuit.Eval.compile nl in
  let k = Array.length inputs - 1 in
  let resolve r = match List.assoc_opt r init with Some b -> b | None -> false in
  let input_fun ~cycle node =
    if cycle <= k then
      match List.assoc_opt node inputs.(cycle) with Some b -> b | None -> false
    else false
  in
  let frames = Array.of_list (Circuit.Eval.run sim ~resolve ~inputs:input_fun ~cycles:(k + 1) ()) in
  let value node i = Circuit.Eval.value frames.(i) node in
  let memo = Hashtbl.create 64 in
  let aux_memo = Hashtbl.create 64 in
  match loop_start with
  | None ->
    let rec ev f i =
      match Hashtbl.find_opt memo (f, i) with
      | Some v -> v
      | None ->
        let v =
          match f with
          | Const b -> b
          | Atom (n, phase) -> value n i = phase
          | And (a, b) -> ev a i && ev b i
          | Or (a, b) -> ev a i || ev b i
          | X a -> i < k && ev a (i + 1)
          | U (a, b) -> ev b i || (ev a i && i < k && ev f (i + 1))
          | R (a, b) -> ev b i && (ev a i || (i < k && ev f (i + 1)))
        in
        Hashtbl.replace memo (f, i) v;
        v
    in
    ev psi 0
  | Some l ->
    let succ i = if i < k then i + 1 else l in
    let rec ev_aux f j =
      match Hashtbl.find_opt aux_memo (f, j) with
      | Some v -> v
      | None ->
        let v =
          match f with
          | U (a, b) -> ev b j || (ev a j && j < k && ev_aux f (j + 1))
          | R (a, b) -> ev b j && (ev a j || j >= k || ev_aux f (j + 1))
          | Const _ | Atom _ | And _ | Or _ | X _ -> ev f j
        in
        Hashtbl.replace aux_memo (f, j) v;
        v
    and ev f i =
      match Hashtbl.find_opt memo (f, i) with
      | Some v -> v
      | None ->
        let v =
          match f with
          | Const b -> b
          | Atom (n, phase) -> value n i = phase
          | And (a, b) -> ev a i && ev b i
          | Or (a, b) -> ev a i || ev b i
          | X a -> ev a (succ i)
          | U (a, b) -> ev b i || (ev a i && if i < k then ev f (i + 1) else ev_aux f l)
          | R (a, b) -> ev b i && (ev a i || if i < k then ev f (i + 1) else ev_aux f l)
        in
        Hashtbl.replace memo (f, i) v;
        v
    in
    ev psi 0

(* ------------------------------------------------------------------ *)
(* The search loop.                                                    *)
(* ------------------------------------------------------------------ *)

type witness = {
  depth : int;
  loop_start : int option;
  trace : Trace.t;
}

type verdict =
  | Falsified of witness
  | Bounded_pass of int
  | Aborted of int

type result = {
  verdict : verdict;
  per_depth : Session.depth_stat list;
  total_time : float;
}

(* Verify the lasso shape of an extracted witness: simulating one cycle
   past frame k must land back on frame l's register values. *)
let lasso_closes nl witness =
  match witness.loop_start with
  | None -> true
  | Some l ->
    let sim = Circuit.Eval.compile nl in
    let resolve r =
      match List.assoc_opt r witness.trace.Trace.init_regs with Some b -> b | None -> false
    in
    let input_fun ~cycle node =
      if cycle < Array.length witness.trace.Trace.inputs then
        match List.assoc_opt node witness.trace.Trace.inputs.(cycle) with
        | Some b -> b
        | None -> false
      else false
    in
    let rec advance st i =
      let frame, st' = Circuit.Eval.cycle sim st ~inputs:(fun n -> input_fun ~cycle:i n) in
      if i = witness.depth then (frame, st')
      else advance st' (i + 1)
    in
    let rec state_at st i target =
      if i = target then st
      else
        let _, st' = Circuit.Eval.cycle sim st ~inputs:(fun n -> input_fun ~cycle:i n) in
        state_at st' (i + 1) target
    in
    let initial = Circuit.Eval.initial ~resolve sim in
    let _, after_k = advance initial 0 in
    let at_l = state_at initial 0 l in
    List.for_all
      (fun r -> Circuit.Eval.reg_value sim after_k r = Circuit.Eval.reg_value sim at_l r)
      (Circuit.Netlist.regs nl)

let check ?(config = Session.default_config) ?(policy = Session.Persistent) netlist psi_property
    =
  (match Circuit.Netlist.validate netlist with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Ltl.check: " ^ msg));
  List.iter
    (fun n ->
      if n < 0 || n >= Circuit.Netlist.num_nodes netlist then
        invalid_arg "Ltl.check: formula atom is not a node of the netlist")
    (atoms [] psi_property);
  (* we search for witnesses of the negation *)
  let psi = not_ psi_property in
  (* COI reduction is meaningless against the dummy property node; the whole
     netlist is encoded, as the seed engine did. *)
  let cfg = { config with Session.coi = false } in
  let session = Session.create ~policy cfg netlist ~property:0 in
  let regs = Circuit.Netlist.regs netlist in
  (* every instance re-reads the formula atoms at frames 0..k and the
     registers at all frames (loop closing), so those variables must
     survive any depth-boundary elimination *)
  Session.freeze_nodes session (atoms regs psi);
  let per_depth = ref [] in
  let start = Sys.time () in
  let finish verdict =
    {
      verdict;
      per_depth = List.rev !per_depth;
      total_time = Sys.time () -. start;
    }
  in
  let rec loop k =
    if k > cfg.Session.max_depth then finish (Bounded_pass cfg.Session.max_depth)
    else begin
      (* the lasso encoding needs the loop-closing successor state k+1 *)
      Session.begin_instance ~frames:(k + 1) session ~k;
      let ctx = { session; k } in
      let no_loop = encode_noloop ctx psi in
      let loop_lits =
        List.init (k + 1) (fun l ->
            let guard = loop_literal ctx regs ~l in
            (l, guard, mk_and ctx guard (encode_loop ctx psi ~l)))
      in
      let top =
        List.fold_left (fun acc (_, _, d) -> mk_or ctx acc d) no_loop loop_lits
      in
      (match top with
      | C true -> () (* trivially witnessed; the solver will report SAT *)
      | C false -> Session.constrain session [] (* no witness shape possible *)
      | L lit -> Session.constrain session [ lit ]);
      let stat = Session.solve_instance session in
      per_depth := stat :: !per_depth;
      match stat.Session.outcome with
      | Sat.Solver.Sat ->
        let model = Session.model session in
        let lit_true = function
          | C b -> b
          | L lit ->
            let v = Sat.Lit.var lit in
            v < Array.length model && model.(v) = Sat.Lit.is_pos lit
        in
        let loop_start =
          (* prefer the finite (informative-prefix) witness when the model
             satisfies it; fall back to whichever lasso disjunct is true *)
          if lit_true no_loop then None
          else
            List.find_map
              (fun (l, guard, d) -> if lit_true guard && lit_true d then Some l else None)
              loop_lits
        in
        let trace = Session.trace session in
        let witness = { depth = k; loop_start; trace } in
        let confirmed =
          lasso_closes netlist witness
          && holds_on_lasso netlist psi ~init:trace.Trace.init_regs
               ~inputs:trace.Trace.inputs ~loop_start
        in
        if not confirmed then
          failwith
            (Printf.sprintf "Ltl.check: witness at depth %d failed validation (internal error)"
               k);
        finish (Falsified witness)
      | Sat.Solver.Unsat -> loop (k + 1)
      | Sat.Solver.Unknown -> finish (Aborted k)
    end
  in
  loop 0
