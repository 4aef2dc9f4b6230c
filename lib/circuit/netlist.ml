type node = int

type gate =
  | Input of string
  | Const of bool
  | Not of node
  | And of node * node
  | Or of node * node
  | Xor of node * node
  | Mux of node * node * node
  | Reg of string

type reg_info = {
  init : bool option;
  mutable next : node; (* -1 until connected *)
}

type t = {
  gates : gate array ref;
  mutable len : int;
  names : (string, node) Hashtbl.t;
  canonical : (node, string) Hashtbl.t;
  reg_infos : (node, reg_info) Hashtbl.t;
  hashcons : (gate, node) Hashtbl.t;
  mutable input_order : node list; (* reversed *)
  mutable reg_order : node list; (* reversed *)
}

let create () =
  {
    gates = ref (Array.make 64 (Const false));
    len = 0;
    names = Hashtbl.create 64;
    canonical = Hashtbl.create 64;
    reg_infos = Hashtbl.create 16;
    hashcons = Hashtbl.create 64;
    input_order = [];
    reg_order = [];
  }

let num_nodes t = t.len

let gate t n =
  if n < 0 || n >= t.len then invalid_arg (Printf.sprintf "Netlist.gate: unknown node %d" n);
  !(t.gates).(n)

let push t g =
  if t.len = Array.length !(t.gates) then begin
    let bigger = Array.make (2 * t.len) (Const false) in
    Array.blit !(t.gates) 0 bigger 0 t.len;
    t.gates := bigger
  end;
  !(t.gates).(t.len) <- g;
  t.len <- t.len + 1;
  t.len - 1

let register_name t name n =
  if Hashtbl.mem t.names name then
    invalid_arg (Printf.sprintf "Netlist: duplicate name %S" name);
  Hashtbl.replace t.names name n;
  if not (Hashtbl.mem t.canonical n) then Hashtbl.replace t.canonical n name

let input t name =
  let n = push t (Input name) in
  register_name t name n;
  t.input_order <- n :: t.input_order;
  n

let hashconsed t g =
  match Hashtbl.find_opt t.hashcons g with
  | Some n -> n
  | None ->
    let n = push t g in
    Hashtbl.replace t.hashcons g n;
    n

let const_true t = hashconsed t (Const true)

let const_false t = hashconsed t (Const false)

let check_node t n ctx =
  if n < 0 || n >= t.len then invalid_arg (Printf.sprintf "Netlist.%s: unknown node %d" ctx n)

(* Light structural simplification: constants fold, idempotence, double
   negation.  Enough to keep generated circuits tidy without a full AIG
   rewriting pass. *)
let rec not_ t a =
  check_node t a "not_";
  match gate t a with
  | Const b -> if b then const_false t else const_true t
  | Not x -> x
  | Input _ | And _ | Or _ | Xor _ | Mux _ | Reg _ -> hashconsed t (Not a)

and and_ t a b =
  check_node t a "and_";
  check_node t b "and_";
  let a, b = if a <= b then (a, b) else (b, a) in
  match (gate t a, gate t b) with
  | Const false, _ | _, Const false -> const_false t
  | Const true, _ -> b
  | _, Const true -> a
  | _ when a = b -> a
  | _ when is_complement t a b -> const_false t
  | _ -> hashconsed t (And (a, b))

and or_ t a b =
  check_node t a "or_";
  check_node t b "or_";
  let a, b = if a <= b then (a, b) else (b, a) in
  match (gate t a, gate t b) with
  | Const true, _ | _, Const true -> const_true t
  | Const false, _ -> b
  | _, Const false -> a
  | _ when a = b -> a
  | _ when is_complement t a b -> const_true t
  | _ -> hashconsed t (Or (a, b))

and xor_ t a b =
  check_node t a "xor_";
  check_node t b "xor_";
  let a, b = if a <= b then (a, b) else (b, a) in
  match (gate t a, gate t b) with
  | Const false, _ -> b
  | _, Const false -> a
  | Const true, _ -> not_ t b
  | _, Const true -> not_ t a
  | _ when a = b -> const_false t
  | _ when is_complement t a b -> const_true t
  | _ -> hashconsed t (Xor (a, b))

and is_complement t a b =
  match (gate t a, gate t b) with
  | Not x, _ -> x = b
  | _, Not x -> x = a
  | _ -> false

let mux t ~sel ~hi ~lo =
  check_node t sel "mux";
  check_node t hi "mux";
  check_node t lo "mux";
  match gate t sel with
  | Const true -> hi
  | Const false -> lo
  | _ when hi = lo -> hi
  | _ -> hashconsed t (Mux (sel, hi, lo))

let nor_ t a b = not_ t (or_ t a b)

let xnor_ t a b = not_ t (xor_ t a b)

let implies t a b = or_ t (not_ t a) b

let and_list t = function
  | [] -> const_true t
  | x :: rest -> List.fold_left (and_ t) x rest

let or_list t = function
  | [] -> const_false t
  | x :: rest -> List.fold_left (or_ t) x rest

let reg t ~name ~init =
  let n = push t (Reg name) in
  register_name t name n;
  Hashtbl.replace t.reg_infos n { init; next = -1 };
  t.reg_order <- n :: t.reg_order;
  n

let reg_info t n =
  match Hashtbl.find_opt t.reg_infos n with
  | Some info -> info
  | None -> invalid_arg (Printf.sprintf "Netlist: node %d is not a register" n)

let set_next t r n =
  check_node t n "set_next";
  let info = reg_info t r in
  if info.next >= 0 then invalid_arg "Netlist.set_next: already connected";
  info.next <- n

let reg_init t r = (reg_info t r).init

let reg_next t r =
  let info = reg_info t r in
  if info.next < 0 then invalid_arg "Netlist.reg_next: next input not connected";
  info.next

let inputs t = List.rev t.input_order

let regs t = List.rev t.reg_order

let name_node t name n =
  check_node t n "name_node";
  register_name t name n

let find t name = Hashtbl.find_opt t.names name

let name_of t n = Hashtbl.find_opt t.canonical n

let fanins = function
  | Input _ | Const _ | Reg _ -> []
  | Not a -> [ a ]
  | And (a, b) | Or (a, b) | Xor (a, b) -> [ a; b ]
  | Mux (s, h, l) -> [ s; h; l ]

let validate t =
  let unconnected =
    Hashtbl.fold (fun n info acc -> if info.next < 0 then n :: acc else acc) t.reg_infos []
  in
  match unconnected with
  | n :: _ ->
    Error
      (Printf.sprintf "register %s has no next-state input"
         (Option.value ~default:(string_of_int n) (name_of t n)))
  | [] ->
    (* combinational cycle check: colours 0 = white, 1 = grey, 2 = black *)
    let colour = Array.make (max t.len 1) 0 in
    let cycle = ref None in
    let rec visit n =
      if !cycle = None then
        match colour.(n) with
        | 1 -> cycle := Some n
        | 2 -> ()
        | _ ->
          colour.(n) <- 1;
          List.iter visit (fanins (gate t n));
          colour.(n) <- 2
    in
    for n = 0 to t.len - 1 do
      visit n
    done;
    (match !cycle with
    | Some n ->
      Error
        (Printf.sprintf "combinational cycle through node %s"
           (Option.value ~default:(string_of_int n) (name_of t n)))
    | None -> Ok ())

let transitive_fanin t roots =
  let mark = Array.make (max t.len 1) false in
  let rec visit n =
    if not mark.(n) then begin
      mark.(n) <- true;
      let g = gate t n in
      List.iter visit (fanins g);
      match g with
      | Reg _ -> visit (reg_next t n)
      | Input _ | Const _ | Not _ | And _ | Or _ | Xor _ | Mux _ -> ()
    end
  in
  List.iter visit roots;
  fun n -> n >= 0 && n < t.len && mark.(n)

(* Structural digest: a canonical serialization of the gate array (in
   creation order — node IDs are dense and creation-ordered, so equal
   serializations imply identical node numbering), each register's initial
   value and next-state node, and the names baked into [Input]/[Reg] gates.
   Aliases added with [name_node] are presentation-only and excluded, as is
   the hashcons table (derivable).  Two netlists with equal digests are
   byte-identical structures: every (node, frame) SAT variable key coincides,
   which is what makes digest-keyed warm-session reuse sound. *)
let digest t =
  let buf = Buffer.create (64 * t.len) in
  for n = 0 to t.len - 1 do
    (match !(t.gates).(n) with
    | Input s ->
      Buffer.add_char buf 'i';
      Buffer.add_string buf s
    | Const b -> Buffer.add_string buf (if b then "c1" else "c0")
    | Not a -> Printf.bprintf buf "n%d" a
    | And (a, b) -> Printf.bprintf buf "a%d,%d" a b
    | Or (a, b) -> Printf.bprintf buf "o%d,%d" a b
    | Xor (a, b) -> Printf.bprintf buf "x%d,%d" a b
    | Mux (s, h, l) -> Printf.bprintf buf "m%d,%d,%d" s h l
    | Reg s ->
      Buffer.add_char buf 'r';
      Buffer.add_string buf s);
    Buffer.add_char buf '\n'
  done;
  List.iter
    (fun r ->
      let info = reg_info t r in
      Printf.bprintf buf "R%d=%s>%d\n" r
        (match info.init with None -> "x" | Some true -> "1" | Some false -> "0")
        info.next)
    (regs t);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pp_gate ppf = function
  | Input s -> Format.fprintf ppf "input %s" s
  | Const b -> Format.fprintf ppf "const %b" b
  | Not a -> Format.fprintf ppf "not %d" a
  | And (a, b) -> Format.fprintf ppf "and %d %d" a b
  | Or (a, b) -> Format.fprintf ppf "or %d %d" a b
  | Xor (a, b) -> Format.fprintf ppf "xor %d %d" a b
  | Mux (s, h, l) -> Format.fprintf ppf "mux %d %d %d" s h l
  | Reg s -> Format.fprintf ppf "reg %s" s

(* Rebuild the circuit through the simplifying constructors, turning
   non-kept registers into fresh inputs.  Nodes are visited in creation
   order, which is a topological order of the combinational structure, so
   every fanin is mapped before its user; register next-inputs are
   connected in a second pass. *)
let abstract_registers t ~keep =
  let fresh = create () in
  let map = Array.make (max t.len 1) (-1) in
  let mapped n = map.(n) in
  for n = 0 to t.len - 1 do
    let n' =
      match gate t n with
      | Input name -> input fresh name
      | Const b -> if b then const_true fresh else const_false fresh
      | Not a -> not_ fresh (mapped a)
      | And (a, b) -> and_ fresh (mapped a) (mapped b)
      | Or (a, b) -> or_ fresh (mapped a) (mapped b)
      | Xor (a, b) -> xor_ fresh (mapped a) (mapped b)
      | Mux (s, h, l) -> mux fresh ~sel:(mapped s) ~hi:(mapped h) ~lo:(mapped l)
      | Reg name ->
        if keep n then reg fresh ~name ~init:(reg_init t n)
        else input fresh (name ^ "!abs")
    in
    map.(n) <- n'
  done;
  List.iter
    (fun r -> if keep r then set_next fresh map.(r) map.(reg_next t r))
    (regs t);
  (fresh, fun n -> map.(n))
