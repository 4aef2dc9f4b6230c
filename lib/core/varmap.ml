type key = { node : Circuit.Netlist.node; frame : int }

type t = {
  forward : (key, Sat.Lit.var) Hashtbl.t;
  reverse : (Circuit.Netlist.node * int) Sat.Vec.t;
}

let create () = { forward = Hashtbl.create 1024; reverse = Sat.Vec.create ~dummy:(-1, -1) () }

let var t ~node ~frame =
  if frame < 0 then invalid_arg "Varmap.var: negative frame";
  let key = { node; frame } in
  match Hashtbl.find_opt t.forward key with
  | Some v -> v
  | None ->
    let v = Sat.Vec.length t.reverse in
    Hashtbl.replace t.forward key v;
    Sat.Vec.push t.reverse (node, frame);
    v

let key_of t v =
  if v >= 0 && v < Sat.Vec.length t.reverse then Some (Sat.Vec.get t.reverse v) else None

let num_vars t = Sat.Vec.length t.reverse
