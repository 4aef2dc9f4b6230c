type node =
  | Original
  | Import of int * int (* origin (solver id, local id) in a sibling shard *)
  | Learnt of int array (* antecedent ids, local to this shard *)

type t = {
  nodes : node Vec.t;
  solver_id : int; (* provenance: which solver owns this shard *)
  mutable n_original : int;
  mutable n_import : int;
  mutable n_learnt : int;
  mutable n_edges : int;
  mutable final : int array option;
  timed : bool; (* clock the bookkeeping (telemetry); off = zero overhead *)
  mutable cdg_time : float;
}

let create ?(timed = false) ?(solver_id = 0) () =
  {
    nodes = Vec.create ~dummy:Original ();
    solver_id;
    n_original = 0;
    n_import = 0;
    n_learnt = 0;
    n_edges = 0;
    final = None;
    timed;
    cdg_time = 0.0;
  }

let solver_id t = t.solver_id

(* Never clocked: originals are registered while a formula loads, outside
   every window that reports CDG time (a solve and its core walk), so two
   clock reads per clause would be pure cost. *)
let register_original t =
  let id = Vec.length t.nodes in
  Vec.push t.nodes Original;
  t.n_original <- t.n_original + 1;
  id

let register_import_ t ~origin:(o_solver, o_id) =
  if o_id < 0 then
    invalid_arg (Printf.sprintf "Proof.register_import: negative origin id %d" o_id);
  let id = Vec.length t.nodes in
  Vec.push t.nodes (Import (o_solver, o_id));
  t.n_import <- t.n_import + 1;
  t.n_edges <- t.n_edges + 1;
  id

let register_import t ~origin =
  if not t.timed then register_import_ t ~origin
  else begin
    let t0 = Sys.time () in
    let id = register_import_ t ~origin in
    t.cdg_time <- t.cdg_time +. (Sys.time () -. t0);
    id
  end

let check_ant t id =
  if id < 0 || id >= Vec.length t.nodes then
    invalid_arg (Printf.sprintf "Proof: unknown antecedent id %d" id)

let register_learnt_ t ~antecedents =
  List.iter (check_ant t) antecedents;
  let ants = Array.of_list antecedents in
  let id = Vec.length t.nodes in
  Vec.push t.nodes (Learnt ants);
  t.n_learnt <- t.n_learnt + 1;
  t.n_edges <- t.n_edges + Array.length ants;
  id

let register_learnt t ~antecedents =
  if not t.timed then register_learnt_ t ~antecedents
  else begin
    let t0 = Sys.time () in
    let id = register_learnt_ t ~antecedents in
    t.cdg_time <- t.cdg_time +. (Sys.time () -. t0);
    id
  end

let set_final_ t ~antecedents =
  List.iter (check_ant t) antecedents;
  t.final <- Some (Array.of_list antecedents);
  t.n_edges <- t.n_edges + List.length antecedents

let set_final t ~antecedents =
  if not t.timed then set_final_ t ~antecedents
  else begin
    let t0 = Sys.time () in
    set_final_ t ~antecedents;
    t.cdg_time <- t.cdg_time +. (Sys.time () -. t0)
  end

let has_final t = t.final <> None

let clear_final t = t.final <- None

type core = {
  originals : int list;
  imports : int list;
}

(* Walk marks, one byte per node. *)
let unseen = '\000'

let interior = '\001'

let original_leaf = '\002'

let import_leaf = '\003'

(* One backwards walk from the final conflict collects both kinds of leaf.
   Every node is marked when first reached, so each learnt node's
   antecedent list is queued once; a final scan over the marks lists the
   leaves in ascending order without a sort. *)
let core_ t =
  match t.final with
  | None -> invalid_arg "Proof.core: no final conflict recorded"
  | Some roots ->
    let n = Vec.length t.nodes in
    let mark = Bytes.make n unseen in
    let pending = Vec.create ~dummy:[||] () in
    let reach id =
      if Bytes.get mark id = unseen then
        match Vec.get t.nodes id with
        | Original -> Bytes.set mark id original_leaf
        | Import _ -> Bytes.set mark id import_leaf
        | Learnt ants ->
          Bytes.set mark id interior;
          Vec.push pending ants
    in
    Array.iter reach roots;
    while not (Vec.is_empty pending) do
      Array.iter reach (Vec.pop pending)
    done;
    let originals = ref [] and imports = ref [] in
    for id = n - 1 downto 0 do
      let m = Bytes.get mark id in
      if m = original_leaf then originals := id :: !originals
      else if m = import_leaf then imports := id :: !imports
    done;
    { originals = !originals; imports = !imports }

let core t =
  if not t.timed then core_ t
  else begin
    let t0 = Sys.time () in
    let r = core_ t in
    t.cdg_time <- t.cdg_time +. (Sys.time () -. t0);
    r
  end

(* Cross-shard core: the same backwards walk, but an [Import (s, i)] node
   continues into shard [s] at node [i] instead of being dropped.  The
   merged graph is acyclic because a clause is published to the exchange
   strictly before any sibling can import it, so an import can only ever
   reference derivations that were complete at publication time. *)
let stitched_core t ~lookup =
  match t.final with
  | None -> invalid_arg "Proof.core: no final conflict recorded"
  | Some roots ->
    let visited = Hashtbl.create 1024 in
    let per_shard : (int, int list ref) Hashtbl.t = Hashtbl.create 7 in
    let shard_of sid =
      if sid = t.solver_id then t
      else
        match lookup sid with
        | Some s ->
          if s.solver_id <> sid then
            invalid_arg
              (Printf.sprintf
                 "Proof.stitched_core: lookup returned shard %d for solver %d"
                 s.solver_id sid);
          s
        | None ->
          invalid_arg
            (Printf.sprintf "Proof.stitched_core: no shard for solver %d" sid)
    in
    let stack = ref (List.map (fun id -> (t, id)) (Array.to_list roots)) in
    let visit (sh, id) =
      let key = (sh.solver_id, id) in
      if not (Hashtbl.mem visited key) then begin
        Hashtbl.add visited key ();
        if id < 0 || id >= Vec.length sh.nodes then
          invalid_arg
            (Printf.sprintf "Proof.stitched_core: unknown node %d in shard %d" id
               sh.solver_id);
        match Vec.get sh.nodes id with
        | Original ->
          let acc =
            match Hashtbl.find_opt per_shard sh.solver_id with
            | Some r -> r
            | None ->
              let r = ref [] in
              Hashtbl.add per_shard sh.solver_id r;
              r
          in
          acc := id :: !acc
        | Import (os, oi) -> stack := (shard_of os, oi) :: !stack
        | Learnt ants -> Array.iter (fun a -> stack := (sh, a) :: !stack) ants
      end
    in
    let rec loop () =
      match !stack with
      | [] -> ()
      | top :: rest ->
        stack := rest;
        visit top;
        loop ()
    in
    loop ();
    Hashtbl.fold
      (fun sid acc l -> (sid, List.sort Int.compare !acc) :: l)
      per_shard []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let antecedents t id =
  if id < 0 || id >= Vec.length t.nodes then None
  else
    match Vec.get t.nodes id with
    | Original | Import _ -> None
    | Learnt ants -> Some ants

let origin_of t id =
  if id < 0 || id >= Vec.length t.nodes then None
  else
    match Vec.get t.nodes id with
    | Original | Learnt _ -> None
    | Import (s, i) -> Some (s, i)

let final t = t.final

let num_original t = t.n_original

let num_import t = t.n_import

let num_learnt t = t.n_learnt

let num_edges t = t.n_edges

let cdg_seconds t = t.cdg_time
