type node =
  | Original
  | Learnt of int array (* antecedent ids *)

type t = {
  nodes : node Vec.t;
  mutable n_original : int;
  mutable n_learnt : int;
  mutable n_edges : int;
  mutable final : int array option;
  timed : bool; (* clock the bookkeeping (telemetry); off = zero overhead *)
  mutable cdg_time : float;
}

let create ?(timed = false) () =
  {
    nodes = Vec.create ~dummy:Original ();
    n_original = 0;
    n_learnt = 0;
    n_edges = 0;
    final = None;
    timed;
    cdg_time = 0.0;
  }

let reset t =
  Vec.clear t.nodes;
  t.n_original <- 0;
  t.n_learnt <- 0;
  t.n_edges <- 0;
  t.final <- None;
  t.cdg_time <- 0.0

(* Never clocked: originals are registered while a formula loads, outside
   every window that reports CDG time (a solve and its core walk), so two
   clock reads per clause would be pure cost. *)
let register_original t =
  let id = Vec.length t.nodes in
  Vec.push t.nodes Original;
  t.n_original <- t.n_original + 1;
  id

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
    let t0 = Telemetry.wall () in
    let id = register_learnt_ t ~antecedents in
    t.cdg_time <- t.cdg_time +. (Telemetry.wall () -. t0);
    id
  end

let set_final_ t ~antecedents =
  List.iter (check_ant t) antecedents;
  t.final <- Some (Array.of_list antecedents);
  t.n_edges <- t.n_edges + List.length antecedents

let set_final t ~antecedents =
  if not t.timed then set_final_ t ~antecedents
  else begin
    let t0 = Telemetry.wall () in
    set_final_ t ~antecedents;
    t.cdg_time <- t.cdg_time +. (Telemetry.wall () -. t0)
  end

let has_final t = t.final <> None

let clear_final t = t.final <- None

(* Walk marks, one byte per node. *)
let unseen = '\000'

let interior = '\001'

let original_leaf = '\002'

(* One backwards walk from the final conflict.  Every node is marked when
   first reached, so each learnt node's antecedent list is queued once; a
   final scan over the marks lists the original leaves in ascending order
   without a sort. *)
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
        | Learnt ants ->
          Bytes.set mark id interior;
          Vec.push pending ants
    in
    Array.iter reach roots;
    while not (Vec.is_empty pending) do
      Array.iter reach (Vec.pop pending)
    done;
    let originals = ref [] in
    for id = n - 1 downto 0 do
      if Bytes.get mark id = original_leaf then originals := id :: !originals
    done;
    !originals

let core t =
  if not t.timed then core_ t
  else begin
    let t0 = Telemetry.wall () in
    let r = core_ t in
    t.cdg_time <- t.cdg_time +. (Telemetry.wall () -. t0);
    r
  end

let antecedents t id =
  if id < 0 || id >= Vec.length t.nodes then None
  else
    match Vec.get t.nodes id with
    | Original -> None
    | Learnt ants -> Some ants

let final t = t.final

let num_original t = t.n_original

let num_learnt t = t.n_learnt

let num_edges t = t.n_edges

let cdg_seconds t = t.cdg_time
