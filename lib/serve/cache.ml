type 'a entry = {
  ce_key : string;
  ce_digest : string;
  ce_netlist : Circuit.Netlist.t;
  ce_property : Circuit.Netlist.node;
  ce_mode : Bmc.Session.mode;
  ce_affinity : int;
  ce_deadline : float ref;
  mutable ce_session : Bmc.Session.t option;
  mutable ce_next_k : int;
  mutable ce_falsified : (int * Obs.Json.t) option;
  mutable ce_core : Sat.Lit.var list;
  mutable ce_bytes : int;
  mutable ce_stamp : int;
  mutable ce_busy : bool;
  mutable ce_waiting : 'a list;
}

type 'a t = {
  max_bytes : int;
  jobs : int;
  tbl : (string, 'a entry) Hashtbl.t;
  mutable clock : int;
}

let create ~max_bytes ~jobs () =
  {
    max_bytes;
    jobs = max 1 jobs;
    tbl = Hashtbl.create 64;
    clock = 0;
  }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
    e.ce_stamp <- tick t;
    Some e
  | None -> None

let add t ~key ~digest ~netlist ~property ~mode =
  if Hashtbl.mem t.tbl key then invalid_arg "Serve.Cache.add: duplicate key";
  let e =
    {
      ce_key = key;
      ce_digest = digest;
      ce_netlist = netlist;
      ce_property = property;
      ce_mode = mode;
      ce_affinity = Hashtbl.hash key mod t.jobs;
      ce_deadline = ref infinity;
      ce_session = None;
      ce_next_k = 0;
      ce_falsified = None;
      ce_core = [];
      ce_bytes = 0;
      ce_stamp = tick t;
      ce_busy = false;
      ce_waiting = [];
    }
  in
  Hashtbl.replace t.tbl key e;
  e

let invalidate e =
  e.ce_session <- None;
  e.ce_next_k <- 0;
  e.ce_core <- [];
  e.ce_bytes <- 0

let drop t e = Hashtbl.remove t.tbl e.ce_key

let resident_bytes t = Hashtbl.fold (fun _ e acc -> acc + e.ce_bytes) t.tbl 0

let size t = Hashtbl.length t.tbl

let entries t = Hashtbl.fold (fun _ e acc -> e :: acc) t.tbl []

let evict t =
  let dropped = ref [] in
  let continue_ = ref true in
  while !continue_ && resident_bytes t > t.max_bytes do
    (* the oldest idle entry; busy entries (and their waiters) are pinned *)
    let victim =
      Hashtbl.fold
        (fun _ e best ->
          if e.ce_busy then best
          else
            match best with
            | Some b when b.ce_stamp <= e.ce_stamp -> best
            | _ -> Some e)
        t.tbl None
    in
    match victim with
    | Some e ->
      drop t e;
      dropped := e :: !dropped
    | None -> continue_ := false
  done;
  List.rev !dropped
