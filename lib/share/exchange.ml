(* Key layout: ((node lsl frame_bits) lor frame) lsl 1 lor neg — 40 node
   bits, 20 frame bits, one sign bit, all inside OCaml's 63-bit int. *)
let frame_bits = 20

let max_frame = 1 lsl frame_bits

let max_node = 1 lsl 40

let pack_lit ~node ~frame ~neg =
  (((node lsl frame_bits) lor frame) lsl 1) lor (if neg then 1 else 0)

let unpack_lit key =
  let neg = key land 1 = 1 in
  let nf = key lsr 1 in
  (nf lsr frame_bits, nf land (max_frame - 1), neg)

type config = {
  capacity : int;
  max_size : int;
  max_lbd : int;
  restart_budget : int; (* exports a solver may make per restart; max_int = unlimited *)
}

let default_config = { capacity = 1024; max_size = 8; max_lbd = 4; restart_budget = max_int }

(* [c_consumed] is the first-import latch: the first sibling to consume the
   clause flips it with a CAS, so the aggregate "imported" counter counts
   distinct clauses and [imported <= exported] holds by construction
   whatever the number of consumers.  [c_src_id] is the clause's pseudo ID
   in the exporter's proof shard (-1 when the exporter logs no proof) —
   together with the ring's [src] endpoint id it is the clause's global
   provenance, which importers record as a cross-shard proof edge. *)
type clause = { c_lits : int array; c_src_id : int; c_consumed : bool Atomic.t }

type t = {
  cfg : config;
  ring : clause Ring.t;
  next_id : int Atomic.t;
  exported : int Atomic.t;
  imported : int Atomic.t;
  delivered : int Atomic.t;
  rejected_tainted : int Atomic.t;
  dropped_stale : int Atomic.t;
  import_used : int Atomic.t; (* imports that were load-bearing in a refutation *)
}

let create ?(config = default_config) () =
  if config.capacity < 1 || config.max_size < 1 || config.max_lbd < 1
     || config.restart_budget < 1
  then invalid_arg "Exchange.create";
  {
    cfg = config;
    ring = Ring.create ~capacity:config.capacity;
    next_id = Atomic.make 0;
    exported = Atomic.make 0;
    imported = Atomic.make 0;
    delivered = Atomic.make 0;
    rejected_tainted = Atomic.make 0;
    dropped_stale = Atomic.make 0;
    import_used = Atomic.make 0;
  }

let config t = t.cfg

type endpoint = {
  ex : t;
  id : int;
  ep_name : string;
  cur : clause Ring.cursor;
  seen : (int, unit) Hashtbl.t; (* hashes published or imported here *)
  mutable drops_reported : int; (* cursor drops already pushed to the aggregate *)
  (* import-usefulness accounting (domain-confined, like the endpoint) *)
  mutable ep_delivered : int; (* clauses this endpoint consumed *)
  mutable ep_used : int; (* of those, load-bearing in one of its refutations *)
  mutable ep_lbd_cap : int; (* current adaptive export LBD cap *)
  mutable mark_delivered : int; (* ep_delivered at the last tune decision *)
  mutable mark_used : int;
}

let endpoint t ~name =
  {
    ex = t;
    id = Atomic.fetch_and_add t.next_id 1;
    ep_name = name;
    cur = Ring.cursor t.ring;
    seen = Hashtbl.create 256;
    drops_reported = 0;
    ep_delivered = 0;
    ep_used = 0;
    ep_lbd_cap = t.cfg.max_lbd;
    mark_delivered = 0;
    mark_used = 0;
  }

let name ep = ep.ep_name

let endpoint_id ep = ep.id

let max_size ep = ep.ex.cfg.max_size

let max_lbd ep = ep.ex.cfg.max_lbd

(* Order-independent hash: the same clause hashes identically whatever
   literal order the exporter's watch scheme left it in.  A collision only
   costs a suppressed share, never soundness. *)
let clause_hash lits =
  let a = Array.copy lits in
  Array.sort compare a;
  Array.fold_left (fun h k -> (h * 1000003) + k) (Array.length a) a

let publish ?(src_id = -1) ep lits ~lbd =
  let n = Array.length lits in
  if n < 1 || n > ep.ex.cfg.max_size || lbd > ep.ex.cfg.max_lbd then false
  else begin
    let h = clause_hash lits in
    if Hashtbl.mem ep.seen h then false
    else begin
      Hashtbl.replace ep.seen h ();
      Ring.publish ep.ex.ring ~src:ep.id
        { c_lits = lits; c_src_id = src_id; c_consumed = Atomic.make false };
      Atomic.incr ep.ex.exported;
      true
    end
  end

let flush_drops ep =
  let d = Ring.dropped ep.cur in
  if d > ep.drops_reported then begin
    ignore (Atomic.fetch_and_add ep.ex.dropped_stale (d - ep.drops_reported));
    ep.drops_reported <- d
  end

let drain ep f =
  let delivered = ref 0 in
  ignore
    (Ring.poll ep.cur (fun ~src cl ->
         if src <> ep.id then begin
           let h = clause_hash cl.c_lits in
           if not (Hashtbl.mem ep.seen h) then begin
             Hashtbl.replace ep.seen h ();
             if Atomic.compare_and_set cl.c_consumed false true then
               Atomic.incr ep.ex.imported;
             Atomic.incr ep.ex.delivered;
             ep.ep_delivered <- ep.ep_delivered + 1;
             incr delivered;
             let origin = if cl.c_src_id >= 0 then Some (src, cl.c_src_id) else None in
             f cl.c_lits ~origin
           end
         end));
  flush_drops ep;
  !delivered

let note_dropped ep n = if n > 0 then ignore (Atomic.fetch_and_add ep.ex.dropped_stale n)

let note_rejected_tainted ep n =
  if n > 0 then ignore (Atomic.fetch_and_add ep.ex.rejected_tainted n)

let note_import_used ep n =
  if n > 0 then begin
    ep.ep_used <- ep.ep_used + n;
    ignore (Atomic.fetch_and_add ep.ex.import_used n)
  end

let restart_budget ep = ep.ex.cfg.restart_budget

(* Minimum deliveries between cap moves: below this the used/delivered
   ratio is noise, and the cap must not drift on it. *)
let tune_sample = 16

(* Deterministic adaptation of the export LBD cap from the usefulness of
   the imports this endpoint consumed (the available proxy for overall
   exchange quality): >= 1/4 of recent imports load-bearing widens the cap
   towards the configured maximum, < 1/16 narrows it towards 1.  Called
   from the solver's restart-boundary tune hook. *)
let tune ep =
  let delivered = ep.ep_delivered - ep.mark_delivered in
  if delivered < tune_sample then Some ep.ep_lbd_cap
  else begin
    let used = ep.ep_used - ep.mark_used in
    ep.mark_delivered <- ep.ep_delivered;
    ep.mark_used <- ep.ep_used;
    let cap =
      if used * 4 >= delivered then min (ep.ep_lbd_cap + 1) ep.ex.cfg.max_lbd
      else if used * 16 < delivered then max (ep.ep_lbd_cap - 1) 1
      else ep.ep_lbd_cap
    in
    ep.ep_lbd_cap <- cap;
    Some cap
  end

type stats = {
  exported : int;
  imported : int;
  delivered : int;
  rejected_tainted : int;
  dropped_stale : int;
  import_used : int;
  occupancy : int;
  capacity : int;
}

let stats (t : t) =
  {
    exported = Atomic.get t.exported;
    imported = Atomic.get t.imported;
    delivered = Atomic.get t.delivered;
    rejected_tainted = Atomic.get t.rejected_tainted;
    dropped_stale = Atomic.get t.dropped_stale;
    import_used = Atomic.get t.import_used;
    occupancy = Ring.occupancy t.ring;
    capacity = t.cfg.capacity;
  }

let dump t =
  (* a fresh cursor starts at the oldest readable entry *)
  let cur = Ring.cursor t.ring in
  let acc = ref [] in
  ignore (Ring.poll cur (fun ~src:_ cl -> acc := cl.c_lits :: !acc));
  List.rev !acc

let stats_fields s =
  [
    ("exported", s.exported);
    ("imported", s.imported);
    ("delivered", s.delivered);
    ("rejected_tainted", s.rejected_tainted);
    ("dropped_stale", s.dropped_stale);
    ("import_used", s.import_used);
    ("occupancy", s.occupancy);
    ("capacity", s.capacity);
  ]

let pp_stats ppf s =
  Format.fprintf ppf
    "exported=%d imported=%d delivered=%d rejected_tainted=%d dropped_stale=%d \
     import_used=%d occupancy=%d/%d"
    s.exported s.imported s.delivered s.rejected_tainted s.dropped_stale s.import_used
    s.occupancy s.capacity
