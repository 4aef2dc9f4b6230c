(* In-memory spans recorded around the benchmark's calls into the library.

   A span has a name, a start and an end, the span that was open when it
   began (its parent) and the request or check it belongs to.  Spans are
   appended to an in-memory table and written out only when the run ends,
   so recording one costs two clock reads, two allocation-counter reads and
   a small record.

   Some work happens inside a single library call but is reported by the
   library as a duration ([depth_stat.bcp_time], [inpr_time], ...).  Such
   work becomes a {e derived} child: a synthetic span laid out inside its
   parent after the parent's previous derived children.  Derived spans
   carry no allocation of their own.

   The self time of a span is its duration minus the part of its interval
   its children cover; the children are clipped to the parent first, so a
   library-reported duration larger than the measured call cannot make a
   self time negative. *)

type span = {
  name : string;
  start : float;
  mutable stop : float;
  parent : int;  (** index of the parent span, -1 for a root *)
  req : int;  (** the check or request this span belongs to, -1 if none *)
  derived : bool;
  mutable alloc : float;  (** bytes allocated while the span was open *)
  mutable cursor : float;  (** where the next derived child starts *)
}

type t = {
  clock : unit -> float;
  mutable spans : span array;
  mutable n : int;
  mutable stack : int list;
  mutable last_closed : int;
}

let create ?(clock = Clock.now) () = { clock; spans = [||]; n = 0; stack = []; last_closed = -1 }

let spans t = Array.sub t.spans 0 t.n

let push t s =
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (max 256 (2 * t.n)) s in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1;
  t.n - 1

let current t = match t.stack with id :: _ -> id | [] -> -1

let span t ?(req = -1) name f =
  let parent = current t in
  let a0 = Gc.allocated_bytes () in
  let start = t.clock () in
  let id =
    push t
      { name; start; stop = start; parent; req; derived = false; alloc = 0.0; cursor = start }
  in
  t.stack <- id :: t.stack;
  let finish () =
    let s = t.spans.(id) in
    s.stop <- t.clock ();
    s.alloc <- Gc.allocated_bytes () -. a0;
    t.stack <- List.tl t.stack;
    t.last_closed <- id
  in
  Fun.protect ~finally:finish f

(* A library-reported duration, as a derived child of the open span. *)
type part = Part of string * float * part list

(* The most recently closed real span, for attaching derived children the
   library reports only after the call returned. *)
let last_closed t = t.last_closed

let derive ?parent t parts =
  let rec place parent req parts =
    List.iter
      (fun (Part (name, dur, subs)) ->
        let p = t.spans.(parent) in
        let start = p.cursor in
        let stop = start +. Float.max 0.0 dur in
        p.cursor <- stop;
        let id =
          push t { name; start; stop; parent; req; derived = true; alloc = 0.0; cursor = start }
        in
        place id req subs)
      parts
  in
  match (parent, t.stack) with
  | Some id, _ | None, id :: _ -> place id t.spans.(id).req parts
  | None, [] -> invalid_arg "Tracer.derive: no open span"

(* Length of the union of [intervals] after clipping each to [lo, hi]. *)
let coverage ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) -> if a <= cb then (total, Some (ca, Float.max cb b)) else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Per-span self time and self allocation, in index order. *)
let self_times spans =
  let n = Array.length spans in
  let kids = Array.make n [] in
  Array.iteri (fun i s -> if s.parent >= 0 then kids.(s.parent) <- i :: kids.(s.parent)) spans;
  Array.mapi
    (fun i s ->
      let cs = kids.(i) in
      let covered =
        coverage ~lo:s.start ~hi:s.stop
          (List.map (fun c -> (spans.(c).start, spans.(c).stop)) cs)
      in
      let child_alloc = List.fold_left (fun acc c -> acc +. spans.(c).alloc) 0.0 cs in
      (s.stop -. s.start -. covered, Float.max 0.0 (s.alloc -. child_alloc)))
    spans

(* Self seconds, self bytes and span count summed per span name. *)
let by_name spans =
  let selfs = self_times spans in
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      let st, sa = selfs.(i) in
      let t0, a0, c0 = Option.value ~default:(0.0, 0.0, 0) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (t0 +. st, a0 +. sa, c0 + 1))
    spans;
  tbl

let to_jsonl oc spans =
  Array.iteri
    (fun i s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f,\"parent\":%d,\"req\":%d,\"derived\":%b,\"alloc_b\":%.0f}\n"
        i s.name s.start s.stop s.parent s.req s.derived s.alloc)
    spans
