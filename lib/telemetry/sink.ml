type value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

type event = {
  ts : float;
  kind : string;
  fields : (string * value) list;
}

type t = {
  emit : event -> unit;
  flush : unit -> unit;
}

(* ------------------------------------------------------------------ *)
(* Field helpers.                                                      *)
(* ------------------------------------------------------------------ *)

let find_int fields key =
  match List.assoc_opt key fields with
  | Some (Int i) -> Some i
  | Some (Float _ | Bool _ | Str _) | None -> None

let find_float fields key =
  match List.assoc_opt key fields with
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | Some (Bool _ | Str _) | None -> None

let find_str fields key =
  match List.assoc_opt key fields with
  | Some (Str s) -> Some s
  | Some (Int _ | Float _ | Bool _) | None -> None

(* ------------------------------------------------------------------ *)
(* Sinks.                                                              *)
(* ------------------------------------------------------------------ *)

let null = { emit = (fun _ -> ()); flush = (fun () -> ()) }

(* Every sink that mutates shared state is wrapped in [locked] so emission
   from multiple domains (the pool workers) serialises instead of
   corrupting channels / hashtables.  [null] owns no state and needs no
   lock. *)
let locked sink =
  let m = Mutex.create () in
  {
    emit = (fun e -> Mutex.protect m (fun () -> sink.emit e));
    flush = (fun () -> Mutex.protect m (fun () -> sink.flush ()));
  }

(* A fan-out is locked as a whole: with one lock per constituent only, two
   domains could reach the trace file and the aggregate in opposite orders,
   and a ledger folded from one would disagree with the other. *)
let tee = function
  | [] -> null
  | [ sink ] -> sink
  | sinks ->
    locked
      {
        emit = (fun e -> List.iter (fun s -> s.emit e) sinks);
        flush = (fun () -> List.iter (fun s -> s.flush ()) sinks);
      }

let memory () =
  let events = ref [] in
  let sink =
    locked { emit = (fun e -> events := e :: !events); flush = (fun () -> ()) }
  in
  (sink, fun () -> List.rev !events)

(* ------------------------------------------------------------------ *)
(* In-memory aggregation and reporting.                                *)
(* ------------------------------------------------------------------ *)

type span_cell = {
  mutable count : int;
  mutable seconds : float;
}

type aggregate = {
  spans : (string, span_cell) Hashtbl.t;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  tallies : (string, int ref) Hashtbl.t; (* instant events, by kind (and kind.src) *)
  mutable depths : (string * value) list list; (* "depth" events, newest first *)
}

let aggregate () =
  {
    spans = Hashtbl.create 16;
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    tallies = Hashtbl.create 16;
    depths = [];
  }

let tally agg key n =
  match Hashtbl.find_opt agg.tallies key with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace agg.tallies key (ref n)

let feed agg e =
  match e.kind with
  | "span" ->
    let name = Option.value ~default:"?" (find_str e.fields "name") in
    let dur = Option.value ~default:0.0 (find_float e.fields "dur") in
    let count = Option.value ~default:1 (find_int e.fields "count") in
    (match Hashtbl.find_opt agg.spans name with
    | Some c ->
      c.count <- c.count + count;
      c.seconds <- c.seconds +. dur
    | None -> Hashtbl.replace agg.spans name { count; seconds = dur })
  | "counter" ->
    let name = Option.value ~default:"?" (find_str e.fields "name") in
    let v = Option.value ~default:0 (find_int e.fields "value") in
    (match Hashtbl.find_opt agg.counters name with
    | Some r -> r := !r + v
    | None -> Hashtbl.replace agg.counters name (ref v))
  | "gauge" ->
    let name = Option.value ~default:"?" (find_str e.fields "name") in
    let v = Option.value ~default:0.0 (find_float e.fields "value") in
    (match Hashtbl.find_opt agg.gauges name with
    | Some r -> r := v
    | None -> Hashtbl.replace agg.gauges name (ref v))
  | "depth" -> agg.depths <- e.fields :: agg.depths
  | kind ->
    tally agg kind 1;
    (match find_str e.fields "src" with
    | Some src -> tally agg (kind ^ "." ^ src) 1
    | None -> ())

let of_aggregate agg = locked { emit = feed agg; flush = (fun () -> ()) }

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let span_seconds agg name =
  match Hashtbl.find_opt agg.spans name with Some c -> c.seconds | None -> 0.0

let span_count agg name =
  match Hashtbl.find_opt agg.spans name with Some c -> c.count | None -> 0

let counter_value agg name =
  match Hashtbl.find_opt agg.counters name with Some r -> !r | None -> 0

let gauge_value agg name = Option.map ( ! ) (Hashtbl.find_opt agg.gauges name)

let tally_value agg name =
  match Hashtbl.find_opt agg.tallies name with Some r -> !r | None -> 0

let depth_rows agg = List.rev agg.depths

let spans agg = sorted_bindings agg.spans (fun c -> (c.count, c.seconds))

let counters agg = sorted_bindings agg.counters ( ! )

let gauges agg = sorted_bindings agg.gauges ( ! )

let tallies agg = sorted_bindings agg.tallies ( ! )

let pp_report ppf agg =
  let spans = spans agg in
  Format.fprintf ppf "@[<v>== telemetry: phase breakdown ==@,";
  if spans <> [] then begin
    Format.fprintf ppf "%-22s %12s %12s@," "phase" "calls" "seconds";
    let by_time = List.sort (fun (_, (_, a)) (_, (_, b)) -> Float.compare b a) spans in
    List.iter
      (fun (name, (count, seconds)) ->
        Format.fprintf ppf "%-22s %12d %12.3f@," name count seconds)
      by_time
  end;
  let counters = counters agg in
  if counters <> [] then begin
    Format.fprintf ppf "counters:@,";
    List.iter (fun (name, v) -> Format.fprintf ppf "  %-28s %12d@," name v) counters
  end;
  let gauges = gauges agg in
  if gauges <> [] then begin
    Format.fprintf ppf "gauges:@,";
    List.iter (fun (name, v) -> Format.fprintf ppf "  %-28s %12.3f@," name v) gauges
  end;
  let tallies = tallies agg in
  if tallies <> [] then begin
    Format.fprintf ppf "events:@,";
    List.iter (fun (name, v) -> Format.fprintf ppf "  %-28s %12d@," name v) tallies
  end;
  Format.fprintf ppf "@]"

let report_to_string agg = Format.asprintf "@[<v>%a@]" pp_report agg
