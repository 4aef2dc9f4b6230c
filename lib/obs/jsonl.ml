module Sink = Telemetry.Sink

let json_of_value : Sink.value -> Json.t = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Bool b -> Json.Bool b
  | Str s -> Json.Str s

let value_of_json : Json.t -> Sink.value option = function
  | Json.Int i -> Some (Int i)
  | Json.Float f -> Some (Float f)
  | Json.Bool b -> Some (Bool b)
  | Json.Str s -> Some (Str s)
  | Json.Null | Json.List _ | Json.Obj _ -> None

let fields_json fields = List.map (fun (k, v) -> (k, json_of_value v)) fields

let to_line (e : Sink.event) =
  Json.to_string
    (Json.Obj (("ts", Json.Float e.ts) :: ("ev", Json.Str e.kind) :: fields_json e.fields))

let of_line line =
  match Json.of_string line with
  | Error msg -> Error msg
  | Ok (Json.Obj kvs) -> (
    let scalar (k, j) = Option.map (fun v -> (k, v)) (value_of_json j) in
    let fields = List.filter_map scalar kvs in
    if List.compare_lengths fields kvs <> 0 then Error "nested value in a trace event"
    else
      match (Sink.find_float fields "ts", Sink.find_str fields "ev") with
      | None, _ -> Error "missing ts"
      | _, None -> Error "missing ev"
      | Some ts, Some kind ->
        let fields = List.filter (fun (k, _) -> k <> "ts" && k <> "ev") fields in
        Ok { Sink.ts; kind; fields })
  | Ok _ -> Error "not a JSON object"

let events_of_string s =
  String.split_on_char '\n' s
  |> List.filter (fun line -> String.trim line <> "")
  |> List.map (fun line ->
         match of_line line with
         | Ok e -> e
         | Error msg -> failwith (Printf.sprintf "%s in %S" msg line))

let of_channel oc =
  Sink.locked
    {
      Sink.emit =
        (fun e ->
          output_string oc (to_line e);
          output_char oc '\n');
      flush = (fun () -> flush oc);
    }

let aggregate_to_json agg =
  let table f rows = Json.Obj (List.map (fun (name, v) -> (name, f v)) rows) in
  Json.Obj
    [
      ( "spans",
        table
          (fun (count, seconds) ->
            Json.Obj [ ("count", Json.Int count); ("seconds", Json.Float seconds) ])
          (Sink.spans agg) );
      ("counters", table (fun v -> Json.Int v) (Sink.counters agg));
      ("gauges", table (fun v -> Json.Float v) (Sink.gauges agg));
      ("events", table (fun v -> Json.Int v) (Sink.tallies agg));
      ( "depths",
        Json.List (List.map (fun row -> Json.Obj (fields_json row)) (Sink.depth_rows agg)) );
    ]
