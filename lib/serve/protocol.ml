module Json = Obs.Json
module Session = Bmc.Session

type circuit_src =
  | Builtin of string
  | Inline of string

type request = {
  rq_id : string;
  rq_src : circuit_src;
  rq_depth : int;
  rq_mode : Session.mode option;
  rq_deadline_ms : float option;
  rq_stats : bool;
}

type cache_class =
  | Hit
  | Warm
  | Miss

let cache_class_string = function
  | Hit -> "hit"
  | Warm -> "warm"
  | Miss -> "miss"

type verdict_summary =
  | Falsified of int * Json.t
  | Bounded_pass of int
  | Aborted of int

type body = {
  rs_verdict : verdict_summary;
  rs_cache : cache_class;
  rs_solved : int;
  rs_decisions : int;
  rs_conflicts : int;
  rs_core : Sat.Lit.var list;
}

type reply =
  | Answer of body
  | Shed
  | Draining
  | Bad_request of string

type response = {
  rs_id : string;
  rs_reply : reply;
  rs_queue_ms : float;
  rs_wall_ms : float;
}

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let request_of_json j =
  match j with
  | Json.Obj _ -> (
    let id = Json.get_str ~default:"" j "id" in
    let src =
      match (Json.member "builtin" j, Json.member "circuit" j) with
      | Some (Json.Str name), None -> Ok (Builtin name)
      | None, Some (Json.Str text) -> Ok (Inline text)
      | Some _, Some _ -> Error "request has both \"builtin\" and \"circuit\""
      | _ -> Error "request needs a \"builtin\" name or an inline \"circuit\""
    in
    match src with
    | Error _ as e -> e
    | Ok rq_src -> (
      match Json.member "depth" j with
      | Some (Json.Int d) when d >= 0 -> (
        let mode =
          match Json.member "mode" j with
          | None -> Ok None
          | Some (Json.Str m) -> (
            match Ordering.mode_of_name m with
            | Some m -> Ok (Some m)
            | None ->
              Error
                (Printf.sprintf "unknown mode %S (available: %s)" m
                   (String.concat "|" (Ordering.names ()))))
          | Some _ -> Error "\"mode\" must be a string"
        in
        match mode with
        | Error _ as e -> e
        | Ok rq_mode ->
          let rq_deadline_ms =
            match Json.member "deadline_ms" j with
            | Some v -> Json.to_float v
            | None -> None
          in
          Ok
            {
              rq_id = id;
              rq_src;
              rq_depth = d;
              rq_mode;
              rq_deadline_ms;
              rq_stats = Json.get_bool ~default:false j "stats";
            })
      | Some _ -> Error "\"depth\" must be a non-negative integer"
      | None -> Error "request needs a \"depth\""))
  | _ -> Error "request is not a JSON object"

let request_of_line line =
  match Json.of_string line with
  | Error msg -> Error ("bad JSON: " ^ msg)
  | Ok j -> request_of_json j

let request_to_json rq =
  let fields = [ ("id", Json.Str rq.rq_id) ] in
  let fields =
    fields
    @ (match rq.rq_src with
      | Builtin name -> [ ("builtin", Json.Str name) ]
      | Inline text -> [ ("circuit", Json.Str text) ])
    @ [ ("depth", Json.Int rq.rq_depth) ]
    @ (match rq.rq_mode with
      | Some m -> [ ("mode", Json.Str (Session.mode_string m)) ]
      | None -> [])
    @ (match rq.rq_deadline_ms with
      | Some ms -> [ ("deadline_ms", Json.Float ms) ]
      | None -> [])
    @ if rq.rq_stats then [ ("stats", Json.Bool true) ] else []
  in
  Json.Obj fields

let request_line rq = Json.to_string (request_to_json rq)

let rejection ~line msg =
  let rs_id = match Json.of_string line with Ok j -> Json.get_str j "id" | Error _ -> "" in
  { rs_id; rs_reply = Bad_request msg; rs_queue_ms = 0.0; rs_wall_ms = 0.0 }

(* ------------------------------------------------------------------ *)
(* Traces                                                              *)
(* ------------------------------------------------------------------ *)

let node_label netlist n =
  match Circuit.Netlist.name_of netlist n with
  | Some s -> s
  | None -> "#" ^ string_of_int n

let assignment_json netlist l =
  Json.List
    (List.map
       (fun (n, b) -> Json.List [ Json.Str (node_label netlist n); Json.Bool b ])
       l)

let trace_to_json netlist (tr : Bmc.Trace.t) =
  Json.Obj
    [
      ("depth", Json.Int tr.Bmc.Trace.depth);
      ("init", assignment_json netlist tr.Bmc.Trace.init_regs);
      ( "frames",
        Json.List
          (Array.to_list (Array.map (assignment_json netlist) tr.Bmc.Trace.inputs)) );
    ]

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let verdict_fields = function
  | Falsified (d, trace) ->
    [ ("verdict", Json.Str "falsified"); ("depth", Json.Int d); ("trace", trace) ]
  | Bounded_pass d -> [ ("verdict", Json.Str "bounded_pass"); ("depth", Json.Int d) ]
  | Aborted d -> [ ("verdict", Json.Str "aborted"); ("depth", Json.Int d) ]

let response_to_json rs =
  let status, rest =
    match rs.rs_reply with
    | Answer b ->
      ( "ok",
        verdict_fields b.rs_verdict
        @ [
            ("cache", Json.Str (cache_class_string b.rs_cache));
            ("solved", Json.Int b.rs_solved);
            ("decisions", Json.Int b.rs_decisions);
            ("conflicts", Json.Int b.rs_conflicts);
          ]
        @
        if b.rs_core = [] then []
        else [ ("core", Json.List (List.map (fun v -> Json.Int v) b.rs_core)) ] )
    | Shed -> ("shed", [])
    | Draining -> ("draining", [])
    | Bad_request msg -> ("error", [ ("error", Json.Str msg) ])
  in
  Json.Obj
    ([ ("id", Json.Str rs.rs_id); ("status", Json.Str status) ]
    @ rest
    @ [
        ("queue_ms", Json.Float rs.rs_queue_ms); ("wall_ms", Json.Float rs.rs_wall_ms);
      ])

let response_line rs = Json.to_string (response_to_json rs)

let response_of_json j =
  match j with
  | Json.Obj _ -> (
    let id = Json.get_str ~default:"" j "id" in
    let queue_ms = Json.get_float ~default:0.0 j "queue_ms" in
    let wall_ms = Json.get_float ~default:0.0 j "wall_ms" in
    let mk reply = Ok { rs_id = id; rs_reply = reply; rs_queue_ms = queue_ms; rs_wall_ms = wall_ms } in
    match Json.get_str ~default:"" j "status" with
    | "shed" -> mk Shed
    | "draining" -> mk Draining
    | "error" -> mk (Bad_request (Json.get_str ~default:"" j "error"))
    | "ok" -> (
      let depth = Json.get_int ~default:0 j "depth" in
      let verdict =
        match Json.get_str ~default:"" j "verdict" with
        | "falsified" ->
          Ok
            (Falsified
               (depth, match Json.member "trace" j with Some t -> t | None -> Json.Null))
        | "bounded_pass" -> Ok (Bounded_pass depth)
        | "aborted" -> Ok (Aborted depth)
        | v -> Error (Printf.sprintf "unknown verdict %S" v)
      in
      let cache =
        match Json.get_str ~default:"" j "cache" with
        | "hit" -> Ok Hit
        | "warm" -> Ok Warm
        | "miss" -> Ok Miss
        | c -> Error (Printf.sprintf "unknown cache class %S" c)
      in
      match (verdict, cache) with
      | Ok rs_verdict, Ok rs_cache ->
        mk
          (Answer
             {
               rs_verdict;
               rs_cache;
               rs_solved = Json.get_int ~default:0 j "solved";
               rs_decisions = Json.get_int ~default:0 j "decisions";
               rs_conflicts = Json.get_int ~default:0 j "conflicts";
               rs_core =
                 List.filter_map Json.to_int (Json.get_list j "core");
             })
      | (Error _ as e), _ | _, (Error _ as e) -> e)
    | s -> Error (Printf.sprintf "unknown status %S" s))
  | _ -> Error "response is not a JSON object"

(* ------------------------------------------------------------------ *)
(* Ledger                                                              *)
(* ------------------------------------------------------------------ *)

let ledger_line ~digest ~t_ms rq rs =
  let resp = response_to_json rs in
  let resp_fields = match resp with Json.Obj f -> f | _ -> assert false in
  (* the trace can be large; the ledger keeps the verdict, not the witness *)
  let resp_fields = List.filter (fun (k, _) -> k <> "trace") resp_fields in
  Json.Obj
    (resp_fields
    @ [
        ("digest", Json.Str digest);
        ("req_depth", Json.Int rq.rq_depth);
        ("t_ms", Json.Float t_ms);
      ])
