module Sink = Telemetry.Sink

let version = "bmc-ledger/v1"

type depth_row = {
  l_property : string option;
  l_depth : int;
  l_mode : string;
  l_outcome : string;
  l_decisions : int;
  l_dec_rank : int;
  l_dec_vsids : int;
  l_implications : int;
  l_conflicts : int;
  l_core_clauses : int;
  l_core_vars : int;
  l_core_new : int;
  l_core_dropped : int;
  l_core_pre : int;
  l_coremin_s : float;
  l_switched : bool;
  l_build_s : float;
  l_solve_s : float;
  l_bcp_s : float;
  l_cdg_s : float;
  l_inpr_elim : int;
  l_inpr_sub : int;
  l_inpr_str : int;
  l_inpr_probe_failed : int;
  l_inpr_s : float;
}

type t = {
  schema : string;
  depths : depth_row list;
  restarts : int;
  switches : int;
}

(* ------------------------------------------------------------------ *)
(* JSON codec.  Field order below is the schema; [of_json] rebuilds the
   record field-by-field, so print -> parse -> print is the identity. *)

let depth_to_json (d : depth_row) =
  (* Core-minimisation columns are additive AND conditional: a row that
     never minimised (pre == post, no time spent) omits them, so ledgers
     written before the columns existed round-trip byte-identically. *)
  let coremin_fields =
    if d.l_core_pre <> d.l_core_clauses || d.l_coremin_s <> 0.0 then
      [ ("core_pre", Json.Int d.l_core_pre); ("coremin_s", Json.Float d.l_coremin_s) ]
    else []
  in
  (* a batch item's rows name their property; every other row omits the
     member, so single-run ledgers keep their bytes *)
  let property =
    match d.l_property with Some p -> [ ("property", Json.Str p) ] | None -> []
  in
  Json.Obj
    (property
    @ [
      ("depth", Json.Int d.l_depth);
      ("mode", Json.Str d.l_mode);
      ("outcome", Json.Str d.l_outcome);
      ("decisions", Json.Int d.l_decisions);
      ("dec_rank", Json.Int d.l_dec_rank);
      ("dec_vsids", Json.Int d.l_dec_vsids);
      ("implications", Json.Int d.l_implications);
      ("conflicts", Json.Int d.l_conflicts);
      ("core_clauses", Json.Int d.l_core_clauses);
      ("core_vars", Json.Int d.l_core_vars);
      ("core_new", Json.Int d.l_core_new);
      ("core_dropped", Json.Int d.l_core_dropped);
      ("switched", Json.Bool d.l_switched);
      ("build_s", Json.Float d.l_build_s);
      ("solve_s", Json.Float d.l_solve_s);
      ("bcp_s", Json.Float d.l_bcp_s);
      ("cdg_s", Json.Float d.l_cdg_s);
      ("inpr_elim", Json.Int d.l_inpr_elim);
      ("inpr_sub", Json.Int d.l_inpr_sub);
      ("inpr_str", Json.Int d.l_inpr_str);
      ("inpr_probe_failed", Json.Int d.l_inpr_probe_failed);
      ("inpr_s", Json.Float d.l_inpr_s);
    ]
    @ coremin_fields)

let depth_of_json j =
  {
    l_property = Option.bind (Json.member "property" j) Json.to_str;
    l_depth = Json.get_int j "depth";
    l_mode = Json.get_str j "mode";
    l_outcome = Json.get_str j "outcome";
    l_decisions = Json.get_int j "decisions";
    l_dec_rank = Json.get_int j "dec_rank";
    l_dec_vsids = Json.get_int j "dec_vsids";
    l_implications = Json.get_int j "implications";
    l_conflicts = Json.get_int j "conflicts";
    l_core_clauses = Json.get_int j "core_clauses";
    l_core_vars = Json.get_int j "core_vars";
    l_core_new = Json.get_int j "core_new";
    l_core_dropped = Json.get_int j "core_dropped";
    (* additive columns: absent unless the row minimised its core, and in
       pre-coremin ledgers; pre defaults to post so the row reads as
       "nothing minimised" *)
    l_core_pre = Json.get_int ~default:(Json.get_int j "core_clauses") j "core_pre";
    l_coremin_s = Json.get_float ~default:0.0 j "coremin_s";
    l_switched = Json.get_bool j "switched";
    l_build_s = Json.get_float j "build_s";
    l_solve_s = Json.get_float j "solve_s";
    l_bcp_s = Json.get_float j "bcp_s";
    l_cdg_s = Json.get_float j "cdg_s";
    (* additive columns: absent in pre-inprocessing ledgers, default 0 *)
    l_inpr_elim = Json.get_int ~default:0 j "inpr_elim";
    l_inpr_sub = Json.get_int ~default:0 j "inpr_sub";
    l_inpr_str = Json.get_int ~default:0 j "inpr_str";
    l_inpr_probe_failed = Json.get_int ~default:0 j "inpr_probe_failed";
    l_inpr_s = Json.get_float ~default:0.0 j "inpr_s";
  }

(* ------------------------------------------------------------------ *)
(* Reading a ledger off a telemetry aggregate: the rows are the "depth"
   events' fields, parsed as the ledger file's rows are. *)

let of_aggregate agg =
  {
    schema = version;
    depths =
      List.map (fun r -> depth_of_json (Jsonl.object_of_fields r)) (Sink.depth_rows agg);
    restarts = Sink.tally_value agg "restart";
    switches = Sink.tally_value agg "switch";
  }

let of_events events =
  let agg = Sink.aggregate () in
  List.iter (Sink.of_aggregate agg).emit events;
  of_aggregate agg

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str t.schema);
      ("depths", Json.List (List.map depth_to_json t.depths));
      ("restarts", Json.Int t.restarts);
      ("switches", Json.Int t.switches);
    ]

let of_json j =
  match Json.member "schema" j with
  | Some (Json.Str s) when s = version ->
    Ok
      {
        schema = s;
        depths = List.map depth_of_json (Json.get_list j "depths");
        restarts = Json.get_int j "restarts";
        switches = Json.get_int j "switches";
      }
  | Some (Json.Str s) -> Error (Printf.sprintf "unsupported ledger schema %S" s)
  | _ -> Error "not a ledger: missing \"schema\" member"

let to_string ?(indent = true) t = Json.to_string ~indent (to_json t)

let of_string s =
  match Json.of_string s with
  | Error e -> Error e
  | Ok j -> of_json j

(* ------------------------------------------------------------------ *)
(* Aggregate accessors. *)

let total f t = List.fold_left (fun acc d -> acc + f d) 0 t.depths

let decisions = total (fun d -> d.l_decisions)
let dec_rank = total (fun d -> d.l_dec_rank)
let dec_vsids = total (fun d -> d.l_dec_vsids)
let conflicts = total (fun d -> d.l_conflicts)

let rank_share t =
  let attributed = dec_rank t + dec_vsids t in
  if attributed = 0 then 0.0 else 100.0 *. float_of_int (dec_rank t) /. float_of_int attributed

(* ------------------------------------------------------------------ *)
(* Reports. *)

let bar width frac =
  let full = int_of_float (frac *. float_of_int width +. 0.5) in
  let full = max 0 (min width full) in
  String.make full '#' ^ String.make (width - full) ' '

let pp_depth_table ppf t =
  if t.depths = [] then Format.fprintf ppf "(no depth rows)@."
  else begin
    let maxd =
      List.fold_left (fun m d -> max m d.l_decisions) 1 t.depths |> float_of_int
    in
    Format.fprintf ppf
      "depth  outcome  mode       decisions (heat)      rank%%  implications  conflicts   core  \
       churn(+/-)   sw  build_s  solve_s    cdg_s@.";
    List.iter
      (fun d ->
        let attributed = d.l_dec_rank + d.l_dec_vsids in
        let rank_pct =
          if attributed = 0 then 0.0
          else 100.0 *. float_of_int d.l_dec_rank /. float_of_int attributed
        in
        Format.fprintf ppf
          "%5d  %-7s  %-9s  %8d %s %5.1f  %12d  %9d  %5d  %+5d/%-5d  %2s  %7.3f  %7.3f  %7.3f%s@."
          d.l_depth d.l_outcome d.l_mode d.l_decisions
          (bar 12 (float_of_int d.l_decisions /. maxd))
          rank_pct d.l_implications d.l_conflicts d.l_core_clauses d.l_core_new
          (-d.l_core_dropped)
          (if d.l_switched then "*" else "")
          d.l_build_s d.l_solve_s d.l_cdg_s
          (if d.l_core_pre <> d.l_core_clauses then
             Printf.sprintf "  [coremin %d->%d]" d.l_core_pre d.l_core_clauses
           else ""))
      t.depths;
    let seconds f = List.fold_left (fun acc d -> acc +. f d) 0.0 t.depths in
    Format.fprintf ppf "%5s  %-7s  %-9s  %8d %12s %5s  %12d  %9d  %5s  %11s  %2s  %7.3f  %7.3f  %7.3f@."
      "TOTAL" "" "" (decisions t) "" "" (total (fun d -> d.l_implications) t) (conflicts t) ""
      "" ""
      (seconds (fun d -> d.l_build_s))
      (seconds (fun d -> d.l_solve_s))
      (seconds (fun d -> d.l_cdg_s))
  end

let pp_effectiveness ppf t =
  let unsat = List.length (List.filter (fun d -> d.l_outcome = "unsat") t.depths) in
  let sat = List.length (List.filter (fun d -> d.l_outcome = "sat") t.depths) in
  let churn_new = total (fun d -> d.l_core_new) t in
  let churn_dropped = total (fun d -> d.l_core_dropped) t in
  let switched = List.length (List.filter (fun d -> d.l_switched) t.depths) in
  Format.fprintf ppf "ordering effectiveness (%s)@." t.schema;
  Format.fprintf ppf "  depths solved     : %d (unsat %d, sat %d)@."
    (List.length t.depths) unsat sat;
  Format.fprintf ppf "  decisions         : %d (rank-guided %.1f%%, vsids %.1f%%)@."
    (decisions t) (rank_share t)
    (if dec_rank t + dec_vsids t = 0 then 0.0 else 100.0 -. rank_share t);
  Format.fprintf ppf "  conflicts         : %d@." (conflicts t);
  Format.fprintf ppf "  restarts          : %d@." t.restarts;
  Format.fprintf ppf "  dynamic fallbacks : %d switch event(s), %d/%d depths switched@."
    t.switches switched (List.length t.depths);
  Format.fprintf ppf "  core churn        : +%d / -%d vars across %d unsat depth(s)@."
    churn_new churn_dropped unsat;
  (let elim = total (fun d -> d.l_inpr_elim) t
   and sub = total (fun d -> d.l_inpr_sub) t
   and str = total (fun d -> d.l_inpr_str) t
   and probes = total (fun d -> d.l_inpr_probe_failed) t in
   if elim + sub + str + probes > 0 then
     Format.fprintf ppf
       "  inprocessing      : eliminated %d vars, subsumed %d, strengthened %d, failed probes %d@."
       elim sub str probes);
  (let pre = total (fun d -> d.l_core_pre) t
   and post = total (fun d -> d.l_core_clauses) t
   and cm_s = List.fold_left (fun acc d -> acc +. d.l_coremin_s) 0.0 t.depths in
   if pre <> post || cm_s > 0.0 then
     Format.fprintf ppf "  core minimisation : %d -> %d clauses (%.3fs)@." pre post cm_s);
  if t.depths <> [] then begin
    Format.fprintf ppf "  rank share by depth :";
    List.iter
      (fun d ->
        let attributed = d.l_dec_rank + d.l_dec_vsids in
        let pct =
          if attributed = 0 then 0.0
          else 100.0 *. float_of_int d.l_dec_rank /. float_of_int attributed
        in
        Format.fprintf ppf " d%d %.0f%%" d.l_depth pct)
      t.depths;
    Format.fprintf ppf "@."
  end

(* ------------------------------------------------------------------ *)
(* Diff. *)

type severity = Fail | Warn

type finding = { severity : severity; message : string }

let pct_drift a b =
  if a = 0 && b = 0 then 0.0
  else if a = 0 then infinity
  else 100.0 *. Float.abs (float_of_int (b - a)) /. float_of_int a

let diff ?(warn_pct = 25.0) (a : t) (b : t) =
  let findings = ref [] in
  let add severity fmt =
    Printf.ksprintf (fun message -> findings := { severity; message } :: !findings) fmt
  in
  (* Several rows can share a depth and a mode: an induction ledger's step
     and base rows, a batch's properties.  Rows pair by (property, depth,
     mode, occurrence index), so identical ledgers always diff clean and a
     batch's rows meet their own property's whatever order the items
     finished in. *)
  let keyed depths =
    let seen = Hashtbl.create 16 in
    List.map
      (fun d ->
        let k = (d.l_property, d.l_depth, d.l_mode) in
        let n = Option.value ~default:0 (Hashtbl.find_opt seen k) in
        Hashtbl.replace seen k (n + 1);
        ((d.l_property, d.l_depth, d.l_mode, n), d))
      depths
  in
  let tbl_a = keyed a.depths in
  let tbl_b = keyed b.depths in
  let where d =
    match d.l_property with
    | Some p -> Printf.sprintf "%s depth %d" p d.l_depth
    | None -> Printf.sprintf "depth %d" d.l_depth
  in
  List.iter
    (fun (key, da) ->
      let at = where da in
      match List.assoc_opt key tbl_b with
      | None -> add Warn "%s present only in baseline" at
      | Some db ->
        if da.l_outcome <> db.l_outcome then
          add Fail "%s outcome changed: %s -> %s" at da.l_outcome db.l_outcome;
        if pct_drift da.l_decisions db.l_decisions > warn_pct then
          add Warn "%s decisions drifted %d -> %d (>%.0f%%)" at da.l_decisions
            db.l_decisions warn_pct;
        if pct_drift da.l_conflicts db.l_conflicts > warn_pct then
          add Warn "%s conflicts drifted %d -> %d (>%.0f%%)" at da.l_conflicts
            db.l_conflicts warn_pct;
        if
          da.l_core_clauses > 0
          && db.l_core_clauses > da.l_core_clauses
          && pct_drift da.l_core_clauses db.l_core_clauses > warn_pct
        then
          add Warn "%s core grew %d -> %d clauses (>%.0f%%)" at da.l_core_clauses
            db.l_core_clauses warn_pct;
        if da.l_switched <> db.l_switched then
          add Warn "%s dynamic fallback %s" at
            (if db.l_switched then "now fires" else "no longer fires"))
    tbl_a;
  List.iter
    (fun (key, db) ->
      if not (List.mem_assoc key tbl_a) then add Warn "%s present only in candidate" (where db))
    tbl_b;
  let ra = rank_share a and rb = rank_share b in
  if Float.abs (ra -. rb) > 10.0 then
    add Warn "rank-guided decision share moved %.1f%% -> %.1f%%" ra rb;
  List.rev !findings

let pp_finding ppf f =
  Format.fprintf ppf "%s %s"
    (match f.severity with Fail -> "FAIL" | Warn -> "WARN")
    f.message
