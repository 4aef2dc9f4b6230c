(* What a run reports: the human-readable table on standard output, then,
   as the very last line, one JSON object with the gated metrics. *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
}

let m name unit_ value = { name; value; unit_ }

type result = {
  workload : string;
  seed : int;
  attempted : int;
  failed : int;  (** aborted, shed, errored or refused units of work *)
  wrong : string list;  (** verdicts that disagree with the generator *)
  gated : metric list;
      (** the JSON line's metrics: end-to-end untraced, per-layer traced *)
  shown : metric list;  (** further metrics printed in the table only *)
  notes : string list;  (** sample counts, the layer table, tracing overhead *)
}

let json_line r =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("correct", Obs.Json.Bool (r.wrong = []));
         ("attempted", Obs.Json.Int r.attempted);
         ("failed", Obs.Json.Int r.failed);
         ( "metrics",
           Obs.Json.Obj
             (List.map
                (fun x ->
                  (x.name, Obs.Json.Obj [ ("value", Obs.Json.Float x.value); ("unit", Obs.Json.Str x.unit_) ]))
                r.gated) );
       ])

let print oc r =
  Printf.fprintf oc "workload %s  seed %d  attempted %d  failed %d  fail_frac %.4f\n" r.workload
    r.seed r.attempted r.failed
    (if r.attempted = 0 then 0.0 else float_of_int r.failed /. float_of_int r.attempted);
  List.iter (fun w -> Printf.fprintf oc "WRONG VERDICT: %s\n" w) r.wrong;
  List.iter (fun x -> Printf.fprintf oc "  %-28s %14.6g %s\n" x.name x.value x.unit_) (r.gated @ r.shown);
  List.iter (fun l -> Printf.fprintf oc "%s\n" l) r.notes;
  Printf.fprintf oc "%s\n%!" (json_line r)

(* Every per-layer metric, in print order.  Each workload reports all of
   them; a layer the workload bypasses reads 0, which is itself the
   prediction for that workload. *)
let per_layer_spec =
  [
    ("sat.search_ms", "ms");
    ("sat.bcp_ms", "ms");
    ("sat.cdg_ms", "ms");
    ("sat.cdg_share", "ratio");
    ("sat.decisions", "count");
    ("sat.implications", "count");
    ("sat.conflicts", "count");
    ("sat.mprops_per_s", "Mprop/s");
    ("sat.load_ms", "ms");
    ("bmc.create_ms", "ms");
    ("bmc.begin_ms", "ms");
    ("bmc.constrain_ms", "ms");
    ("unroll.clauses_loaded", "count");
    ("ordering.refresh_ms", "ms");
    ("ordering.rank_share", "ratio");
    ("ordering.switch_frac", "ratio");
    ("core.carry", "ratio");
    ("core.extract_ms", "ms");
    ("inprocess.ms", "ms");
    ("inprocess.eliminated", "count");
    ("coremin.ms", "ms");
    ("coremin.shrink", "ratio");
    ("coremin.certified_frac", "ratio");
    ("trace.replay_ms", "ms");
    ("circuit.parse_ms", "ms");
    ("circuit.digest_ms", "ms");
    ("protocol.decode_us", "us");
    ("protocol.encode_us", "us");
    ("serve.submit_ms", "ms");
    ("serve.process_ms", "ms");
    ("cache.hit_frac", "ratio");
    ("cache.warm_frac", "ratio");
    ("cache.miss_frac", "ratio");
    ("cache.evicted", "count");
    ("cache.resident_mb", "MB");
    ("serve.queue_ms_p50", "ms");
    ("serve.queue_ms_p95", "ms");
    ("serve.service_ms_p50", "ms");
    ("serve.service_ms_p95", "ms");
    ("gen.late_ms_p95", "ms");
    ("serve.req_ms_p50.low", "ms");
    ("serve.req_ms_p95.low", "ms");
    ("serve.req_ms_p50.high", "ms");
    ("serve.req_ms_p95.high", "ms");
    ("serve.max_rps", "1/s");
    ("circuit.alloc_mb", "MB");
    ("bmc.alloc_mb", "MB");
    ("serve.alloc_mb", "MB");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("bench.traced_ms", "ms");
    ("bench.unattributed_ms", "ms");
    ("bench.trace_overhead_pct", "%");
    ("bench.untraced_spread_pct", "%");
  ]

let per_layer values =
  List.iter
    (fun (name, _) -> if not (List.mem_assoc name per_layer_spec) then invalid_arg ("Report.per_layer: " ^ name))
    values;
  List.map
    (fun (name, unit_) -> m name unit_ (Option.value ~default:0.0 (List.assoc_opt name values)))
    per_layer_spec

(* ------------------------------------------------------------------ *)
(* The layer table                                                      *)
(* ------------------------------------------------------------------ *)

(* Which layer a span's self time belongs to.  Roots ("check") and the
   front end's idle wait are not layers. *)
let layer_of = function
  | "circuit.parse" | "circuit.digest" -> Some "circuit"
  | "bmc.create" | "bmc.begin" | "bmc.constrain" | "bmc.solve" | "ordering.refresh" | "bmc.trace"
  | "trace.replay" ->
    Some "bmc"
  | "sat.load" | "sat.search" | "sat.bcp" | "sat.cdg" | "inprocess" | "coremin" -> Some "sat"
  | "protocol.decode" | "protocol.encode" | "serve.submit" | "serve.process" -> Some "serve"
  | _ -> None

let layers = [ "circuit"; "bmc"; "sat"; "serve" ]

(* Self seconds and self bytes per layer. *)
let layer_totals by_name =
  List.map
    (fun layer ->
      let s, a =
        Hashtbl.fold
          (fun name (st, sa, _) (s, a) -> if layer_of name = Some layer then (s +. st, a +. sa) else (s, a))
          by_name (0.0, 0.0)
      in
      (layer, s, a))
    layers

(* Each layer's self time next to the traced wall it belongs to, with the
   dominant layer named and what no layer accounts for printed as the
   remainder.  [idle] is wall time the caller spent waiting, not working. *)
let layer_table ~wall ~units ?(idle = 0.0) ~gc by_name =
  let per x = x /. float_of_int (max 1 units) in
  let totals = layer_totals by_name in
  let attributed = List.fold_left (fun acc (_, s, _) -> acc +. s) 0.0 totals in
  let rest = wall -. attributed -. idle in
  let dominant, _, _ =
    List.fold_left (fun ((_, bs, _) as best) ((_, s, _) as x) -> if s > bs then x else best) ("-", 0.0, 0.0) totals
  in
  let share s = if wall > 0.0 then 100.0 *. s /. wall else 0.0 in
  let row name s a =
    Printf.sprintf "  %-12s %10.3f ms %6.1f %% %10.3f MB" name (1000.0 *. per s) (share s) (per a /. 1e6)
  in
  [ Printf.sprintf "layer table (per unit of work, %d units, traced wall %.3f s):" units wall ]
  @ List.map (fun (l, s, a) -> row l s a) totals
  @ (if idle > 0.0 then [ Printf.sprintf "  %-12s %10.3f ms %6.1f %%" "idle" (1000.0 *. per idle) (share idle) ] else [])
  @ [
      Printf.sprintf "  %-12s %10.3f ms %6.1f %%" "unattributed" (1000.0 *. per rest) (share rest);
      Printf.sprintf "  %-12s %13s %8s %10.3f MB  (%s; GC time is inside the layers)" "gc" "-" "-"
        (per (snd gc) /. 1e6) (fst gc);
      Printf.sprintf "  dominant layer: %s" dominant;
    ]

(* The tracing-overhead line: traced against untraced passes of the same
   inputs in the same process, next to the untraced passes' own spread. *)
let overhead_line ~untraced ~traced =
  match (untraced, traced) with
  | [], _ | _, [] -> ("tracing overhead: not measured (needs an untraced and a traced pass)", 0.0, 0.0)
  | u, t ->
    let mu = Stats.median u and mt = Stats.median t in
    let pct = 100.0 *. ((mt /. mu) -. 1.0) in
    let spread = 100.0 *. Stats.rel_iqr u in
    ( Printf.sprintf
        "tracing overhead: %+.2f %% (traced %.4f s vs untraced %.4f s per pass, medians of %d/%d \
         passes); untraced pass spread (IQR/median) %.2f %%"
        pct mt mu (List.length t) (List.length u) spread,
      pct,
      spread )
