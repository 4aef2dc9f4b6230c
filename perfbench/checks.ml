(* The check workloads: [prove], [falsify] and [prove-inpr].

   One caller checks properties back to back (a closed loop), exactly as
   [bmccheck] would: parse the [.rnl] text, then run the session check
   loop.  The untraced loop calls {!Bmc.Session.check} itself; the traced
   loop drives the same public calls [Session.check] makes, one span
   around each, and reads every instance's [depth_stat] counters. *)

module Session = Bmc.Session

type kind =
  | Prove
  | Falsify
  | Prove_inpr

let policy = function Falsify -> Session.Fresh | Prove | Prove_inpr -> Session.Persistent

(* The one-time set-up before the first check: the ordering resolves
   through the heuristic registry exactly as the CLIs resolve [--mode], and
   [prove-inpr] adds the default inprocessing preset and core minimisation
   under a solve-count budget. *)
let config ?(telemetry = Telemetry.disabled) kind =
  let mode =
    match Ordering.mode_of_name "dynamic" with
    | Some m -> m
    | None -> failwith "perfbench: ordering registry has no \"dynamic\" heuristic"
  in
  match kind with
  | Prove | Falsify -> Session.make_config ~mode ~telemetry ()
  | Prove_inpr ->
    Session.make_config ~mode ~inprocess:Sat.Inprocess.default ~core_mode:Session.Core_minimal
      ~coremin_budget:{ Sat.Coremin.no_budget with Sat.Coremin.max_solves = Some 8 }
      ~telemetry ()

type outcome =
  | Correct
  | Aborted  (** budget exhausted: counted as failed, not wrong *)
  | Wrong of string

(* The correctness gate: a holding property must pass to exactly its
   bound, a failing one must fail at exactly its depth with a trace that
   replays on the circuit. *)
let judge (item : Gen.item) nl prop (v : Session.verdict) =
  match (item.Gen.expect, v) with
  | _, Session.Aborted _ -> Aborted
  | Gen.Holds, Session.Bounded_pass d when d = item.Gen.depth -> Correct
  | Gen.Fails_at f, Session.Falsified tr when tr.Bmc.Trace.depth = f ->
    if Bmc.Trace.replay tr nl ~property:prop then Correct
    else Wrong (item.Gen.label ^ ": counterexample does not replay")
  | _, v -> Wrong (Format.asprintf "%s: unexpected verdict %a" item.Gen.label Session.pp_verdict v)

let check_once cfg kind (item : Gen.item) =
  let nl, prop = Circuit.Textio.parse_string item.Gen.text in
  let r =
    Session.check ~config:{ cfg with Session.max_depth = item.Gen.depth } ~policy:(policy kind) nl
      ~property:prop
  in
  (nl, prop, r.Session.verdict)

(* ------------------------------------------------------------------ *)
(* Per-check counters read from [depth_stat] in the traced loop          *)
(* ------------------------------------------------------------------ *)

type counters = {
  mutable instances : int;
  mutable decisions : int;
  mutable dec_rank : int;
  mutable implications : int;
  mutable conflicts : int;
  mutable switched : int;
  mutable search_s : float;
  mutable bcp_s : float;
  mutable cdg_s : float;
  mutable core_new : int;
  mutable core_vars : int;  (** core variables of UNSAT instances past the first *)
  mutable core_pre : int;
  mutable core_post : int;
  mutable coremin_runs : int;
  mutable coremin_certified : int;
  mutable inpr_elim : int;
  mutable clauses_loaded : int;
}

let counters () =
  {
    instances = 0;
    decisions = 0;
    dec_rank = 0;
    implications = 0;
    conflicts = 0;
    switched = 0;
    search_s = 0.0;
    bcp_s = 0.0;
    cdg_s = 0.0;
    core_new = 0;
    core_vars = 0;
    core_pre = 0;
    core_post = 0;
    coremin_runs = 0;
    coremin_certified = 0;
    inpr_elim = 0;
    clauses_loaded = 0;
  }

(* Core variables of [cur] that were not in [prev]. *)
let core_new ~prev cur =
  let seen = Hashtbl.create 256 in
  List.iter (fun v -> Hashtbl.replace seen v ()) prev;
  List.length (List.sort_uniq Int.compare (List.filter (fun v -> not (Hashtbl.mem seen v)) cur))

let count c (d : Session.depth_stat) =
  c.instances <- c.instances + 1;
  c.decisions <- c.decisions + d.Session.decisions;
  c.dec_rank <- c.dec_rank + d.Session.dec_rank;
  c.implications <- c.implications + d.Session.implications;
  c.conflicts <- c.conflicts + d.Session.conflicts;
  if d.Session.switched then c.switched <- c.switched + 1;
  c.search_s <- c.search_s +. d.Session.time;
  c.bcp_s <- c.bcp_s +. d.Session.bcp_time;
  c.cdg_s <- c.cdg_s +. d.Session.cdg_time;
  if d.Session.coremin_time > 0.0 then begin
    c.coremin_runs <- c.coremin_runs + 1;
    c.core_pre <- c.core_pre + d.Session.core_pre;
    c.core_post <- c.core_post + d.Session.core_size;
    if d.Session.coremin_certified then c.coremin_certified <- c.coremin_certified + 1
  end;
  c.inpr_elim <- c.inpr_elim + d.Session.inpr_elim

(* One check through the same public calls [Session.check] makes, with a
   span around each.  Durations the library reports itself become derived
   children: inprocessing inside [begin_instance]; the ordering refresh (or,
   under [Fresh], the per-depth solver load), search with its BCP and CDG
   shares, and core minimisation inside [solve_instance].  What is left of
   the [solve_instance] span is core extraction and bookkeeping.

   Core carry-over is measured here from {!Session.last_core_vars}: the
   session's own [core_new] is diffed after [begin_instance] has already
   cleared the previous core, so it always equals [core_var_count]. *)
let check_traced tr c cfg kind ~req (item : Gen.item) =
  let span name f = Tracer.span tr name f in
  Tracer.span tr ~req "check" (fun () ->
      let nl, prop = span "circuit.parse" (fun () -> Circuit.Textio.parse_string item.Gen.text) in
      let cfg = { cfg with Session.max_depth = item.Gen.depth } in
      let pol = policy kind in
      let s = span "bmc.create" (fun () -> Session.create ~policy:pol cfg nl ~property:prop) in
      let prev_core = ref None in
      let rec loop k =
        if k > cfg.Session.max_depth then Session.Bounded_pass cfg.Session.max_depth
        else begin
          let t0 = Clock.now () in
          span "bmc.begin" (fun () -> Session.begin_instance s ~k);
          let begin_id = Tracer.last_closed tr in
          span "bmc.constrain" (fun () ->
              Session.constrain s [ Sat.Lit.neg (Session.var_of s ~node:prop ~frame:k) ]);
          let t2 = Clock.now () in
          if pol = Session.Fresh then
            c.clauses_loaded <- c.clauses_loaded + Bmc.Unroll.num_base_clauses (Session.unroll s);
          let d =
            span "bmc.solve" (fun () ->
                let d = Session.solve_instance s in
                let prep = Float.max 0.0 (d.Session.build_time -. (t2 -. t0)) in
                Tracer.derive tr
                  [
                    Tracer.Part ((if pol = Session.Fresh then "sat.load" else "ordering.refresh"), prep, []);
                    Tracer.Part
                      ( "sat.search",
                        d.Session.time,
                        [
                          Tracer.Part ("sat.bcp", d.Session.bcp_time, []);
                          Tracer.Part ("sat.cdg", d.Session.cdg_time, []);
                        ] );
                    Tracer.Part ("coremin", d.Session.coremin_time, []);
                  ];
                d)
          in
          if d.Session.inpr_time > 0.0 then
            Tracer.derive ~parent:begin_id tr [ Tracer.Part ("inprocess", d.Session.inpr_time, []) ];
          count c d;
          if d.Session.outcome = Sat.Solver.Unsat && d.Session.core_var_count > 0 then begin
            let cur = Session.last_core_vars s in
            (match !prev_core with
            | Some prev ->
              c.core_new <- c.core_new + core_new ~prev cur;
              c.core_vars <- c.core_vars + List.length (List.sort_uniq Int.compare cur)
            | None -> ());
            prev_core := Some cur
          end;
          match d.Session.outcome with
          | Sat.Solver.Sat ->
            let trc = span "bmc.trace" (fun () -> Session.trace s) in
            if not (span "trace.replay" (fun () -> Bmc.Trace.replay trc nl ~property:prop)) then
              failwith (item.Gen.label ^ ": counterexample failed to replay");
            Session.Falsified trc
          | Sat.Solver.Unsat -> loop (k + 1)
          | Sat.Solver.Unknown -> Session.Aborted k
        end
      in
      let v = loop 0 in
      if pol = Session.Persistent then
        c.clauses_loaded <- c.clauses_loaded + Session.loaded_clauses s;
      (nl, prop, v))

(* ------------------------------------------------------------------ *)
(* The workload runner                                                  *)
(* ------------------------------------------------------------------ *)

let name = function Prove -> "prove" | Falsify -> "falsify" | Prove_inpr -> "prove-inpr"

let inputs kind ~seed ~scale =
  match kind with
  | Prove -> Gen.prove ~seed ~scale
  | Falsify -> Gen.falsify ~seed ~scale
  | Prove_inpr -> Gen.prove_inpr ~seed ~scale

let now = Clock.now

(* One set-up takes microseconds and its cost varies with the input's
   shape.  So set-ups are timed in batches of [setup_batch], one batch on
   each of the first [setup_inputs] inputs (every family), each freshly
   parsed; setup_s is the median batch's time per set-up.  The batches run
   after the timed checks: run between checks, their garbage changed the
   heap the checks run on, which moved falsify's and prove-inpr's check
   latencies by up to a third. *)
let setup_batch = 40

let setup_inputs = 31

(* A pass checks every input once.  Only the checks are timed: verifying a
   verdict happens between them, off the clock. *)
type pass = {
  walls : float list;  (** seconds per check *)
  alloc : float;  (** bytes allocated by the checks *)
}

let pass_wall p = List.fold_left ( +. ) 0.0 p.walls

let run kind ~seed ~seconds ~scale ~traced ?(spans_out = fun _ -> ()) () =
  let items = inputs kind ~seed ~scale in
  let wrong = ref [] and failed = ref 0 and attempted = ref 0 in
  let verify item (nl, prop, v) =
    incr attempted;
    match judge item nl prop v with
    | Correct -> ()
    | Aborted -> incr failed
    | Wrong msg -> wrong := msg :: !wrong
  in
  (* The one-time set-up before a check, as [bmccheck] does it: the
     configuration through the registry and [Session.create] on the parsed
     input.  Parsing is the check's own work and stays off this clock. *)
  let setups = ref [] in
  let time_setup (item : Gen.item) =
    let nl, prop = Circuit.Textio.parse_string item.Gen.text in
    let t0 = now () in
    for _ = 1 to setup_batch do
      let cfg = config kind in
      ignore
        (Session.create ~policy:(policy kind) { cfg with Session.max_depth = item.Gen.depth } nl
           ~property:prop)
    done;
    setups := ((now () -. t0) /. float_of_int setup_batch) :: !setups
  in
  let cfg = config kind in
  (* A pass stops early once [until] has passed. *)
  let untraced_pass ?(until = Float.infinity) () =
    let alloc = ref 0.0 and walls = ref [] in
    (try
       List.iter
         (fun item ->
           if now () >= until then raise Exit;
           let a0 = Gc.allocated_bytes () in
           let t0 = now () in
           let r = check_once cfg kind item in
           let dt = now () -. t0 in
           alloc := !alloc +. (Gc.allocated_bytes () -. a0);
           verify item r;
           walls := dt :: !walls)
         items
     with Exit -> ());
    { walls = List.rev !walls; alloc = !alloc }
  in
  let start = now () in
  let elapsed () = now () -. start in
  if not traced then begin
    (* the first pass checks every input; later ones end with the run *)
    let until = start +. seconds in
    let rec loop acc =
      if acc <> [] && elapsed () >= seconds then acc else loop (untraced_pass ~until () :: acc)
    in
    let passes = loop [ untraced_pass () ] in
    List.iteri (fun i item -> if i < setup_inputs then time_setup item) items;
    let walls = List.concat_map (fun p -> p.walls) passes in
    let n = List.length walls in
    let alloc = List.fold_left (fun a p -> a +. p.alloc) 0.0 passes in
    let ms = List.map (fun w -> 1000.0 *. w) walls in
    let st = Gc.quick_stat () in
    {
      Report.workload = name kind;
      seed;
      attempted = !attempted;
      failed = !failed;
      wrong = List.rev !wrong;
      gated =
        [
          Report.m "checks_per_s" "1/s" (float_of_int n /. List.fold_left ( +. ) 0.0 walls);
          Report.m "check_ms_p50" "ms" (Stats.median ms);
          Report.m "check_ms_p90" "ms" (Stats.percentile ms 90.0);
          Report.m "alloc_mb" "MB" (alloc /. float_of_int n /. 1e6);
          Report.m "peak_heap_mb" "MB" (float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
          Report.m "setup_s" "s" (Stats.median !setups);
        ];
      shown = [];
      notes =
        [
          Printf.sprintf
            "closed loop, one caller: %d checks in %d passes over %d inputs; checks_per_s is the \
             checks over their summed wall time; p90 has %d samples beyond it%s; setup_s is the median of \
             %d batches of %d set-ups"
            n (List.length passes) (List.length items) (Stats.beyond ~n 90.0)
            (if Stats.reportable ~n 90.0 then "" else " (too few to report p90)")
            (List.length !setups) setup_batch;
        ];
    }
  end
  else begin
    let tr = Tracer.create () in
    let c = counters () in
    let tcfg = config ~telemetry:(Telemetry.create ~timing:true Telemetry.Sink.null) kind in
    let units = ref 0 and gc_minor = ref 0 and gc_major = ref 0 in
    let traced_pass () =
      let g0 = Gc.quick_stat () in
      let t0 = now () in
      List.iter
        (fun item ->
          let r = check_traced tr c tcfg kind ~req:!units item in
          incr units;
          verify item r)
        items;
      let t = now () -. t0 in
      let g1 = Gc.quick_stat () in
      gc_minor := !gc_minor + g1.Gc.minor_collections - g0.Gc.minor_collections;
      gc_major := !gc_major + g1.Gc.major_collections - g0.Gc.major_collections;
      t
    in
    (* alternate untraced and traced passes over the same inputs, so the
       overhead comparison sees the same machine state on both sides *)
    let rec loop us ts =
      let u = pass_wall (untraced_pass ()) in
      let t = traced_pass () in
      if elapsed () >= seconds then (u :: us, t :: ts) else loop (u :: us) (t :: ts)
    in
    let us, ts = loop [] [] in
    let spans = Tracer.spans tr in
    spans_out spans;
    let by = Tracer.by_name spans in
    let units = !units in
    let per x = x /. float_of_int (max 1 units) in
    let self name = match Hashtbl.find_opt by name with Some (s, _, _) -> s | None -> 0.0 in
    let self_ms name = 1000.0 *. per (self name) in
    let wall =
      Array.fold_left (fun acc s -> if s.Tracer.name = "check" then acc +. (s.stop -. s.start) else acc) 0.0 spans
    in
    let totals = Report.layer_totals by in
    let attributed = List.fold_left (fun acc (_, s, _) -> acc +. s) 0.0 totals in
    let layer_alloc l = List.fold_left (fun acc (l', _, a) -> if l = l' then acc +. a else acc) 0.0 totals in
    let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
    let over_line, over_pct, spread_pct = Report.overhead_line ~untraced:us ~traced:ts in
    let gc_minor = !gc_minor and gc_major = !gc_major in
    let values =
      [
        ("sat.search_ms", 1000.0 *. per c.search_s);
        ("sat.bcp_ms", 1000.0 *. per c.bcp_s);
        ("sat.cdg_ms", 1000.0 *. per c.cdg_s);
        ("sat.cdg_share", if c.search_s > 0.0 then c.cdg_s /. c.search_s else 0.0);
        ("sat.decisions", per (float_of_int c.decisions));
        ("sat.implications", per (float_of_int c.implications));
        ("sat.conflicts", per (float_of_int c.conflicts));
        ("sat.mprops_per_s", if c.search_s > 0.0 then float_of_int c.implications /. c.search_s /. 1e6 else 0.0);
        ("sat.load_ms", self_ms "sat.load");
        ("bmc.create_ms", self_ms "bmc.create");
        ("bmc.begin_ms", self_ms "bmc.begin");
        ("bmc.constrain_ms", self_ms "bmc.constrain");
        ("unroll.clauses_loaded", per (float_of_int c.clauses_loaded));
        ("ordering.refresh_ms", self_ms "ordering.refresh");
        ("ordering.rank_share", ratio c.dec_rank c.decisions);
        ("ordering.switch_frac", ratio c.switched c.instances);
        ("core.carry", if c.core_vars = 0 then 0.0 else 1.0 -. ratio c.core_new c.core_vars);
        ("core.extract_ms", self_ms "bmc.solve");
        ("inprocess.ms", self_ms "inprocess");
        ("inprocess.eliminated", per (float_of_int c.inpr_elim));
        ("coremin.ms", self_ms "coremin");
        ("coremin.shrink", ratio c.core_post c.core_pre);
        ("coremin.certified_frac", ratio c.coremin_certified c.coremin_runs);
        ("trace.replay_ms", self_ms "bmc.trace" +. self_ms "trace.replay");
        ("circuit.parse_ms", self_ms "circuit.parse");
        ("circuit.alloc_mb", per (layer_alloc "circuit") /. 1e6);
        ("bmc.alloc_mb", per (layer_alloc "bmc") /. 1e6);
        ("gc.minor_collections", per (float_of_int gc_minor));
        ("gc.major_collections", per (float_of_int gc_major));
        ("bench.traced_ms", 1000.0 *. per wall);
        ("bench.unattributed_ms", 1000.0 *. per (wall -. attributed));
        ("bench.trace_overhead_pct", over_pct);
        ("bench.untraced_spread_pct", spread_pct);
      ]
    in
    let total_alloc = Array.fold_left (fun acc s -> if s.Tracer.name = "check" then acc +. s.alloc else acc) 0.0 spans in
    {
      Report.workload = name kind;
      seed;
      attempted = !attempted;
      failed = !failed;
      wrong = List.rev !wrong;
      gated = Report.per_layer values;
      shown = [];
      notes =
        Report.layer_table ~wall ~units
          ~gc:(Printf.sprintf "%.2f minor / %.3f major collections per check" (per (float_of_int gc_minor))
                 (per (float_of_int gc_major)), total_alloc)
          by
        @ [ over_line ];
    }
  end
