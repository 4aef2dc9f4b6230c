(* The ordering laboratory's registry: named branching heuristics the
   CLIs, the portfolio roster and the differential tests enumerate.  The
   four built-in Session modes are registered under their usual names so
   one namespace covers everything; the laboratory heuristics are
   [Session.Custom] values whose mutable state (conflict-frequency tables)
   lives behind the hook closures — hence [sp_make] builds a fresh mode
   per call and callers must never share one across solvers. *)

type spec = {
  sp_name : string;
  sp_doc : string;
  sp_make : unit -> Bmc.Session.mode;
}

let name s = s.sp_name

let doc s = s.sp_doc

let mode s = s.sp_make ()

let base nm dc m = { sp_name = nm; sp_doc = dc; sp_make = (fun () -> m) }

let count tbl i = match Hashtbl.find_opt tbl i with Some c -> c | None -> 0

(* Conflict-frequency branching (CHB/expSAT-style), composed with the
   paper's bmc_score: the installed per-depth ranking is the folded core
   score (exactly [Static]'s), and every conflict moves the participating
   variables' ranks to [bmc_score + q] where [q] is an exponential
   recency-weighted average of conflict participation.  Restarts halve
   [q], decaying towards the pure bmc_score ranking.  Phase bias follows
   the more conflict-active literal of the chosen variable. *)
let chb =
  {
    sp_name = "chb";
    sp_doc = "conflict-frequency branching (CHB-style EMA) composed with bmc_score";
    sp_make =
      (fun () ->
        Bmc.Session.Custom
          {
            Bmc.Session.c_name = "chb";
            c_uses_cores = true;
            c_order =
              (fun unroll sc ~k:_ ->
                Sat.Order.Static
                  (Bmc.Score.rank_array sc
                     ~num_vars:(Bmc.Varmap.num_vars (Bmc.Unroll.varmap unroll))));
            c_hooks =
              Some
                (fun _unroll sc ~solver ->
                  let alpha = 0.25 in
                  let q : (int, float) Hashtbl.t = Hashtbl.create 1024 in
                  let lit_cnt : (int, int) Hashtbl.t = Hashtbl.create 1024 in
                  {
                    Sat.Solver.hk_name = "chb";
                    hk_on_conflict =
                      (fun lits ->
                        List.iter
                          (fun l ->
                            let v = Sat.Lit.var l in
                            let i = Sat.Lit.to_index l in
                            Hashtbl.replace lit_cnt i (count lit_cnt i + 1);
                            let prev =
                              match Hashtbl.find_opt q v with Some x -> x | None -> 0.0
                            in
                            let qv = ((1.0 -. alpha) *. prev) +. alpha in
                            Hashtbl.replace q v qv;
                            Sat.Solver.set_rank solver v (Bmc.Score.score sc v +. qv))
                          lits);
                    hk_on_restart =
                      (fun () ->
                        Hashtbl.filter_map_inplace (fun _ qv -> Some (qv *. 0.5)) q);
                    hk_bias =
                      (fun v ->
                        let p = count lit_cnt (Sat.Lit.to_index (Sat.Lit.pos v)) in
                        let n = count lit_cnt (Sat.Lit.to_index (Sat.Lit.neg v)) in
                        if p = n then None else Some (p > n));
                  });
          });
  }

let specs () =
  [
    base "standard" "pure VSIDS (the paper's baseline)" Bmc.Session.Standard;
    base "static" "bmc_score rank as the primary key throughout" Bmc.Session.Static;
    base "dynamic" "bmc_score rank with fallback to VSIDS" Bmc.Session.Dynamic;
    base "shtrichman" "the related-work time-axis static ordering" Bmc.Session.Shtrichman;
    chb;
  ]

let names () = List.map name (specs ())

let find n = List.find_opt (fun s -> s.sp_name = n) (specs ())

let mode_of_name n = Option.map mode (find n)
