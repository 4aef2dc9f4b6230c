type budget = { max_solves : int option; max_seconds : float option }

let no_budget = { max_solves = None; max_seconds = None }

type stats = {
  initial : int;
  final : int;
  solves : int;
  seconds : float;
  minimal : bool;
  certified : bool;
}

(* Independent re-proof of the kept set: a fresh solver with clausal (DRAT)
   logging over the kept clauses plus the assumptions as units, its proof
   replayed by the reference checker.  This is the exactness guarantee the
   caller relies on — the minimiser's own bookkeeping never has to be
   trusted. *)
let certify_core arr alive ~num_vars ~assumptions =
  let c = Cnf.create ~num_vars () in
  Array.iteri (fun i (_, lits) -> if alive.(i) then Cnf.add_clause c lits) arr;
  List.iter (fun l -> Cnf.add_clause c [ l ]) assumptions;
  let s = Solver.create ~with_drat:true c in
  match Solver.solve s with
  | Solver.Unsat -> (
    match Checker.check_refutation c (Solver.drat_events s) with
    | Ok () -> true
    | Error _ -> false)
  | Solver.Sat | Solver.Unknown -> false

let minimise ?(budget = no_budget) ?(assumptions = []) ?(certify = true) ~num_vars ~clauses
    () =
  let t0 = Telemetry.wall () in
  let arr = Array.of_list clauses in
  let n = Array.length arr in
  (* selectors live just above every variable the candidate mentions *)
  let base =
    Array.fold_left
      (fun m (_, lits) -> List.fold_left (fun m l -> max m (Lit.var l + 1)) m lits)
      num_vars arr
  in
  let base = List.fold_left (fun m l -> max m (Lit.var l + 1)) base assumptions in
  let cnf = Cnf.create ~num_vars:(base + n) () in
  Array.iteri (fun i (_, lits) -> Cnf.add_clause cnf (Lit.neg (base + i) :: lits)) arr;
  let solver = Solver.create cnf in
  let sel i = Lit.pos (base + i) in
  let alive = Array.make n true in
  let solves = ref 0 in
  let out_of_budget () =
    (match budget.max_solves with Some m -> !solves >= m | None -> false)
    ||
    match budget.max_seconds with
    | Some s -> Telemetry.wall () -. t0 >= s
    | None -> false
  in
  (* solve the candidate with [dropped] deactivated (its selector simply not
     assumed, so the clause floats free) *)
  let solve_without dropped =
    incr solves;
    let asms = ref [] in
    for i = n - 1 downto 0 do
      if alive.(i) && dropped <> i then asms := sel i :: !asms
    done;
    Solver.solve solver ~assumptions:(assumptions @ !asms)
  in
  (* clause-set refinement: an UNSAT answer's failed assumptions name the
     selectors the refutation actually used; everything else is dropped
     wholesale, no per-clause test needed *)
  let refine () =
    let keep = Hashtbl.create (max 16 n) in
    List.iter
      (fun l ->
        if Lit.is_pos l && Lit.var l >= base then Hashtbl.replace keep (Lit.var l - base) ())
      (Solver.failed_assumptions solver);
    for i = 0 to n - 1 do
      if alive.(i) && not (Hashtbl.mem keep i) then alive.(i) <- false
    done
  in
  let result minimal =
    let certified =
      if certify then begin
        incr solves;
        certify_core arr alive ~num_vars:base ~assumptions
      end
      else false
    in
    let kept = ref [] in
    for i = n - 1 downto 0 do
      if alive.(i) then kept := fst arr.(i) :: !kept
    done;
    ( !kept,
      {
        initial = n;
        final = List.length !kept;
        solves = !solves;
        seconds = Telemetry.wall () -. t0;
        minimal;
        certified;
      } )
  in
  match solve_without (-1) with
  | Solver.Sat | Solver.Unknown ->
    (* not a core: hand the input back unimproved rather than guessing *)
    let kept = Array.to_list (Array.map fst arr) in
    ( kept,
      {
        initial = n;
        final = n;
        solves = !solves;
        seconds = Telemetry.wall () -. t0;
        minimal = false;
        certified = false;
      } )
  | Solver.Unsat ->
    refine ();
    (* destructive pass: drop each survivor in turn; UNSAT without it means
       it was redundant (and the failed assumptions may shed more), SAT
       proves it necessary *)
    let necessary = Array.make n false in
    let minimal = ref true in
    let i = ref 0 in
    while !minimal && !i < n do
      if alive.(!i) && not necessary.(!i) then begin
        if out_of_budget () then minimal := false
        else begin
          match solve_without !i with
          | Solver.Unsat ->
            alive.(!i) <- false;
            refine ()
          | Solver.Sat | Solver.Unknown -> necessary.(!i) <- true
        end
      end;
      if !minimal then incr i
    done;
    result !minimal
