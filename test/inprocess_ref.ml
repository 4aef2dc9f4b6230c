(* The inprocessing engine as it stood before the flat-array rewrite of
   [Sat.Inprocess.simplify], kept verbatim (only the opens below are new) as
   the test oracle for the identical-script invariant: on any input the
   production engine must emit the same action script and the same
   statistics as this one.  Clauses are [Set.Make (Lit)] trees and
   occurrence lists live in a hashtable, cleaned lazily. *)

open Sat
open Inprocess

type clause_in = { lits : Lit.t list; deletable : bool; redundant : bool }

type action =
  | Delete of int
  | Strengthen of { target : int; parent : int; lits : Lit.t list; id : int }
  | Resolvent of { pos : int; neg : int; lits : Lit.t list; id : int; pivot : Lit.var }
  | Eliminate of { v : Lit.var; pos : Lit.t list list }

module LitSet = Set.Make (Lit)

type cl = {
  mutable set : LitSet.t option; (* None = removed from the working store *)
  c_deletable : bool;
  c_redundant : bool;
}

type state = {
  mutable cls : cl array;
  mutable n : int;
  occ : (Lit.t, int list ref) Hashtbl.t; (* may hold stale indices *)
  mutable acts : action list; (* reverse chronological *)
  st : stats;
}

let occ_list st l =
  match Hashtbl.find_opt st.occ l with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.replace st.occ l r;
    r

let push_clause st ~deletable ~redundant set =
  if st.n = Array.length st.cls then begin
    let bigger =
      Array.make (max 16 (2 * st.n)) { set = None; c_deletable = true; c_redundant = false }
    in
    Array.blit st.cls 0 bigger 0 st.n;
    st.cls <- bigger
  end;
  let idx = st.n in
  st.cls.(idx) <- { set = Some set; c_deletable = deletable; c_redundant = redundant };
  st.n <- st.n + 1;
  LitSet.iter (fun l -> occ_list st l := idx :: !(occ_list st l)) set;
  idx

(* Occurrence lists are cleaned lazily, like [Simplify]'s. *)
let live_occurrences st l =
  let r = occ_list st l in
  let live =
    List.filter
      (fun i -> match st.cls.(i).set with Some s -> LitSet.mem l s | None -> false)
      !r
  in
  r := live;
  live

let tautology set = LitSet.exists (fun l -> LitSet.mem (Lit.negate l) set) set

let over ~deadline = match deadline with Some d -> Sys.time () > d | None -> false

(* Plain subsumption and self-subsuming resolution.  Only irredundant
   clauses act as subsumer / resolution parent: deleting an irredundant
   clause on the strength of a learnt one would break the invariant that
   the irredundant set alone implies the formula (the learnt clause may be
   reduced away later). *)
let subsumption_round st ~deadline =
  let changed = ref false in
  let bound = st.n in
  let ci = ref 0 in
  while !ci < bound && not (over ~deadline) do
    (match st.cls.(!ci) with
    | { set = Some c; c_redundant = false; _ } when not (LitSet.is_empty c) ->
      (* plain subsumption via the rarest literal's occurrence list *)
      let pivot =
        LitSet.fold
          (fun l best ->
            match best with
            | None -> Some l
            | Some b ->
              if List.length (live_occurrences st l) < List.length (live_occurrences st b)
              then Some l
              else best)
          c None
      in
      (match pivot with
      | None -> ()
      | Some p ->
        List.iter
          (fun di ->
            if di <> !ci then
              match st.cls.(di) with
              | { set = Some d; c_deletable = true; _ } when LitSet.subset c d ->
                st.cls.(di).set <- None;
                st.acts <- Delete di :: st.acts;
                st.st.subsumed <- st.st.subsumed + 1;
                changed := true
              | _ -> ())
          (live_occurrences st p));
      (* self-subsuming resolution: D ∋ ¬l with c \ {l} ⊆ D loses ¬l *)
      LitSet.iter
        (fun l ->
          let rest = LitSet.remove l c in
          List.iter
            (fun di ->
              if di <> !ci then
                match st.cls.(di) with
                | { set = Some d; c_deletable = true; c_redundant = false }
                  when LitSet.mem (Lit.negate l) d && LitSet.subset rest d ->
                  let d' = LitSet.remove (Lit.negate l) d in
                  st.cls.(di).set <- None;
                  let id = push_clause st ~deletable:true ~redundant:false d' in
                  st.acts <-
                    Strengthen { target = di; parent = !ci; lits = LitSet.elements d'; id }
                    :: st.acts;
                  st.st.strengthened <- st.st.strengthened + 1;
                  changed := true
                | _ -> ())
            (live_occurrences st (Lit.negate l)))
        c
    | _ -> ());
    incr ci
  done;
  !changed

(* Bounded variable elimination.  A variable is eliminable when it is
   unassigned, not frozen, every live occurrence is deletable, and the
   irredundant occurrence counts fit the budget; the resolvent set (minus
   tautologies and level-0-satisfied clauses) must not grow the database
   beyond [growth].  Redundant occurrences are simply deleted — they are
   implied by the remaining irredundant clauses. *)
let eliminate_round cfg st ~num_vars ~frozen ~value ~deadline eliminated =
  let changed = ref false in
  let v = ref 0 in
  while !v < num_vars && not (over ~deadline) do
    let var = !v in
    if (not eliminated.(var)) && (not (frozen var)) && value (Lit.pos var) = -1 then begin
      let pos_all = live_occurrences st (Lit.pos var) in
      let neg_all = live_occurrences st (Lit.neg var) in
      if List.for_all (fun i -> st.cls.(i).c_deletable) pos_all
         && List.for_all (fun i -> st.cls.(i).c_deletable) neg_all
      then begin
        let irr = List.filter (fun i -> not st.cls.(i).c_redundant) in
        let pos = irr pos_all and neg = irr neg_all in
        let np = List.length pos and nn = List.length neg in
        if np <= cfg.max_occurrences && nn <= cfg.max_occurrences then begin
          let set_of i = Option.get st.cls.(i).set in
          let resolvents =
            List.concat_map
              (fun pi ->
                List.filter_map
                  (fun ni ->
                    let r =
                      LitSet.union
                        (LitSet.remove (Lit.pos var) (set_of pi))
                        (LitSet.remove (Lit.neg var) (set_of ni))
                    in
                    if tautology r || LitSet.exists (fun l -> value l = 1) r then None
                    else Some (pi, ni, r))
                  neg)
              pos
          in
          if List.length resolvents <= np + nn + cfg.growth then begin
            (* derive first, then save the reconstruction witness, then
               delete every remaining occurrence (redundant ones too) *)
            List.iter
              (fun (pi, ni, r) ->
                let id = push_clause st ~deletable:true ~redundant:false r in
                st.acts <-
                  Resolvent
                    { pos = pi; neg = ni; lits = LitSet.elements r; id; pivot = var }
                  :: st.acts;
                st.st.resolvents <- st.st.resolvents + 1)
              resolvents;
            st.acts <-
              Eliminate { v = var; pos = List.map (fun i -> LitSet.elements (set_of i)) pos }
              :: st.acts;
            List.iter
              (fun i ->
                if st.cls.(i).set <> None then begin
                  st.cls.(i).set <- None;
                  st.acts <- Delete i :: st.acts
                end)
              (pos_all @ neg_all);
            eliminated.(var) <- true;
            st.st.eliminated <- st.st.eliminated + 1;
            changed := true
          end
        end
      end
    end;
    incr v
  done;
  !changed

let simplify cfg stats ~num_vars ~frozen ~value ~deadline clauses =
  let st =
    {
      cls =
        Array.map
          (fun (c : clause_in) ->
            { set = Some (LitSet.of_list c.lits); c_deletable = c.deletable;
              c_redundant = c.redundant })
          clauses;
      n = Array.length clauses;
      occ = Hashtbl.create 512;
      acts = [];
      st = stats;
    }
  in
  Array.iteri
    (fun i cl ->
      match cl.set with
      | Some set -> LitSet.iter (fun l -> occ_list st l := i :: !(occ_list st l)) set
      | None -> ())
    st.cls;
  let eliminated = Array.make (max num_vars 1) false in
  let round () =
    let s = subsumption_round st ~deadline in
    let e = eliminate_round cfg st ~num_vars ~frozen ~value ~deadline eliminated in
    stats.rounds_run <- stats.rounds_run + 1;
    s || e
  in
  let rec iterate n = if n > 0 && (not (over ~deadline)) && round () then iterate (n - 1) in
  iterate cfg.rounds;
  List.rev st.acts
