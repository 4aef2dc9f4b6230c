type event =
  | Learnt of Lit.t list
  | Deleted of Lit.t list

(* Replay state.  The original scan-every-clause-to-fixpoint loop is
   quadratic in proof length and made certification of long refutations
   (tens of thousands of learnt clauses) cost minutes where the solves
   themselves cost milliseconds, so the replay keeps two standard pieces of
   checker machinery (the same ones drat-trim uses): a persistent root
   assignment — the unit-propagation fixpoint of the alive clauses, which
   queries stack their candidate on top of — and two watched literals per
   clause, so a query only ever visits clauses whose watch it falsified.
   The clauses themselves stay plain literal arrays re-examined in full at
   each visit: no arena, no blocking literals, no code shared with the
   solver. *)
type clause = {
  lits : Lit.t array; (* normalised at creation; watch moves permute in place *)
  mutable alive : bool;
}

type db = {
  clauses : clause Vec.t;
  mutable watches : int list array; (* Lit.to_index -> ids watching that literal *)
  mutable value : int array; (* var -> 0 unassigned / 1 true / -1 false *)
  units : int Vec.t; (* ids of unit clauses (alive-checked when fired) *)
  by_key : (Lit.t list, int list) Hashtbl.t; (* normalised lits -> live ids, newest first *)
  root_trail : Lit.var Vec.t; (* vars assigned by the persistent root closure *)
  mutable dirty : bool; (* a deletion may have shrunk the closure *)
  mutable root_conflict : bool; (* UP alone refutes the alive clauses *)
}

let clause_key lits = List.sort_uniq Lit.compare lits

let ensure_var db v =
  if v >= Array.length db.value then begin
    let n = max (v + 1) ((2 * Array.length db.value) + 16) in
    let value = Array.make n 0 in
    Array.blit db.value 0 value 0 (Array.length db.value);
    db.value <- value;
    let watches = Array.make (2 * n) [] in
    Array.blit db.watches 0 watches 0 (Array.length db.watches);
    db.watches <- watches
  end

let value_lit db l =
  match db.value.(Lit.var l) with 0 -> 0 | v -> if Lit.is_pos l then v else -v

let assign db queue record l =
  db.value.(Lit.var l) <- (if Lit.is_pos l then 1 else -1);
  record (Lit.var l);
  Vec.push queue l

(* Exhaust the queue.  A literal just made true can only shrink clauses
   watching its negation; everything else is untouched — this is what keeps
   a query's cost proportional to the propagation it causes rather than to
   the size of the clause database.  The watch invariant (a false watch
   implies the other watch is true) survives query undo, because unassigning
   literals never falsifies a watch.  Returns true on conflict. *)
let propagate_queue db queue record =
  let conflict = ref false in
  let head = ref 0 in
  while (not !conflict) && !head < Vec.length queue do
    let l = Vec.get queue !head in
    incr head;
    let false_lit = Lit.negate l in
    let wi = Lit.to_index false_lit in
    let rec go kept = function
      | [] -> db.watches.(wi) <- kept
      | id :: rest ->
        let c = Vec.get db.clauses id in
        if not c.alive then go kept rest (* dead watcher: drop lazily *)
        else begin
          let lits = c.lits in
          if Lit.equal lits.(0) false_lit then begin
            lits.(0) <- lits.(1);
            lits.(1) <- false_lit
          end;
          (* lits.(1) is the falsified watch *)
          if value_lit db lits.(0) = 1 then go (id :: kept) rest
          else begin
            let n = Array.length lits in
            let k = ref 2 in
            while !k < n && value_lit db lits.(!k) = -1 do
              incr k
            done;
            if !k < n then begin
              (* replacement watch found: migrate to its list *)
              lits.(1) <- lits.(!k);
              lits.(!k) <- false_lit;
              let j = Lit.to_index lits.(1) in
              db.watches.(j) <- id :: db.watches.(j);
              go kept rest
            end
            else begin
              match value_lit db lits.(0) with
              | -1 ->
                conflict := true;
                db.watches.(wi) <- List.rev_append kept (id :: rest)
              | 0 ->
                assign db queue record lits.(0);
                go (id :: kept) rest
              | _ -> go (id :: kept) rest
            end
          end
        end
    in
    let ws = db.watches.(wi) in
    db.watches.(wi) <- [];
    go [] ws
  done;
  !conflict

(* Recompute the root closure from scratch: fire every alive unit clause and
   propagate to fixpoint.  Only needed after a deletion that may have
   supported the previous closure.  Starting from the empty assignment the
   watch invariant holds trivially, so stale watches are safe here. *)
let rebuild_root db =
  Vec.iter (fun v -> db.value.(v) <- 0) db.root_trail;
  Vec.clear db.root_trail;
  db.root_conflict <- false;
  let queue = Vec.create ~dummy:(Lit.pos 0) () in
  let record v = Vec.push db.root_trail v in
  let conflict = ref false in
  Vec.iter
    (fun id ->
      if not !conflict then begin
        let c = Vec.get db.clauses id in
        if c.alive then
          match value_lit db c.lits.(0) with
          | 1 -> ()
          | -1 -> conflict := true
          | _ -> assign db queue record c.lits.(0)
      end)
    db.units;
  if not !conflict then conflict := propagate_queue db queue record;
  db.root_conflict <- !conflict;
  db.dirty <- false

let add_clause db lits =
  let key = clause_key lits in
  let lits = Array.of_list key in
  let id = Vec.length db.clauses in
  Vec.push db.clauses { lits; alive = true };
  Array.iter (fun l -> ensure_var db (Lit.var l)) lits;
  let prev = Option.value ~default:[] (Hashtbl.find_opt db.by_key key) in
  Hashtbl.replace db.by_key key (id :: prev);
  let n = Array.length lits in
  let fresh = (not db.dirty) && not db.root_conflict in
  if n = 0 then begin
    if fresh then db.root_conflict <- true
  end
  else if n = 1 then begin
    Vec.push db.units id;
    if fresh then begin
      match value_lit db lits.(0) with
      | 1 -> ()
      | -1 -> db.root_conflict <- true
      | _ ->
        let queue = Vec.create ~dummy:(Lit.pos 0) () in
        let record v = Vec.push db.root_trail v in
        assign db queue record lits.(0);
        if propagate_queue db queue record then db.root_conflict <- true
    end
  end
  else begin
    (* choose watches compatible with the live root closure: two non-false
       literals if possible; a clause unit under the closure fires now and
       watches its (then true) unit literal, keeping the invariant.  When
       the closure is dirty or already refuted any two watches do: the next
       rebuild starts from the empty assignment. *)
    let swap i j =
      let t = lits.(i) in
      lits.(i) <- lits.(j);
      lits.(j) <- t
    in
    if fresh then begin
      let w = ref 0 in
      let k = ref 0 in
      while !w < 2 && !k < n do
        if value_lit db lits.(!k) <> -1 then begin
          swap !w !k;
          incr w
        end;
        incr k
      done;
      if !w = 0 then db.root_conflict <- true
      else if !w = 1 then begin
        match value_lit db lits.(0) with
        | 0 ->
          let queue = Vec.create ~dummy:(Lit.pos 0) () in
          let record v = Vec.push db.root_trail v in
          assign db queue record lits.(0);
          if propagate_queue db queue record then db.root_conflict <- true
        | _ -> ()
      end
    end;
    let w0 = Lit.to_index lits.(0) and w1 = Lit.to_index lits.(1) in
    db.watches.(w0) <- id :: db.watches.(w0);
    db.watches.(w1) <- id :: db.watches.(w1)
  end

(* deleting an absent clause is harmless; duplicates go newest-first.  The
   closure only needs a rebuild if the deleted clause could have fired in
   it: exactly one true literal, the rest false.  A clause with two or more
   non-false literals never propagated anything. *)
let delete_clause db lits =
  let key = clause_key lits in
  match Hashtbl.find_opt db.by_key key with
  | Some (id :: rest) ->
    (Vec.get db.clauses id).alive <- false;
    Hashtbl.replace db.by_key key rest;
    if not db.dirty then
      if db.root_conflict then db.dirty <- true
      else begin
        let true_ = ref 0 and nonfalse = ref 0 in
        List.iter
          (fun l ->
            match value_lit db l with
            | 1 ->
              incr true_;
              incr nonfalse
            | 0 -> incr nonfalse
            | _ -> ())
          key;
        if !true_ = 1 && !nonfalse = 1 then db.dirty <- true
      end
  | Some [] | None -> ()

(* Reverse unit propagation: assume the negation of every literal of
   [clause] on top of the persistent root closure; propagate units; succeed
   iff a conflict appears.  Only the query's own assignments are undone. *)
let rup db clause =
  List.iter (fun l -> ensure_var db (Lit.var l)) clause;
  if db.dirty then rebuild_root db;
  if db.root_conflict then true
  else begin
    let conflict = ref false in
    let trail = ref [] in
    let queue = Vec.create ~dummy:(Lit.pos 0) () in
    let record v = trail := v :: !trail in
    (* the negated clause seeds the assignment; a clause with complementary
       literals, or one with a root-true literal, is trivially RUP *)
    List.iter
      (fun l ->
        if not !conflict then
          match value_lit db l with
          | 1 -> conflict := true (* already true: ¬C inconsistent *)
          | -1 -> ()
          | _ -> assign db queue record (Lit.negate l))
      clause;
    if not !conflict then conflict := propagate_queue db queue record;
    List.iter (fun v -> db.value.(v) <- 0) !trail;
    !conflict
  end

let check_refutation cnf events =
  let nv = max 16 (Cnf.num_vars cnf) in
  let db =
    {
      clauses = Vec.create ~dummy:{ lits = [||]; alive = false } ();
      watches = Array.make (2 * nv) [];
      value = Array.make nv 0;
      units = Vec.create ~dummy:0 ();
      by_key = Hashtbl.create 256;
      root_trail = Vec.create ~dummy:0 ();
      dirty = false;
      root_conflict = false;
    }
  in
  (* duplicate literals would defeat the unit test in [rup]; tautologies are
     harmless but may as well be normalised too (add_clause sorts) *)
  Cnf.iter_clauses (fun _ c -> add_clause db (Array.to_list c)) cnf;
  let refuted = ref false in
  let step i event =
    match event with
    | Learnt lits ->
      if !refuted then Ok () (* anything after the empty clause is moot *)
      else if rup db lits then begin
        if lits = [] then refuted := true;
        add_clause db lits;
        Ok ()
      end
      else
        Error
          (Printf.sprintf "step %d: learnt clause {%s} is not a RUP consequence" i
             (String.concat ", " (List.map (fun l -> string_of_int (Lit.to_dimacs l)) lits)))
    | Deleted lits ->
      delete_clause db lits;
      Ok ()
  in
  let rec walk i = function
    | [] -> if !refuted then Ok () else Error "proof does not derive the empty clause"
    | e :: rest -> (
      match step i e with
      | Ok () -> walk (i + 1) rest
      | Error _ as err -> err)
  in
  walk 0 events

let to_drat events =
  let buf = Buffer.create 1024 in
  List.iter
    (fun event ->
      let lits, prefix = match event with Learnt l -> (l, "") | Deleted l -> (l, "d ") in
      Buffer.add_string buf prefix;
      List.iter (fun l -> Buffer.add_string buf (string_of_int (Lit.to_dimacs l) ^ " ")) lits;
      Buffer.add_string buf "0\n")
    events;
  Buffer.contents buf

let of_drat text =
  let parse_line line =
    let line = String.trim line in
    if line = "" || line.[0] = 'c' then None
    else begin
      let deleted = String.length line >= 2 && String.sub line 0 2 = "d " in
      let body = if deleted then String.sub line 2 (String.length line - 2) else line in
      let nums =
        String.split_on_char ' ' body
        |> List.filter (fun s -> s <> "")
        |> List.map (fun s ->
               match int_of_string_opt s with
               | Some n -> n
               | None -> failwith (Printf.sprintf "Checker.of_drat: bad token %S" s))
      in
      match List.rev nums with
      | 0 :: rev_lits ->
        let lits = List.rev_map Lit.of_dimacs rev_lits in
        Some (if deleted then Deleted lits else Learnt lits)
      | _ -> failwith "Checker.of_drat: missing terminating 0"
    end
  in
  String.split_on_char '\n' text |> List.filter_map parse_line
