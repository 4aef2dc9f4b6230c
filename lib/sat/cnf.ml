type clause = Lit.t array

type t = {
  mutable num_vars : int;
  clauses : clause Vec.t;
  mutable num_literals : int;
}

let create ?(num_vars = 0) ?capacity () =
  if num_vars < 0 then invalid_arg "Cnf.create";
  { num_vars; clauses = Vec.create ?capacity ~dummy:[||] (); num_literals = 0 }

let num_vars f = f.num_vars

let num_clauses f = Vec.length f.clauses

let fresh_var f =
  let v = f.num_vars in
  f.num_vars <- v + 1;
  v

let ensure_vars f n = if n > f.num_vars then f.num_vars <- n

let note_lits f c =
  for i = 0 to Array.length c - 1 do
    ensure_vars f (Lit.var c.(i) + 1)
  done;
  f.num_literals <- f.num_literals + Array.length c

(* The array is shared, never copied: clause arrays are immutable once
   added, so formulas, their copies and the unroller that built them can
   all hold the same one. *)
let add_clause_a f c =
  note_lits f c;
  Vec.push f.clauses c

let add_clause f lits =
  let c = Array.of_list lits in
  note_lits f c;
  Vec.push f.clauses c

let get_clause f i = Vec.get f.clauses i

let iter_clauses g f = Vec.iteri g f.clauses

let fold_clauses g acc f = Vec.fold g acc f.clauses

let num_literals f = f.num_literals

let occurrences f =
  let counts = Array.make (2 * f.num_vars) 0 in
  Vec.iter
    (fun c ->
      for i = 0 to Array.length c - 1 do
        let l = Lit.to_index c.(i) in
        counts.(l) <- counts.(l) + 1
      done)
    f.clauses;
  counts

(* Clauses are short (Tseitin gates give two or three literals), so they
   are insertion-sorted straight from the clause into the buffer, with no
   allocation; long clauses take the library sort on a copy. *)
let insertion_limit = 16

let normalize_into c ~into =
  let n = Array.length c in
  if Array.length into < n then invalid_arg "Cnf.normalize_into: buffer too short";
  if n <= insertion_limit then
    (* in place too: slot [i] is read before anything past [i - 1] is written *)
    for i = 0 to n - 1 do
      let x = c.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && Lit.to_index into.(!j) > Lit.to_index x do
        into.(!j + 1) <- into.(!j);
        decr j
      done;
      into.(!j + 1) <- x
    done
  else begin
    let sorted = Array.copy c in
    Array.sort Lit.compare sorted;
    Array.blit sorted 0 into 0 n
  end;
  (* duplicates are adjacent now, and so are [l] and [¬l] (literals [2v]
     and [2v+1]) *)
  let m = ref 0 and tautology = ref false in
  for i = 0 to n - 1 do
    let l = into.(i) in
    if !m = 0 || not (Lit.equal l into.(!m - 1)) then begin
      if !m > 0 && Lit.var l = Lit.var into.(!m - 1) then tautology := true;
      into.(!m) <- l;
      incr m
    end
  done;
  if !tautology then -1 else !m

let normalize_clause lits =
  let a = Array.of_list lits in
  match normalize_into a ~into:a with
  | -1 -> None
  | n -> Some (List.init n (Array.get a))

let eval_clause c assign = Array.exists (fun l -> assign (Lit.var l) = Lit.is_pos l) c

let eval f assign =
  let sat = ref true in
  Vec.iter (fun c -> if not (eval_clause c assign) then sat := false) f.clauses;
  !sat

let copy f = { f with clauses = Vec.copy f.clauses }

let pp ppf f =
  Format.fprintf ppf "@[<v>p cnf %d %d" f.num_vars (num_clauses f);
  Vec.iter
    (fun c ->
      Format.fprintf ppf "@,%a 0"
        (Format.pp_print_array ~pp_sep:Format.pp_print_space Lit.pp)
        c)
    f.clauses;
  Format.fprintf ppf "@]"
