exception Parse_error of string

let error line fmt =
  Format.kasprintf (fun s -> raise (Parse_error (Printf.sprintf "line %d: %s" line s))) fmt

type state = {
  mutable header : (int * int) option;
  mutable pending : Lit.t list; (* literals of the clause being read *)
  cnf : Cnf.t;
  mutable clauses_seen : int;
}

(* Feed one input line to the incremental parser. *)
let feed st lineno line =
  let line = String.trim line in
  if line = "" || (String.length line > 0 && line.[0] = 'c') then ()
  else if String.length line > 0 && line.[0] = 'p' then begin
    if st.header <> None then error lineno "duplicate header";
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | [ "p"; "cnf"; v; c ] -> (
      match (int_of_string_opt v, int_of_string_opt c) with
      | Some v, Some c when v >= 0 && c >= 0 ->
        (* the declared count only bounds the variables: the formula is
           sized from the ones its clauses mention, so a header cannot make
           the reader allocate *)
        st.header <- Some (v, c)
      | _ -> error lineno "malformed 'p cnf' header")
    | _ -> error lineno "malformed 'p cnf' header"
  end
  else begin
    if st.header = None then error lineno "clause before 'p cnf' header";
    let tokens = String.split_on_char ' ' line |> List.filter (fun s -> s <> "") in
    let consume tok =
      match int_of_string_opt tok with
      | None -> error lineno "bad token %S" tok
      | Some 0 ->
        Cnf.add_clause st.cnf (List.rev st.pending);
        st.pending <- [];
        st.clauses_seen <- st.clauses_seen + 1
      | Some n -> st.pending <- Lit.of_dimacs n :: st.pending
    in
    List.iter consume tokens
  end

let finish st =
  (match st.pending with
  | [] -> ()
  | lits ->
    (* Tolerate a missing final 0, as several published instances do. *)
    Cnf.add_clause st.cnf (List.rev lits);
    st.clauses_seen <- st.clauses_seen + 1);
  (match st.header with
  | None -> raise (Parse_error "missing 'p cnf' header")
  | Some (v, c) ->
    if Cnf.num_vars st.cnf > v then
      raise
        (Parse_error
           (Printf.sprintf "variable %d exceeds declared count %d" (Cnf.num_vars st.cnf) v));
    if st.clauses_seen < c then
      raise
        (Parse_error (Printf.sprintf "expected %d clauses, found %d" c st.clauses_seen)));
  st.cnf

let fresh_state () =
  { header = None; pending = []; cnf = Cnf.create (); clauses_seen = 0 }

let parse_lines lines =
  let st = fresh_state () in
  List.iteri (fun i line -> feed st (i + 1) line) lines;
  finish st

let parse_string s = parse_lines (String.split_on_char '\n' s)

let parse_channel ic =
  let st = fresh_state () in
  let rec loop lineno =
    match input_line ic with
    | line ->
      feed st lineno line;
      loop (lineno + 1)
    | exception End_of_file -> finish st
  in
  loop 1

let parse_file path =
  let ic = open_in path in
  match parse_channel ic with
  | cnf ->
    close_in ic;
    cnf
  | exception e ->
    close_in_noerr ic;
    raise e

let print ppf cnf =
  Format.fprintf ppf "p cnf %d %d@." (Cnf.num_vars cnf) (Cnf.num_clauses cnf);
  Cnf.iter_clauses
    (fun _ c ->
      Array.iter (fun l -> Format.fprintf ppf "%d " (Lit.to_dimacs l)) c;
      Format.fprintf ppf "0@.")
    cnf

let to_string cnf = Format.asprintf "%a" print cnf

let write_file path cnf =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  (try
     print ppf cnf;
     Format.pp_print_flush ppf ()
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc
