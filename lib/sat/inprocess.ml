(* Budgets, statistics and the pure simplification engine behind
   [Solver.inprocess].  The engine works on a snapshot of the live clause
   database and answers with an ordered action script; the solver replays
   it against the arena / proof / DRAT state.  Keeping the engine pure
   makes the derive-before-delete discipline auditable in one place: a new
   clause is always emitted before any Delete of the clauses it was
   resolved from. *)

type config = {
  max_occurrences : int;
  growth : int;
  max_probes : int;
  rounds : int;
  time_slice : float option;
}

let default =
  { max_occurrences = 10; growth = 0; max_probes = 128; rounds = 2; time_slice = None }

let light = { max_occurrences = 6; growth = 0; max_probes = 64; rounds = 1; time_slice = None }

let aggressive =
  { max_occurrences = 20; growth = 8; max_probes = 512; rounds = 4; time_slice = None }

let config_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "" | "default" -> Ok default
  | "light" -> Ok light
  | "aggressive" -> Ok aggressive
  | spec ->
    let parse_kv acc kv =
      match acc with
      | Error _ -> acc
      | Ok cfg -> (
        match String.split_on_char '=' kv with
        | [ k; v ] -> (
          match (String.trim k, int_of_string_opt (String.trim v)) with
          | _, None -> Error (Printf.sprintf "inprocess budget: %S is not an integer" v)
          | "occ", Some n when n >= 0 -> Ok { cfg with max_occurrences = n }
          | "growth", Some n when n >= 0 -> Ok { cfg with growth = n }
          | "probes", Some n when n >= 0 -> Ok { cfg with max_probes = n }
          | "rounds", Some n when n >= 0 -> Ok { cfg with rounds = n }
          | "ms", Some 0 -> Ok { cfg with time_slice = None }
          | "ms", Some n when n > 0 ->
            Ok { cfg with time_slice = Some (float_of_int n /. 1000.) }
          | (("occ" | "growth" | "probes" | "rounds" | "ms") as k), Some _ ->
            Error (Printf.sprintf "inprocess budget: %s must be non-negative" k)
          | k, Some _ -> Error (Printf.sprintf "inprocess budget: unknown key %S" k))
        | _ -> Error (Printf.sprintf "inprocess budget: expected key=value, got %S" kv))
    in
    List.fold_left parse_kv (Ok default) (String.split_on_char ',' spec)

type stats = {
  mutable probes : int;
  mutable probe_failed : int;
  mutable satisfied_removed : int;
  mutable subsumed : int;
  mutable strengthened : int;
  mutable eliminated : int;
  mutable resolvents : int;
  mutable rounds_run : int;
  mutable time : float;
}

let fresh_stats () =
  {
    probes = 0;
    probe_failed = 0;
    satisfied_removed = 0;
    subsumed = 0;
    strengthened = 0;
    eliminated = 0;
    resolvents = 0;
    rounds_run = 0;
    time = 0.0;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "eliminated=%d subsumed=%d strengthened=%d satisfied=%d probes=%d failed=%d \
     resolvents=%d"
    s.eliminated s.subsumed s.strengthened s.satisfied_removed s.probes s.probe_failed
    s.resolvents

(* ------------------------------------------------------------------ *)
(* The engine.                                                         *)
(* ------------------------------------------------------------------ *)

type clause_in = { lits : Lit.t array; deletable : bool; redundant : bool }

type action =
  | Delete of int
  | Strengthen of { target : int; parent : int; lits : Lit.t array; id : int }
  | Resolvent of { pos : int; neg : int; lits : Lit.t array; id : int; pivot : Lit.var }
  | Eliminate of { v : Lit.var; pos : Lit.t array list }

(* Every comparison goes through the literal's dense index, so each helper
   below is typed over ints and never reaches polymorphic compare.  Literal
   arrays are flat int arrays to the compiler ([Lit.t] is immediate). *)
let[@inline] ix l = Lit.to_index l

(* Clause flag bits. *)
let alive = 1

let deletable = 2

let redundant = 4

(* A growable int buffer: occurrence snapshots. *)
type buf = { mutable a : int array; mutable len : int }

let new_buf () = { a = Array.make 16 0; len = 0 }

let grow_ints a need =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* The working store.  Clause [i] is a sorted (by index), duplicate-free
   literal array [lits.(i)] that never changes after creation — a
   strengthened clause gets a new index — so [count.(l)], the number of
   live clauses containing literal index [l], moves only when a clause is
   added or removed.  The input clauses' occurrences form one CSR array,
   ascending by clause index: literal [l]'s are [csr.(start.(l)) ..
   csr.(start.(l + 1) - 1)].  Clauses created during the run are linked on
   per-literal newest-first chains ([head] / [chain_clause] /
   [chain_next]).  A chain followed by its CSR segment walked backwards
   visits a literal's clauses newest first. *)
type state = {
  mutable lits : Lit.t array array;
  mutable flags : int array;
  mutable n : int;
  count : int array;
  start : int array;
  csr : int array;
  head : int array; (* newest chain entry per literal, -1 when none *)
  mutable chain_clause : int array;
  mutable chain_next : int array;
  mutable chain_len : int;
  occ : buf; (* scratch: the snapshot a subsumption walk iterates *)
  pos_all : buf; (* scratch: an elimination candidate's occurrences *)
  neg_all : buf;
  mutable res : Lit.t array; (* scratch: candidate resolvents, back to back *)
  mutable res_off : int array; (* candidate [k] is [res.(res_off.(k)) .. res_off.(k+1)-1] *)
  mutable res_pos : int array;
  mutable res_neg : int array;
  mutable acts : action list; (* reverse chronological *)
  st : stats;
}

(* Snapshot the live clauses containing [l] into [b], newest first.  There
   are exactly [count.(l)] of them. *)
let snapshot st l b =
  let l = ix l in
  b.a <- grow_ints b.a st.count.(l);
  let j = ref 0 in
  let e = ref st.head.(l) in
  while !e >= 0 do
    let c = st.chain_clause.(!e) in
    if st.flags.(c) land alive <> 0 then begin
      b.a.(!j) <- c;
      incr j
    end;
    e := st.chain_next.(!e)
  done;
  for p = st.start.(l + 1) - 1 downto st.start.(l) do
    let c = st.csr.(p) in
    if st.flags.(c) land alive <> 0 then begin
      b.a.(!j) <- c;
      incr j
    end
  done;
  b.len <- !j;
  b

let kill st i =
  st.flags.(i) <- st.flags.(i) land lnot alive;
  let c = st.lits.(i) in
  for k = 0 to Array.length c - 1 do
    let l = ix c.(k) in
    st.count.(l) <- st.count.(l) - 1
  done

let push_clause st ~flags c =
  if st.n = Array.length st.lits then begin
    let lits = Array.make (2 * st.n) [||] in
    Array.blit st.lits 0 lits 0 st.n;
    st.lits <- lits;
    st.flags <- grow_ints st.flags (2 * st.n)
  end;
  let i = st.n in
  st.lits.(i) <- c;
  st.flags.(i) <- flags;
  st.n <- i + 1;
  let need = st.chain_len + Array.length c in
  st.chain_clause <- grow_ints st.chain_clause need;
  st.chain_next <- grow_ints st.chain_next need;
  for k = 0 to Array.length c - 1 do
    let l = ix c.(k) in
    st.count.(l) <- st.count.(l) + 1;
    let e = st.chain_len in
    st.chain_clause.(e) <- i;
    st.chain_next.(e) <- st.head.(l);
    st.head.(l) <- e;
    st.chain_len <- e + 1
  done;
  i

(* [c] without its [skip]-th literal ([-1]: none) is a subset of [d]: one
   merge over the two sorted arrays. *)
let subset_but c ~skip d =
  let nc = Array.length c and nd = Array.length d in
  if (if skip >= 0 then nc - 1 else nc) > nd then false
  else begin
    let i = ref 0 and j = ref 0 and ok = ref true in
    while !ok && !i < nc do
      if !i = skip then incr i
      else if !j = nd then ok := false
      else begin
        let x = ix c.(!i) and y = ix d.(!j) in
        if x = y then begin
          incr i;
          incr j
        end
        else if x > y then incr j
        else ok := false
      end
    done;
    !ok
  end

(* [d] minus the literal [l] it contains, as a fresh array. *)
let without d l =
  let out = Array.make (Array.length d - 1) l in
  let j = ref 0 in
  for i = 0 to Array.length d - 1 do
    if ix d.(i) <> ix l then begin
      out.(!j) <- d.(i);
      incr j
    end
  done;
  out

let over ~deadline = match deadline with Some d -> Telemetry.wall () > d | None -> false

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
    let i = !ci in
    let c = st.lits.(i) in
    if st.flags.(i) land (alive lor redundant) = alive && Array.length c > 0 then begin
      (* plain subsumption via the rarest literal's occurrences (the first
         such literal in index order) *)
      let p = ref c.(0) in
      for k = 1 to Array.length c - 1 do
        if st.count.(ix c.(k)) < st.count.(ix !p) then p := c.(k)
      done;
      let b = snapshot st !p st.occ in
      for k = 0 to b.len - 1 do
        let di = b.a.(k) in
        if di <> i
           && st.flags.(di) land (alive lor deletable) = alive lor deletable
           && subset_but c ~skip:(-1) st.lits.(di)
        then begin
          kill st di;
          st.acts <- Delete di :: st.acts;
          st.st.subsumed <- st.st.subsumed + 1;
          changed := true
        end
      done;
      (* self-subsuming resolution: D ∋ ¬l with c \ {l} ⊆ D loses ¬l *)
      for k = 0 to Array.length c - 1 do
        let nl = Lit.negate c.(k) in
        let b = snapshot st nl st.occ in
        for m = 0 to b.len - 1 do
          let di = b.a.(m) in
          if di <> i
             && st.flags.(di) land (alive lor deletable lor redundant) = alive lor deletable
             && subset_but c ~skip:k st.lits.(di)
          then begin
            let d' = without st.lits.(di) nl in
            kill st di;
            let id = push_clause st ~flags:(alive lor deletable) d' in
            st.acts <- Strengthen { target = di; parent = i; lits = d'; id } :: st.acts;
            st.st.strengthened <- st.st.strengthened + 1;
            changed := true
          end
        done
      done
    end;
    incr ci
  done;
  !changed

(* Merge [p] minus [pl] and [q] minus [nl] into [out] from [at] on, sorted
   and duplicate-free.  Returns the length, or [-1] when the resolvent is a
   tautology (a complementary pair sits side by side in index order) or is
   satisfied at level 0. *)
let resolve out ~at p ~pl q ~nl ~value =
  let np = Array.length p and nq = Array.length q in
  let pl = ix pl and nl = ix nl in
  let i = ref 0 and j = ref 0 and o = ref at and ok = ref true and last = ref (-2) in
  while !ok && (!i < np || !j < nq) do
    if !i < np && ix p.(!i) = pl then incr i
    else if !j < nq && ix q.(!j) = nl then incr j
    else begin
      let x =
        if !j = nq || (!i < np && ix p.(!i) < ix q.(!j)) then begin
          let x = p.(!i) in
          incr i;
          x
        end
        else if !i = np || ix q.(!j) < ix p.(!i) then begin
          let y = q.(!j) in
          incr j;
          y
        end
        else begin
          let x = p.(!i) in
          incr i;
          incr j;
          x
        end
      in
      if ix x = !last lxor 1 || value x = 1 then ok := false
      else begin
        out.(!o) <- x;
        incr o;
        last := ix x
      end
    end
  done;
  if !ok then !o - at else -1

(* The surviving resolvents on [var] in emission order (positive
   occurrence major, both sides newest first, redundant clauses skipped),
   back to back in [st.res].  Stops once more than [limit] survive: the
   count it returns then only says "too many". *)
let candidate_resolvents st ~value ~var ~limit =
  let pl = Lit.pos var and nl = Lit.neg var in
  let pa = st.pos_all and na = st.neg_all in
  st.res_off <- grow_ints st.res_off (limit + 2);
  st.res_pos <- grow_ints st.res_pos (limit + 1);
  st.res_neg <- grow_ints st.res_neg (limit + 1);
  st.res_off.(0) <- 0;
  let count = ref 0 in
  let a = ref 0 in
  while !count <= limit && !a < pa.len do
    let pi = pa.a.(!a) in
    if st.flags.(pi) land redundant = 0 then begin
      let p = st.lits.(pi) in
      let b = ref 0 in
      while !count <= limit && !b < na.len do
        let ni = na.a.(!b) in
        if st.flags.(ni) land redundant = 0 then begin
          let q = st.lits.(ni) in
          let at = st.res_off.(!count) in
          let need = at + Array.length p + Array.length q in
          if need > Array.length st.res then begin
            let res = Array.make (max need (2 * Array.length st.res)) pl in
            Array.blit st.res 0 res 0 at;
            st.res <- res
          end;
          let len = resolve st.res ~at p ~pl q ~nl ~value in
          if len >= 0 then begin
            st.res_pos.(!count) <- pi;
            st.res_neg.(!count) <- ni;
            incr count;
            st.res_off.(!count) <- at + len
          end
        end;
        incr b
      done
    end;
    incr a
  done;
  !count

let all_deletable st b =
  let ok = ref true in
  for k = 0 to b.len - 1 do
    if st.flags.(b.a.(k)) land deletable = 0 then ok := false
  done;
  !ok

let irredundant st b =
  let n = ref 0 in
  for k = 0 to b.len - 1 do
    if st.flags.(b.a.(k)) land redundant = 0 then incr n
  done;
  !n

let delete_live st b =
  for k = 0 to b.len - 1 do
    let c = b.a.(k) in
    if st.flags.(c) land alive <> 0 then begin
      kill st c;
      st.acts <- Delete c :: st.acts
    end
  done

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
      let pa = snapshot st (Lit.pos var) st.pos_all in
      let na = snapshot st (Lit.neg var) st.neg_all in
      if all_deletable st pa && all_deletable st na then begin
        let np = irredundant st pa and nn = irredundant st na in
        if np <= cfg.max_occurrences && nn <= cfg.max_occurrences then begin
          let limit = np + nn + cfg.growth in
          let n_res = candidate_resolvents st ~value ~var ~limit in
          if n_res <= limit then begin
            (* derive first, then save the reconstruction witness, then
               delete every remaining occurrence (redundant ones too) *)
            for k = 0 to n_res - 1 do
              let off = st.res_off.(k) in
              let lits = Array.sub st.res off (st.res_off.(k + 1) - off) in
              let id = push_clause st ~flags:(alive lor deletable) lits in
              st.acts <-
                Resolvent { pos = st.res_pos.(k); neg = st.res_neg.(k); lits; id; pivot = var }
                :: st.acts;
              st.st.resolvents <- st.st.resolvents + 1
            done;
            let saved = ref [] in
            for k = pa.len - 1 downto 0 do
              let c = pa.a.(k) in
              if st.flags.(c) land redundant = 0 then saved := st.lits.(c) :: !saved
            done;
            st.acts <- Eliminate { v = var; pos = !saved } :: st.acts;
            delete_live st pa;
            delete_live st na;
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

let create_state stats ~num_vars (clauses : clause_in array) =
  let n = Array.length clauses in
  let lits = Array.make (n + 16) [||] in
  let flags = Array.make (Array.length lits) 0 in
  let nlits = ref (2 * num_vars) in
  Array.iteri
    (fun i (c : clause_in) ->
      let k = Cnf.normalize_into c.lits ~into:c.lits in
      if k < 0 then invalid_arg "Inprocess.simplify: tautological clause";
      let s = if k = Array.length c.lits then c.lits else Array.sub c.lits 0 k in
      lits.(i) <- s;
      flags.(i) <-
        alive
        lor (if c.deletable then deletable else 0)
        lor if c.redundant then redundant else 0;
      if k > 0 then nlits := max !nlits (ix s.(k - 1) + 1))
    clauses;
  let nlits = !nlits in
  let count = Array.make nlits 0 in
  for i = 0 to n - 1 do
    let c = lits.(i) in
    for k = 0 to Array.length c - 1 do
      count.(ix c.(k)) <- count.(ix c.(k)) + 1
    done
  done;
  (* counting sort: [start.(l)] first holds the end of [l]'s segment and is
     walked down to its beginning while the clauses are placed in reverse,
     leaving each segment ascending *)
  let start = Array.make (nlits + 1) 0 in
  let total = ref 0 in
  for l = 0 to nlits - 1 do
    total := !total + count.(l);
    start.(l) <- !total
  done;
  start.(nlits) <- !total;
  let csr = Array.make !total 0 in
  for i = n - 1 downto 0 do
    let c = lits.(i) in
    for k = 0 to Array.length c - 1 do
      let l = ix c.(k) in
      start.(l) <- start.(l) - 1;
      csr.(start.(l)) <- i
    done
  done;
  {
    lits;
    flags;
    n;
    count;
    start;
    csr;
    head = Array.make nlits (-1);
    chain_clause = Array.make 64 0;
    chain_next = Array.make 64 0;
    chain_len = 0;
    occ = new_buf ();
    pos_all = new_buf ();
    neg_all = new_buf ();
    res = Array.make 64 (Lit.pos 0);
    res_off = Array.make 16 0;
    res_pos = Array.make 16 0;
    res_neg = Array.make 16 0;
    acts = [];
    st = stats;
  }

let simplify cfg stats ~num_vars ~frozen ~value ~deadline clauses =
  let st = create_state stats ~num_vars clauses in
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
