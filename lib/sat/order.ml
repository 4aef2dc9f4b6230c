type mode =
  | Vsids
  | Static of float array
  | Dynamic of float array

type t = {
  mutable num_vars : int;
  mutable act : float array; (* per literal index *)
  mutable rank : float array; (* per variable *)
  mutable use_rank : bool;
  mutable dynamic : bool;
  mutable live : bool; (* heap kept in order: from [rebuild] to [suspend] *)
  (* indexed binary max-heap over variables *)
  mutable heap : int array;
  mutable heap_len : int;
  mutable pos : int array; (* variable -> heap slot, -1 if absent *)
  mutable cmps : int; (* key comparisons since [reset] *)
}

let mode_uses_rank t = t.use_rank

let is_dynamic t = t.dynamic

let comparisons t = t.cmps

let init_activity t occurrences =
  for i = 0 to min (Array.length occurrences) (2 * t.num_vars) - 1 do
    t.act.(i) <- float_of_int occurrences.(i)
  done

(* A variable's better literal index: the higher-activity one of its two,
   the positive one on a tie ([Lit] packs [v] as [2v], [¬v] as [2v+1]). *)
let best t v =
  let p = 2 * v in
  if t.act.(p + 1) > t.act.(p) then p + 1 else p

(* Decision key of a variable: (its rank when the rank component is active,
   its better literal's activity, that literal's index, lower first).  Both
   literals of a variable share its rank, so this orders variables exactly
   as the per-literal key (rank of the variable, activity, literal index)
   orders their better literals.  [gt t u v] holds when [u] must sit above
   [v] in the max-heap. *)
let gt t u v =
  t.cmps <- t.cmps + 1;
  if t.use_rank && t.rank.(u) <> t.rank.(v) then t.rank.(u) > t.rank.(v)
  else begin
    let a = best t u and b = best t v in
    if t.act.(a) <> t.act.(b) then t.act.(a) > t.act.(b) else a < b
  end

(* Both sifts carry the moving variable [v] in a hole and write it once,
   where it comes to rest.  The hole walks are toplevel functions, so a
   sift allocates nothing. *)
let rec hole_up t v i =
  if i = 0 then i
  else begin
    let parent = (i - 1) / 2 in
    let u = t.heap.(parent) in
    if gt t v u then begin
      t.heap.(i) <- u;
      t.pos.(u) <- i;
      hole_up t v parent
    end
    else i
  end

let rec hole_down t v i =
  let l = (2 * i) + 1 in
  if l >= t.heap_len then i
  else begin
    let r = l + 1 in
    let c = if r < t.heap_len && gt t t.heap.(r) t.heap.(l) then r else l in
    let u = t.heap.(c) in
    if gt t u v then begin
      t.heap.(i) <- u;
      t.pos.(u) <- i;
      hole_down t v c
    end
    else i
  end

let sift_up t i =
  let v = t.heap.(i) in
  let i = hole_up t v i in
  t.heap.(i) <- v;
  t.pos.(v) <- i

let sift_down t i =
  let v = t.heap.(i) in
  let i = hole_down t v i in
  t.heap.(i) <- v;
  t.pos.(v) <- i

let heapify t =
  for i = (t.heap_len / 2) - 1 downto 0 do
    sift_down t i
  done

let insert t v =
  if t.pos.(v) < 0 then begin
    let i = t.heap_len in
    t.heap.(i) <- v;
    t.pos.(v) <- i;
    t.heap_len <- i + 1;
    sift_up t i
  end

let rebuild t ~is_unassigned =
  Array.fill t.pos 0 t.num_vars (-1);
  t.heap_len <- 0;
  for v = 0 to t.num_vars - 1 do
    if is_unassigned v then begin
      t.heap.(t.heap_len) <- v;
      t.pos.(v) <- t.heap_len;
      t.heap_len <- t.heap_len + 1
    end
  done;
  heapify t;
  t.live <- true

let suspend t = t.live <- false

(* A bump only raises the variable's key (its better literal's key is the
   larger of its two literals' keys), so a sift-up restores the heap. *)
let bump_by t l amount =
  let i = Lit.to_index l in
  t.act.(i) <- t.act.(i) +. amount;
  if t.live then begin
    let p = t.pos.(Lit.var l) in
    if p >= 0 then sift_up t p
  end

let bump t l = bump_by t l 1.0

(* Halving every key preserves the heap order, so no restructuring. *)
let halve_all t =
  for i = 0 to (2 * t.num_vars) - 1 do
    t.act.(i) <- t.act.(i) *. 0.5
  done

let on_unassign t v = if t.live then insert t v

let rec pop_best t ~is_unassigned =
  if t.heap_len = 0 then None
  else begin
    let v = t.heap.(0) in
    t.heap_len <- t.heap_len - 1;
    t.pos.(v) <- -1;
    if t.heap_len > 0 then begin
      t.heap.(0) <- t.heap.(t.heap_len);
      sift_down t 0
    end;
    if is_unassigned v then Some (Lit.of_index (best t v)) else pop_best t ~is_unassigned
  end

let switch_to_vsids t =
  if t.use_rank then begin
    t.use_rank <- false;
    (* Re-heapify the surviving entries under the new key. *)
    if t.live then heapify t
  end

let activity t l = t.act.(Lit.to_index l)

let decided_by_rank t v = t.use_rank && t.rank.(v) > 0.0

let grow t ~num_vars =
  if num_vars > t.num_vars then begin
    (* Grow capacity geometrically: callers add variables one at a time
       (incremental clause loading), and exact-fit reallocation there is
       quadratic.  The per-variable arrays share one capacity, [act] has
       two slots per variable; the logical size stays [t.num_vars]. *)
    let capacity = Array.length t.rank in
    if num_vars > capacity then begin
      let cap = max (2 * capacity) num_vars in
      let copy_into src size init =
        let dst = Array.make size init in
        Array.blit src 0 dst 0 (Array.length src);
        dst
      in
      t.act <- copy_into t.act (2 * cap) 0.0;
      t.rank <- copy_into t.rank cap 0.0;
      t.pos <- copy_into t.pos cap (-1);
      t.heap <- copy_into t.heap cap (-1)
    end;
    t.num_vars <- num_vars
  end

(* Install a fresh per-variable ranking (and mode) for the next solve call.
   The heap order is stale from here until the caller rebuilds it, so the
   heap stops being maintained. *)
let set_mode t mode =
  (match mode with
  | Vsids ->
    Array.fill t.rank 0 (Array.length t.rank) 0.0;
    t.use_rank <- false;
    t.dynamic <- false
  | Static r | Dynamic r ->
    Array.fill t.rank 0 (Array.length t.rank) 0.0;
    Array.blit r 0 t.rank 0 (min (Array.length r) t.num_vars);
    t.use_rank <- true;
    t.dynamic <- (match mode with Dynamic _ -> true | Vsids | Static _ -> false));
  t.live <- false

let reset t ~num_vars mode =
  if num_vars < 0 then invalid_arg "Order: negative num_vars";
  Array.fill t.act 0 (Array.length t.act) 0.0;
  Array.fill t.pos 0 (Array.length t.pos) (-1);
  t.heap_len <- 0;
  t.cmps <- 0;
  t.num_vars <- 0;
  grow t ~num_vars;
  set_mode t mode

let create ~num_vars mode =
  let t =
    {
      num_vars = 0;
      act = [||];
      rank = [||];
      use_rank = false;
      dynamic = false;
      live = false;
      heap = [||];
      heap_len = 0;
      pos = [||];
      cmps = 0;
    }
  in
  reset t ~num_vars mode;
  t

(* Point update of one variable's rank while the heap is live.  Unlike
   [bump], a rank may fall as well as rise, so the variable's entry gets a
   sift in both directions (one of the two is a no-op). *)
let set_rank t v r =
  if v >= 0 && v < t.num_vars then begin
    t.rank.(v) <- r;
    if t.live && t.use_rank then begin
      let p = t.pos.(v) in
      if p >= 0 then begin
        sift_up t p;
        sift_down t t.pos.(v)
      end
    end
  end
