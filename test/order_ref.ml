(* The decision heap as it stood before the per-variable rewrite of
   [Sat.Order], kept as the test oracle for the identical-pick invariant:
   driven through the solver's protocol, the production heap must pop the
   same literal as this one.  It keeps one entry per literal, two per
   variable, re-inserts both on unassignment and discards assigned entries
   lazily.

   Verbatim but for the open below and [set_rank].  The old [set_rank]
   repaired the variable's two entries one after the other, and the first
   repair compared against the second entry while that one was still out
   of place: with a variable's two literals at the top of the heap, a rank
   drop could leave a higher-keyed literal buried under a lower one, so
   [pop_best] returned a literal that was not the key's maximum.  Here
   [set_rank] re-heapifies instead, so this heap pops strictly by the key
   the production heap pops by. *)

open Sat

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
  (* indexed binary max-heap over literal indices *)
  mutable heap : int array;
  mutable heap_len : int;
  mutable pos : int array; (* literal index -> heap slot, -1 if absent *)
}

let mode_uses_rank t = t.use_rank

let is_dynamic t = t.dynamic

let init_activity t occurrences =
  for i = 0 to min (Array.length occurrences) (2 * t.num_vars) - 1 do
    t.act.(i) <- float_of_int occurrences.(i)
  done

(* Decision key: (rank of variable, literal activity, literal index) when the
   rank component is active, else (activity, literal index).  [gt a b] holds
   when literal [a] must sit above [b] in the max-heap. *)
let gt t a b =
  if t.use_rank then begin
    let ra = t.rank.(a lsr 1) and rb = t.rank.(b lsr 1) in
    if ra <> rb then ra > rb
    else if t.act.(a) <> t.act.(b) then t.act.(a) > t.act.(b)
    else a < b
  end
  else if t.act.(a) <> t.act.(b) then t.act.(a) > t.act.(b)
  else a < b

let swap t i j =
  let a = t.heap.(i) and b = t.heap.(j) in
  t.heap.(i) <- b;
  t.heap.(j) <- a;
  t.pos.(b) <- i;
  t.pos.(a) <- j

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if gt t t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.heap_len && gt t t.heap.(l) t.heap.(!best) then best := l;
  if r < t.heap_len && gt t t.heap.(r) t.heap.(!best) then best := r;
  if !best <> i then begin
    swap t i !best;
    sift_down t !best
  end

let insert t lit_idx =
  if t.pos.(lit_idx) < 0 then begin
    let i = t.heap_len in
    t.heap.(i) <- lit_idx;
    t.pos.(lit_idx) <- i;
    t.heap_len <- i + 1;
    sift_up t i
  end

let rebuild t ~is_unassigned =
  Array.fill t.pos 0 (Array.length t.pos) (-1);
  t.heap_len <- 0;
  for v = 0 to t.num_vars - 1 do
    if is_unassigned v then begin
      (* bulk fill, heapify below *)
      let p = Lit.to_index (Lit.pos v) and n = Lit.to_index (Lit.neg v) in
      t.heap.(t.heap_len) <- p;
      t.pos.(p) <- t.heap_len;
      t.heap_len <- t.heap_len + 1;
      t.heap.(t.heap_len) <- n;
      t.pos.(n) <- t.heap_len;
      t.heap_len <- t.heap_len + 1
    end
  done;
  for i = (t.heap_len / 2) - 1 downto 0 do
    sift_down t i
  done

let bump t l =
  let i = Lit.to_index l in
  t.act.(i) <- t.act.(i) +. 1.0;
  if t.pos.(i) >= 0 then sift_up t t.pos.(i)

(* Halving every key preserves the heap order, so no restructuring. *)
let halve_all t =
  for i = 0 to Array.length t.act - 1 do
    t.act.(i) <- t.act.(i) *. 0.5
  done

let on_unassign t v =
  insert t (Lit.to_index (Lit.pos v));
  insert t (Lit.to_index (Lit.neg v))

let pop_best t ~is_unassigned =
  let rec loop () =
    if t.heap_len = 0 then None
    else begin
      let top = t.heap.(0) in
      t.heap_len <- t.heap_len - 1;
      t.pos.(top) <- -1;
      if t.heap_len > 0 then begin
        let moved = t.heap.(t.heap_len) in
        t.heap.(0) <- moved;
        t.pos.(moved) <- 0;
        sift_down t 0
      end;
      let l = Lit.of_index top in
      if is_unassigned (Lit.var l) then Some l else loop ()
    end
  in
  loop ()

let switch_to_vsids t =
  if t.use_rank then begin
    t.use_rank <- false;
    (* Re-heapify the surviving entries under the new key. *)
    for i = (t.heap_len / 2) - 1 downto 0 do
      sift_down t i
    done
  end

let activity t l = t.act.(Lit.to_index l)

let decided_by_rank t v = t.use_rank && t.rank.(v) > 0.0

let grow t ~num_vars =
  if num_vars > t.num_vars then begin
    (* Grow capacity geometrically: callers add variables one at a time
       (incremental clause loading), and exact-fit reallocation there is
       quadratic.  Capacity is the smaller of the per-variable and
       per-literal array allowances; the logical size stays [t.num_vars]. *)
    let capacity = min (Array.length t.rank) (Array.length t.pos / 2) in
    if num_vars > capacity then begin
      let cap = max (2 * capacity) num_vars in
      let nlits = max (2 * cap) 1 in
      let copy_into src size init =
        let dst = Array.make size init in
        Array.blit src 0 dst 0 (Array.length src);
        dst
      in
      t.act <- copy_into t.act nlits 0.0;
      t.rank <- copy_into t.rank (max cap 1) 0.0;
      t.pos <- copy_into t.pos nlits (-1);
      let heap = Array.make nlits (-1) in
      Array.blit t.heap 0 heap 0 t.heap_len;
      t.heap <- heap
    end;
    t.num_vars <- num_vars
  end

(* Install a fresh per-variable ranking (and mode) for the next solve call;
   the caller is expected to rebuild the heap afterwards. *)
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
  (* stale heap order: callers rebuild before popping *)
  ()

let reset t ~num_vars mode =
  if num_vars < 0 then invalid_arg "Order: negative num_vars";
  Array.fill t.act 0 (Array.length t.act) 0.0;
  Array.fill t.pos 0 (Array.length t.pos) (-1);
  t.heap_len <- 0;
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
      heap = [||];
      heap_len = 0;
      pos = [||];
    }
  in
  reset t ~num_vars mode;
  t

let bump_by t l amount =
  let i = Lit.to_index l in
  t.act.(i) <- t.act.(i) +. amount;
  if t.pos.(i) >= 0 then sift_up t t.pos.(i)

(* Point update of one variable's rank.  Both of the variable's entries
   change key at once, so the whole heap is re-heapified. *)
let set_rank t v r =
  if v >= 0 && v < t.num_vars then begin
    t.rank.(v) <- r;
    if t.use_rank then
      for i = (t.heap_len / 2) - 1 downto 0 do
        sift_down t i
      done
  end
