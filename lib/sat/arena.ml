type cref = int

let none = -1

(* Block layout: [header | cid | activity | lits...].  The header packs
   (size lsl 3) with the three flag bits below; the cid slot doubles as the
   forwarding pointer once a block has been relocated. *)
let hdr_words = 3

let flag_learnt = 1

let flag_deleted = 2

let flag_reloced = 4

let activity_unit = 1 lsl 10

type t = {
  mutable data : int array;
  mutable size : int; (* words in use, including wasted blocks *)
  mutable wasted : int; (* words in deleted blocks *)
}

let words ~clauses ~literals = (hdr_words * clauses) + literals

let create ?(capacity = 1024) () =
  { data = Array.make (max capacity hdr_words) 0; size = 0; wasted = 0 }

(* Stale words need no clearing: [alloc] writes every word of a block. *)
let reset a ~capacity =
  a.size <- 0;
  a.wasted <- 0;
  if Array.length a.data < capacity then
    a.data <- Array.make (max capacity (2 * Array.length a.data)) 0

(* Accessors are unchecked: a cref is only ever obtained from [alloc] or
   [reloc], so the block bounds are an invariant, not a runtime question. *)
let[@inline] header a cr = Array.unsafe_get a.data cr

let[@inline] size a cr = header a cr lsr 3

let[@inline] learnt a cr = header a cr land flag_learnt <> 0

let[@inline] deleted a cr = header a cr land flag_deleted <> 0

let[@inline] relocated a cr = header a cr land flag_reloced <> 0

let[@inline] cid a cr = Array.unsafe_get a.data (cr + 1)

let[@inline] activity a cr = Array.unsafe_get a.data (cr + 2)

let[@inline] set_activity a cr act = Array.unsafe_set a.data (cr + 2) act

let[@inline] bump_activity a cr = set_activity a cr (activity a cr + activity_unit)

let[@inline] halve_activity a cr = set_activity a cr (activity a cr asr 1)

let[@inline] lit a cr i = Lit.of_index (Array.unsafe_get a.data (cr + hdr_words + i))

let[@inline] set_lit a cr i l = Array.unsafe_set a.data (cr + hdr_words + i) (Lit.to_index l)

let swap_lits a cr i j =
  let tmp = Array.unsafe_get a.data (cr + hdr_words + i) in
  Array.unsafe_set a.data (cr + hdr_words + i) (Array.unsafe_get a.data (cr + hdr_words + j));
  Array.unsafe_set a.data (cr + hdr_words + j) tmp

let ensure a words =
  let needed = a.size + words in
  if needed > Array.length a.data then begin
    let cap = ref (max 1024 (Array.length a.data)) in
    while needed > !cap do
      cap := !cap * 2
    done;
    let data = Array.make !cap 0 in
    Array.blit a.data 0 data 0 a.size;
    a.data <- data
  end

let alloc a ~cid ~learnt lits n =
  if n < 0 || n > Array.length lits then invalid_arg "Arena.alloc: bad length";
  ensure a (hdr_words + n);
  let cr = a.size in
  a.data.(cr) <- (n lsl 3) lor (if learnt then flag_learnt else 0);
  a.data.(cr + 1) <- cid;
  a.data.(cr + 2) <- (if learnt then activity_unit else 0);
  for i = 0 to n - 1 do
    Array.unsafe_set a.data (cr + hdr_words + i) (Lit.to_index (Array.unsafe_get lits i))
  done;
  a.size <- a.size + hdr_words + n;
  cr

let delete a cr =
  if not (deleted a cr) then begin
    a.wasted <- a.wasted + hdr_words + size a cr;
    a.data.(cr) <- header a cr lor flag_deleted
  end

let iter_lits a cr f =
  for i = 0 to size a cr - 1 do
    f (lit a cr i)
  done

let lits_list a cr =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (lit a cr i :: acc) in
  loop (size a cr - 1) []

let lits_array a cr =
  let n = size a cr in
  if n = 0 then [||]
  else begin
    let out = Array.make n (lit a cr 0) in
    for i = 1 to n - 1 do
      out.(i) <- lit a cr i
    done;
    out
  end

let extent a = a.size

let iter a f =
  let cr = ref 0 in
  while !cr < a.size do
    let here = !cr in
    cr := here + hdr_words + size a here;
    f here
  done

let live_words a = a.size - a.wasted

let bytes a = a.size * (Sys.word_size / 8)

let should_gc a ~max_waste =
  a.wasted > 0 && float_of_int a.wasted >= max_waste *. float_of_int a.size

let reloc a ~into cr =
  if relocated a cr then cid a cr
  else begin
    if deleted a cr then invalid_arg "Arena.reloc: deleted clause reachable from a root";
    let words = hdr_words + size a cr in
    ensure into words;
    let cr' = into.size in
    Array.blit a.data cr into.data cr' words;
    into.size <- into.size + words;
    a.data.(cr) <- header a cr lor flag_reloced;
    a.data.(cr + 1) <- cr';
    cr'
  end

let commit a ~into =
  a.data <- into.data;
  a.size <- into.size;
  a.wasted <- into.wasted

module Watch = struct
  type w = {
    mutable data : int array; (* blocker at 2i, cref at 2i+1 *)
    mutable len : int; (* pair count *)
  }

  let create ?(capacity = 0) () = { data = Array.make (2 * capacity) 0; len = 0 }

  let length w = w.len

  let[@inline] blocker w i = Lit.of_index (Array.unsafe_get w.data (2 * i))

  let[@inline] cref w i = Array.unsafe_get w.data ((2 * i) + 1)

  let[@inline] set w i b c =
    Array.unsafe_set w.data (2 * i) (Lit.to_index b);
    Array.unsafe_set w.data ((2 * i) + 1) c

  let push w b c =
    let cap = Array.length w.data in
    if 2 * w.len = cap then begin
      let data = Array.make (max 4 (2 * cap)) 0 in
      Array.blit w.data 0 data 0 (2 * w.len);
      w.data <- data
    end;
    w.len <- w.len + 1;
    set w (w.len - 1) b c

  let truncate w n = w.len <- n

  let reset w ~capacity =
    w.len <- 0;
    if Array.length w.data < 2 * capacity then
      w.data <- Array.make (2 * max capacity (Array.length w.data)) 0

  let filter_crefs w keep =
    let j = ref 0 in
    for i = 0 to w.len - 1 do
      if keep (cref w i) then begin
        if !j < i then set w !j (blocker w i) (cref w i);
        incr j
      end
    done;
    w.len <- !j

  let map_crefs w f =
    for i = 0 to w.len - 1 do
      Array.unsafe_set w.data ((2 * i) + 1) (f (cref w i))
    done

  let fold_crefs f acc w =
    let acc = ref acc in
    for i = 0 to w.len - 1 do
      acc := f !acc (cref w i)
    done;
    !acc
end
