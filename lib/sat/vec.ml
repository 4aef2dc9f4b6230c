type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ?(capacity = 16) ~dummy () =
  let capacity = max capacity 1 in
  { data = Array.make capacity dummy; len = 0; dummy }

let length v = v.len

let is_empty v = v.len = 0

let check v i =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Vec: index %d out of bounds (len %d)" i v.len)

let get v i =
  check v i;
  v.data.(i)

let set v i x =
  check v i;
  v.data.(i) <- x

let grow v =
  let cap = Array.length v.data in
  let data = Array.make (2 * cap) v.dummy in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty";
  v.len <- v.len - 1;
  let x = v.data.(v.len) in
  v.data.(v.len) <- v.dummy;
  x

let last v =
  if v.len = 0 then invalid_arg "Vec.last: empty";
  v.data.(v.len - 1)

let clear v =
  Array.fill v.data 0 v.len v.dummy;
  v.len <- 0

let shrink v n =
  if n < 0 || n > v.len then invalid_arg "Vec.shrink";
  Array.fill v.data n (v.len - n) v.dummy;
  v.len <- n

let shrink_retain v n =
  if n < 0 || n > v.len then invalid_arg "Vec.shrink_retain";
  v.len <- n

let clear_retain v = v.len <- 0

let reuse a n init =
  if Array.length a >= n then begin
    Array.fill a 0 (Array.length a) init;
    a
  end
  else Array.make (max n (2 * Array.length a)) init

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let exists p v =
  let rec loop i = i < v.len && (p v.data.(i) || loop (i + 1)) in
  loop 0

let to_list v =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (v.data.(i) :: acc) in
  loop (v.len - 1) []

let of_list ~dummy xs =
  let v = create ~capacity:(max 1 (List.length xs)) ~dummy () in
  List.iter (push v) xs;
  v

let to_array v = Array.sub v.data 0 v.len

let filter_in_place p v =
  let j = ref 0 in
  for i = 0 to v.len - 1 do
    let x = v.data.(i) in
    if p x then begin
      v.data.(!j) <- x;
      incr j
    end
  done;
  let n = !j in
  Array.fill v.data n (v.len - n) v.dummy;
  v.len <- n
