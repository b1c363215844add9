(* Elements are stored unboxed: the backing array of an empty vector is
   made from the first element pushed, which fills the spare capacity.
   Slots at or past [size] are never read. *)
type 'a t = { mutable data : 'a array; mutable size : int }

let create () = { data = [||]; size = 0 }
let length v = v.size

(* Doubling appends the full array to itself rather than filling a new
   one with [x]: [Array.make] of a major-heap-sized array from a young
   [x] forces a minor collection, which stops every domain. *)
let grow v x = v.data <- (if Array.length v.data = 0 then Array.make 8 x else Array.append v.data v.data)

let push v x =
  if v.size = Array.length v.data then grow v x;
  Array.unsafe_set v.data v.size x;
  v.size <- v.size + 1

let get v i =
  if i < 0 || i >= v.size then invalid_arg "Vec.get";
  Array.unsafe_get v.data i

let set v i x =
  if i < 0 || i >= v.size then invalid_arg "Vec.set";
  Array.unsafe_set v.data i x

let to_array v = Array.sub v.data 0 v.size
let to_list v = List.init v.size (fun i -> Array.unsafe_get v.data i)

let of_list xs =
  let v = create () in
  List.iter (push v) xs;
  v

let iter f v =
  for i = 0 to v.size - 1 do
    f (Array.unsafe_get v.data i)
  done

let iteri f v =
  for i = 0 to v.size - 1 do
    f i (Array.unsafe_get v.data i)
  done

let last v = if v.size = 0 then raise Not_found else Array.unsafe_get v.data (v.size - 1)

let ensure_size v n x =
  while v.size < n do
    push v x
  done

let get_or v i default = if i < 0 || i >= v.size then default else Array.unsafe_get v.data i

(* The backing array stays, so a scratch vector reused across calls
   stops allocating once it has grown to its working size. *)
let clear v = v.size <- 0
