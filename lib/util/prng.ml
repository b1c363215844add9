(* The 64-bit state lives in an 8-byte buffer rather than a mutable
   [int64] field: reads and writes of it stay unboxed, so drawing a
   number allocates nothing (a boxed field costs one allocation per
   draw, and corpus generation draws a few hundred times per loop). *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))
let copy = Bytes.copy

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let bits64 t = next t
let split t = of_state (mix64 (next t))

(* O(1) random access into the split stream: [split_nth t i] equals the
   i-th (0-based) generator a sequence of [split t] calls would return,
   without mutating [t].  [next] adds the gamma before mixing, so the
   i-th sequential split sees the state of [t] plus [(i+1) * gamma]. *)
let split_nth t i =
  if i < 0 then invalid_arg "Prng.split_nth: negative index";
  let s = Int64.add (Bytes.get_int64_ne t 0) (Int64.mul golden_gamma (Int64.of_int (i + 1))) in
  of_state (mix64 (mix64 s))

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is negligible for the
     small bounds used by the corpus generator.  Shift by 2 so the value
     fits OCaml's 63-bit native int and stays non-negative. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] float t =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let bool t p = float t < p

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choose: empty array";
  arr.(int t (Array.length arr))

let weighted t choices =
  let total = List.fold_left (fun acc (w, _) -> acc +. Float.max 0. w) 0. choices in
  if total <= 0. then invalid_arg "Prng.weighted: weights must sum to > 0";
  let x = float t *. total in
  let rec go acc = function
    | [] -> invalid_arg "Prng.weighted: internal"
    | [ (_, v) ] -> v
    | (w, v) :: rest ->
      let acc = acc +. Float.max 0. w in
      if x < acc then v else go acc rest
  in
  go 0. choices

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
