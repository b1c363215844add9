module Ast = Isched_frontend.Ast

type t = {
  stmt : int;
  idx : int;
  target : string;
  is_array : bool;
  sub : Ast.expr option;
  affine : Affine.t option;
  is_write : bool;
}

let make ~stmt ~idx ~target ~is_array ~sub ~is_write =
  let sub, affine = if is_array then (Some sub, Affine.of_expr sub) else (None, None) in
  { stmt; idx; target; is_array; sub; affine; is_write }

(* Reads of an expression, inner subscripts before the enclosing
   reference, left to right; [n] is the index of the first one, and the
   result the index after the last. *)
let rec reads_of f n (e : Ast.expr) =
  match e with
  | Ast.Num _ | Ast.Ivar -> n
  | Ast.Scalar name ->
    f n name false e false;
    n + 1
  | Ast.Aref (a, sub) ->
    let n = reads_of f n sub in
    f n a true sub false;
    n + 1
  | Ast.Bin (_, x, y) -> reads_of f (reads_of f n x) y
  | Ast.Neg x -> reads_of f n x

(* The evaluation-order walk behind [of_stmt].  It builds no record, so
   a caller interested in few of the accesses allocates only those. *)
let iter_stmt (s : Ast.stmt) f =
  let n = match s.guard with Some c -> reads_of f (reads_of f 0 c.lhs) c.rhs | None -> 0 in
  let n = match s.lhs with Ast.Larr (_, sub) -> reads_of f n sub | Ast.Lscalar _ -> n in
  let n = reads_of f n s.rhs in
  match s.lhs with
  | Ast.Larr (a, sub) -> f n a true sub true
  | Ast.Lscalar name -> f n name false s.rhs true

let of_stmt ~stmt (s : Ast.stmt) =
  let acc = ref [] in
  iter_stmt s (fun idx target is_array sub is_write ->
      acc := make ~stmt ~idx ~target ~is_array ~sub ~is_write :: !acc);
  List.rev !acc

let of_loop (l : Ast.loop) =
  List.concat (List.mapi (fun i s -> of_stmt ~stmt:i s) l.body)

let writes l = List.filter (fun a -> a.is_write) (of_loop l)
let reads l = List.filter (fun a -> not a.is_write) (of_loop l)

let pp ppf a =
  let rw = if a.is_write then "W" else "R" in
  match a.sub with
  | None -> Format.fprintf ppf "%s:%s (S%d.%d)" rw a.target (a.stmt + 1) a.idx
  | Some sub ->
    Format.fprintf ppf "%s:%s[%a] (S%d.%d)" rw a.target Isched_frontend.Ast.pp_expr sub
      (a.stmt + 1) a.idx
