module Ast = Isched_frontend.Ast

type t = { coef : int; off : int }

let const n = { coef = 0; off = n }
let ivar = { coef = 1; off = 0 }

(* One scratch cell per call holds the form of the subexpression just
   walked, so normalizing a subscript allocates the cell and the result
   instead of a record and an option per node. *)
type cell = { mutable c : int; mutable o : int }

let[@inline] set cell c o =
  cell.c <- c;
  cell.o <- o;
  true

let rec walk cell (e : Ast.expr) =
  match e with
  | Ast.Num x -> Float.is_integer x && Float.abs x < 1e9 && set cell 0 (int_of_float x)
  | Ast.Ivar -> set cell 1 0
  | Ast.Scalar _ | Ast.Aref _ -> false
  | Ast.Neg a -> walk cell a && set cell (-cell.c) (-cell.o)
  | Ast.Bin (op, a, b) ->
    walk cell a
    &&
    let xc = cell.c and xo = cell.o in
    walk cell b
    &&
    let yc = cell.c and yo = cell.o in
    (match op with
    | Ast.Add -> set cell (xc + yc) (xo + yo)
    | Ast.Sub -> set cell (xc - yc) (xo - yo)
    | Ast.Mul ->
      if xc = 0 then set cell (xo * yc) (xo * yo)
      else if yc = 0 then set cell (yo * xc) (yo * xo)
      else false
    | Ast.Div -> false)

let some_ivar = Some ivar

let of_expr e =
  match e with
  | Ast.Ivar -> some_ivar
  | _ ->
    let cell = { c = 0; o = 0 } in
    if walk cell e then Some { coef = cell.c; off = cell.o } else None

let eval t i = (t.coef * i) + t.off

let equal a b = a.coef = b.coef && a.off = b.off

let to_string t =
  match (t.coef, t.off) with
  | 0, o -> string_of_int o
  | 1, 0 -> "I"
  | 1, o when o > 0 -> Printf.sprintf "I+%d" o
  | 1, o -> Printf.sprintf "I%d" o
  | c, 0 -> Printf.sprintf "%d*I" c
  | c, o when o > 0 -> Printf.sprintf "%d*I+%d" c o
  | c, o -> Printf.sprintf "%d*I%d" c o

let pp ppf t = Format.pp_print_string ppf (to_string t)

let to_expr t =
  let open Ast in
  match (t.coef, t.off) with
  | 0, o -> Num (float_of_int o)
  | 1, 0 -> Ivar
  | 1, o when o > 0 -> Bin (Add, Ivar, Num (float_of_int o))
  | 1, o -> Bin (Sub, Ivar, Num (float_of_int (-o)))
  | c, 0 -> Bin (Mul, Num (float_of_int c), Ivar)
  | c, o when o > 0 -> Bin (Add, Bin (Mul, Num (float_of_int c), Ivar), Num (float_of_int o))
  | c, o -> Bin (Sub, Bin (Mul, Num (float_of_int c), Ivar), Num (float_of_int (-o)))
