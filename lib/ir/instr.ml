type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Shl
  | Shr
  | FAdd
  | FSub
  | FMul
  | FDiv
  | CmpLt
  | CmpLe
  | CmpGt
  | CmpGe
  | CmpEq
  | CmpNe

type t =
  | Bin of { op : binop; dst : int; a : Operand.t; b : Operand.t }
  | Select of { dst : int; cond : Operand.t; if_true : Operand.t; if_false : Operand.t }
  | Load of { dst : int; base : string; addr : Operand.t }
  | Store of { base : string; addr : Operand.t; src : Operand.t }
  | Load_scalar of { dst : int; name : string }
  | Store_scalar of { name : string; src : Operand.t }
  | Send of { signal : int }
  | Wait of { wait : int }

let binop_fu = function
  | Add | Sub | CmpLt | CmpLe | CmpGt | CmpGe | CmpEq | CmpNe -> Fu.Integer
  | Shl | Shr -> Fu.Shifter
  | Mul | FMul -> Fu.Multiplier
  | Div | FDiv -> Fu.Divider
  | FAdd | FSub -> Fu.Float

let fu = function
  | Bin { op; _ } -> Some (binop_fu op)
  | Select _ -> Some Fu.Integer
  | Load _ | Store _ | Load_scalar _ | Store_scalar _ -> Some Fu.Load_store
  | Send _ | Wait _ -> None

(* [Bin] apart, [fu] returns constant options, so this allocates
   nothing: the DFG builder asks for the latency of every arc's producer. *)
let latency = function
  | Bin { op; _ } -> Fu.latency (binop_fu op)
  | i -> ( match fu i with None -> 1 | Some k -> Fu.latency k)

let def = function
  | Bin { dst; _ } | Select { dst; _ } | Load { dst; _ } | Load_scalar { dst; _ } -> Some dst
  | Store _ | Store_scalar _ | Send _ | Wait _ -> None

let uses i =
  let of_op o = match Operand.reg o with Some r -> [ r ] | None -> [] in
  match i with
  | Bin { a; b; _ } -> of_op a @ of_op b
  | Select { cond; if_true; if_false; _ } -> of_op cond @ of_op if_true @ of_op if_false
  | Load { addr; _ } -> of_op addr
  | Store { addr; src; _ } -> of_op addr @ of_op src
  | Load_scalar _ -> []
  | Store_scalar { src; _ } -> of_op src
  | Send _ | Wait _ -> []

(* Allocation-free twin of [uses], same visit order: the DFG builder
   walks every instruction's uses on the corpus hot path. *)
let[@inline] iter_reg f (o : Operand.t) = match o with Reg r -> f r | Imm _ | Fimm _ | Ivar -> ()

let iter_uses i f =
  match i with
  | Bin { a; b; _ } ->
    iter_reg f a;
    iter_reg f b
  | Select { cond; if_true; if_false; _ } ->
    iter_reg f cond;
    iter_reg f if_true;
    iter_reg f if_false
  | Load { addr; _ } -> iter_reg f addr
  | Store { addr; src; _ } ->
    iter_reg f addr;
    iter_reg f src
  | Load_scalar _ -> ()
  | Store_scalar { src; _ } -> iter_reg f src
  | Send _ | Wait _ -> ()

let is_sync = function Send _ | Wait _ -> true | _ -> false

let is_mem = function
  | Load _ | Store _ | Load_scalar _ | Store_scalar _ -> true
  | Bin _ | Select _ | Send _ | Wait _ -> false

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Shl -> "<<"
  | Shr -> ">>"
  | FAdd -> "+."
  | FSub -> "-."
  | FMul -> "*."
  | FDiv -> "/."
  | CmpLt -> "<"
  | CmpLe -> "<="
  | CmpGt -> ">"
  | CmpGe -> ">="
  | CmpEq -> "=="
  | CmpNe -> "!="

let pp_full ~signal_name ~wait_name ppf i =
  let os = Operand.to_string in
  match i with
  | Bin { op; dst; a; b } ->
    Format.fprintf ppf "t%d := %s %s %s" dst (os a) (binop_name op) (os b)
  | Select { dst; cond; if_true; if_false } ->
    Format.fprintf ppf "t%d := %s ? %s : %s" dst (os cond) (os if_true) (os if_false)
  | Load { dst; base; addr } -> Format.fprintf ppf "t%d := %s[%s]" dst base (os addr)
  | Store { base; addr; src } -> Format.fprintf ppf "%s[%s] := %s" base (os addr) (os src)
  | Load_scalar { dst; name } -> Format.fprintf ppf "t%d := %s" dst name
  | Store_scalar { name; src } -> Format.fprintf ppf "%s := %s" name (os src)
  | Send { signal } -> Format.fprintf ppf "Send_Signal(%s)" (signal_name signal)
  | Wait { wait } -> Format.fprintf ppf "Wait_Signal(%s)" (wait_name wait)

let pp ppf i =
  pp_full
    ~signal_name:(fun s -> Printf.sprintf "sig%d" s)
    ~wait_name:(fun w -> Printf.sprintf "wat%d" w)
    ppf i

let to_string i = Format.asprintf "%a" pp i

let equal a b = a = b
