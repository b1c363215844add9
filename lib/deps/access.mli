(** Memory-access extraction.

    Every statement is flattened into an ordered list of memory accesses
    — the order in which the generated three-address code will touch
    memory: guard reads first, then left-hand-side subscript reads, then
    right-hand-side reads (left to right, inner subscript reads before
    the enclosing array read), and the write last.

    The (statement index, access index) pair identifies an access
    stably; the code generator enumerates accesses in exactly this order,
    which is how statement-level dependences are mapped onto the
    three-address instructions that realise them. *)

module Ast := Isched_frontend.Ast

type t = {
  stmt : int;  (** statement index in the loop body (0-based) *)
  idx : int;  (** position within the statement's access list *)
  target : string;  (** array or scalar name *)
  is_array : bool;
  sub : Ast.expr option;  (** subscript, [None] for scalars *)
  affine : Affine.t option;  (** normalized subscript when analyzable *)
  is_write : bool;
}

(** [of_stmt ~stmt s] lists the accesses of statement [s] in evaluation
    order. *)
val of_stmt : stmt:int -> Ast.stmt -> t list

(** [iter_stmt s f] walks the accesses of [s] in the order of
    {!of_stmt} without building them: [f idx target is_array sub
    is_write] per access, where [sub] is the subscript of an array
    access and an unspecified expression for a scalar one.  [make]
    then builds the record {!of_stmt} would hold for an access. *)
val iter_stmt : Ast.stmt -> (int -> string -> bool -> Ast.expr -> bool -> unit) -> unit

val make :
  stmt:int -> idx:int -> target:string -> is_array:bool -> sub:Ast.expr -> is_write:bool -> t

(** [of_loop l] concatenates {!of_stmt} over the body. *)
val of_loop : Ast.loop -> t list

(** [writes l] / [reads l] filter {!of_loop}. *)
val writes : Ast.loop -> t list

val reads : Ast.loop -> t list

val pp : Format.formatter -> t -> unit
