(** Data-dependence analysis of a single loop.

    For affine subscripts with equal coefficients the dependence distance
    is exact; for unequal coefficients the solutions are enumerated
    exactly over the (bounded) iteration space; anything unanalyzable is
    kept with [Unknown] distance, which downstream synchronization
    treats as distance 1 (the strongest, serializing constraint).

    Terminology follows the paper: a dependence is lexically forward
    ([LFD]) when its source statement occurs textually before its sink
    statement, and lexically backward ([LBD]) otherwise — including a
    statement depending on itself. *)

module Ast := Isched_frontend.Ast

type kind = Flow | Anti | Output

type distance =
  | Dist of int  (** constant distance; [Dist 0] is loop-independent *)
  | Unknown  (** carried, distance not constant/analyzable *)

type lexical = LFD | LBD

type t = {
  kind : kind;
  src : Access.t;  (** the access that executes first *)
  snk : Access.t;
  distance : distance;
  lexical : lexical;
}

(** [carried d] is true when the dependence crosses iterations. *)
val carried : t -> bool

(** [sync_distance d] is the distance used for [Wait_Signal]:
    the constant distance, or 1 for [Unknown]. *)
val sync_distance : t -> int

(** [analyze l] computes all dependences of the loop body, carried and
    loop-independent, deduplicated per
    (kind, source access, sink access). The result is deterministic and
    sorted by (source stmt, sink stmt, kind, distance). *)
val analyze : Ast.loop -> t list

(** [deps_between l a b] — the dependences from access [a] to access
    [b] of loop [l] ([a == b] allowed).  The caller ensures that both
    name the same target with the same [is_array] and that one of them
    writes.  {!analyze} is the sorted union of [deps_between] over every
    such ordered pair; exposed so a reference analysis can be built
    from it. *)
val deps_between : Ast.loop -> Access.t -> Access.t -> t list

(** [carried_deps l] is [analyze] restricted to carried dependences. *)
val carried_deps : Ast.loop -> t list

(** [is_doall l] is true when the loop has no carried dependence — the
    Parafrase-surrogate test for running it as a DOALL. *)
val is_doall : Ast.loop -> bool

val kind_name : kind -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string
