(** Mutable binary max-heap keyed by an integer priority.

    The element with the largest priority is popped first, ties broken
    deterministically; sync migration orders its worklist here. *)

type 'a t

(** [create ()] is an empty queue. *)
val create : unit -> 'a t

(** [is_empty q] tests emptiness. *)
val is_empty : 'a t -> bool

(** [length q] is the number of queued elements. *)
val length : 'a t -> int

(** [push q ~prio ~tie x] inserts [x]. Among equal [prio] the element
    with the smaller [tie] pops first (used for stable, deterministic
    schedules: ties break towards the original program order). *)
val push : 'a t -> prio:int -> tie:int -> 'a -> unit

(** [pop q] removes and returns the maximum-priority element.
    Raises [Not_found] if empty. *)
val pop : 'a t -> 'a

(** [peek q] returns the maximum-priority element without removing it.
    Raises [Not_found] if empty. *)
val peek : 'a t -> 'a

(** [to_list q] lists remaining elements in pop order; [q] is unchanged. *)
val to_list : 'a t -> 'a list
