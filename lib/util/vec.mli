(** Growable array (amortised O(1) append), the workhorse buffer for
    instruction emission in the code generator and row construction in the
    schedulers.  Elements are stored unboxed: a push allocates only when
    the backing array grows. *)

type 'a t

(** [create ()] is an empty vector. *)
val create : unit -> 'a t

(** [length v] is the number of elements. *)
val length : 'a t -> int

(** [push v x] appends [x]. *)
val push : 'a t -> 'a -> unit

(** [get v i] reads element [i]. Raises [Invalid_argument] out of
    bounds. *)
val get : 'a t -> int -> 'a

(** [set v i x] overwrites element [i]. Raises [Invalid_argument] out of
    bounds. *)
val set : 'a t -> int -> 'a -> unit

(** [to_array v] snapshots the contents. *)
val to_array : 'a t -> 'a array

(** [to_list v] snapshots the contents as a list. *)
val to_list : 'a t -> 'a list

(** [of_list xs] builds a vector holding [xs]. *)
val of_list : 'a list -> 'a t

(** [iter f v] applies [f] to each element in order. *)
val iter : ('a -> unit) -> 'a t -> unit

(** [iteri f v] applies [f i x] to each element in order. *)
val iteri : (int -> 'a -> unit) -> 'a t -> unit

(** [last v] is the most recently pushed element. Raises [Not_found]
    when empty. *)
val last : 'a t -> 'a

(** [ensure_size v n x] extends [v] to at least [n] elements, filling
    new slots with [x].  A no-op when [v] is already that long; the
    reservation tables and calendar queues use it to index by cycle. *)
val ensure_size : 'a t -> int -> 'a -> unit

(** [get_or v i default] is element [i], or [default] when [i] is out of
    range — the natural read on a cycle-indexed table whose tail is all
    default. *)
val get_or : 'a t -> int -> 'a -> 'a

(** [clear v] removes all elements and keeps the capacity.  The removed
    elements stay reachable from [v] until overwritten or until [v]
    itself is dropped. *)
val clear : 'a t -> unit
