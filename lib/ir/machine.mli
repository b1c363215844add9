(** Configuration of one superscalar processor of the multiprocessor.

    The paper's experiments use four configurations: 2- or 4-issue, with
    one or two copies of every function unit (Section 4.2, cases 1-4).
    [pipelined] selects whether a multi-cycle unit accepts a new operation
    every cycle ([true]) or is busy for its whole latency ([false], the
    default, matching simple 1990s units). *)

type t = {
  issue_width : int;  (** instructions issued per cycle *)
  fu_counts : int array;  (** copies per {!Fu.kind}, indexed by {!Fu.index} *)
  pipelined : bool;
}

(** [make ~issue ~nfu ()] builds the paper's configuration with [nfu]
    copies of every unit; [pipelined] defaults to [false]. *)
val make : ?pipelined:bool -> issue:int -> nfu:int -> unit -> t

(** [fu_count m k] is the number of copies of unit [k]. *)
val fu_count : t -> Fu.kind -> int

(** [with_fu m k n] overrides the count of one unit kind. *)
val with_fu : t -> Fu.kind -> int -> t

(** The four machine configurations of Table 2, in paper order:
    (2,1), (2,2), (4,1), (4,2) as (issue, #FU). *)
val paper_configs : (string * t) list

(** [name m] is a short identifier such as ["2-issue(#FU=1)"]. *)
val name : t -> string

(** [validate m] raises [Invalid_argument] if the configuration is
    degenerate (non-positive issue width or unit counts) or wider than
    255 issue slots or units of a kind (the resource tracker keeps each
    cycle's occupancy in byte-wide lanes). *)
val validate : t -> unit

val pp : Format.formatter -> t -> unit
