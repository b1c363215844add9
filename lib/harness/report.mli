(** Builders for every table of the paper's evaluation, the ablations
    and the sweeps.  All output goes through {!Isched_util.Table} so the
    benchmark executable prints a uniform report. *)

module Table := Isched_util.Table
module Machine := Isched_ir.Machine
module Suite := Isched_perfect.Suite

(** {2 Table 1 — benchmark characteristics} *)

(** [options] (here and below) defaults to
    {!Pipeline.default_options}; pass [{ default_options with
    sync_elim = true }] to report on the elimination-pass output. *)
val table1 : ?options:Pipeline.options -> Suite.benchmark list -> Table.t

(** {2 Table 2 / Table 3 — parallel execution times and improvement} *)

type measurement = {
  benchmark : string;
  config : string;
  t_list : int;  (** T_a: total time over the corpus, list scheduling *)
  t_new : int;  (** T_b: total time, new scheduling *)
}

(** [measure ?options ?jobs benches configs] — the full experiment:
    every DOACROSS loop of every corpus, scheduled both ways on every
    machine configuration and timed by the simulator.  The
    (benchmark x configuration) cells are independent and fan across
    {!Isched_util.Pool} ([jobs] defaults to
    {!Isched_util.Pool.default_jobs}); results come back in the same
    order as a sequential run, so the tables do not depend on the job
    count. *)
val measure :
  ?options:Pipeline.options -> ?jobs:int -> Suite.benchmark list ->
  (string * Machine.t) list -> measurement list

val table2 : measurement list -> Table.t
val table3 : measurement list -> Table.t

(** [improvement ~t_list ~t_new] — percentage improvement (paper's
    Table 3 metric). *)
val improvement : t_list:int -> t_new:int -> float

(** [overall measurements] — (2-issue, 4-issue) aggregate improvement
    percentages (the paper quotes 83.37% and 85.1%). *)
val overall : measurement list -> float * float

(** {2 DOACROSS categories (Section 4.1's six types)} *)

val categories : Suite.benchmark list -> Table.t

(** {2 Streamed, scaled tables ([bench --scale N])} *)

(** [scaled_tables ?options ?jobs ?chunk_size ~scale profiles configs]
    — Tables 1, 2/3 measurements and the category table for a [scale]×
    generated corpus, computed without ever materializing it: the loop
    stream of every profile is cut into independent chunks
    ({!Isched_perfect.Suite.chunks}, [chunk_size] generated loops each),
    one (profile x chunk) cell per pool task, and each cell reduces its
    loops to a handful of integer sums before the next chunk is
    generated.  Sums are associative, so the returned tables are
    byte-identical for every job count and chunk size.  Returns
    [(table1, measurements, categories, sync_ops)] where [sync_ops] is
    the total Send/Wait instruction count of the generated programs —
    the quantity the sync-elimination ablation drives down. *)
val scaled_tables :
  ?options:Pipeline.options ->
  ?jobs:int ->
  ?chunk_size:int ->
  scale:int ->
  Isched_perfect.Profile.t list ->
  (string * Machine.t) list ->
  Table.t * measurement list * Table.t * int

(** One (profile x chunk) cell of {!scaled_tables}, reduced to sums of
    per-loop ints. *)
type chunk_summary = {
  cs_profile : string;
  cs_stats : int array;  (** source lines, loops, doall, dlx, lfd, lbd *)
  cs_meas : (string * int * int) list;  (** per config, in order: (name, t_list, t_new) *)
  cs_cats : int list;  (** per category, in {!Isched_transform.Doall.all_categories} order, then doall *)
  cs_sync_ops : int;  (** Send/Wait instructions over the DOACROSS programs *)
}

(** [summarize_chunk ?options configs c] — the summary of one chunk.
    Loop-major: each loop is prepared (uncached), counted, timed under
    every config and categorized before the next loop is prepared, so at
    most one loop's program and graphs are alive at a time. *)
val summarize_chunk :
  ?options:Pipeline.options -> (string * Machine.t) list -> Isched_perfect.Suite.chunk -> chunk_summary

(** {2 Ablations} *)

(** A1: value of ordering sync-path groups by damage [(n/d)|SP|]. *)
val ablation_order : Suite.benchmark list -> Table.t

(** A2: redundant-synchronization elimination stacked on both
    schedulers. *)
val ablation_elimination : Suite.benchmark list -> Table.t

(** A6: the post-codegen transitive-reduction pass
    ({!Isched_sync.Elim} via {!Pipeline.options}[.sync_elim]) over the
    corpus benchmarks plus the elimination kernels, on the 2/4-issue x
    #FU 1/2 grid.  Columns report the Send/Wait instruction count and
    the new scheduler's time with and without the pass. *)
val ablation_sync_elim : Suite.benchmark list -> Table.t

(** A3: statement migration stacked on both schedulers. *)
val ablation_migration : Suite.benchmark list -> Table.t

(** A4: machine sweep beyond the paper's four configurations. *)
val sweep : Suite.benchmark list -> Table.t

(** A5: three-way comparison against the marker-guided scheduler
    ({!Isched_core.Marker_sched}, the author's ISPAN'94 technique). *)
val ablation_markers : Suite.benchmark list -> Table.t

(** Unroll study: the LBD formula's terms under DOACROSS unrolling. *)
val unroll_study : unit -> Table.t

(** Limited processor pools with cyclic iteration assignment. *)
val processor_sweep : Suite.benchmark list -> Table.t

(** Register study: spill traffic ({!Isched_codegen.Spill}) and its
    timing cost as the register file shrinks. *)
val register_study : Suite.benchmark list -> Table.t

(** Architecture comparison: one software-pipelined processor
    ({!Isched_core.Modulo_sched}) against the paper's n-processor
    DOACROSS execution. *)
val architecture_comparison : Suite.benchmark list -> Table.t
