(** Fast timing simulator of the superscalar-based multiprocessor.

    The paper's machine model (Section 4.1): a shared-memory
    multiprocessor with [n] processors runs an [n]-iteration DOACROSS
    loop, one iteration per processor, all starting at cycle 0; each
    processor executes the static schedule row by row, one row per
    cycle, stalling only on a [Wait] whose signal has not been posted.
    A signal posted at cycle [c] is visible to waits from cycle [c+1].

    Because signals only flow from lower-numbered iterations to higher
    (distances are positive), iterations can be simulated in increasing
    order.  One scan of the rows collects the sync events (the rows
    holding a [Wait] or a [Send]; the clock crosses every other row in
    one step), so a run costs that scan plus O(sync events) per
    simulated iteration, and O(1) per iteration the steady-state fast
    path extrapolates.  The simulation is exact for timing — it is what
    the benchmark harness uses to produce Table 2 — and allocates only
    the returned result: its working state is per-domain scratch reused
    across runs.  The scratch keeps arrays of up to 65,536 cells; a
    longer run (about 65,536 iterations, or fewer times the signal
    count) works in fresh arrays that are freed with it. *)

type result = {
  finish : int;  (** parallel execution time: cycle count until the last
                     processor retires its last row *)
  iteration_starts : int array;  (** cycle at which each iteration's
                                     first row issued (index 0 = lo) *)
  iteration_finishes : int array;  (** retirement cycle per iteration *)
  stall_cycles : int;  (** total cycles all processors spent stalled *)
  extrapolated_from : int option;
      (** [Some k] when iterations after [k] were produced by the
          steady-state fast path instead of row-by-row simulation;
          [None] when the whole run was simulated *)
}

(** Iteration-to-processor assignment for limited pools:
    [`Cyclic] (iteration [k] on processor [k mod P], the DOACROSS
    default — consecutive iterations overlap) or [`Block] (processor
    [p] runs the contiguous chunk [p*ceil(n/P) ..), which serializes
    consecutive iterations and is the wrong choice for DOACROSS — kept
    as a contrast knob). *)
type assignment = [ `Cyclic | `Block ]

(** Raised by {!run_rows} when an iteration blocks on a wait whose
    matching [Send] never executed — i.e. the send instruction is
    missing from the supplied row layout.  [iteration] is the blocked
    iteration, [wait]/[signal] identify the pair in the program's
    tables, and [posting_iteration] is the iteration that should have
    posted the signal.  {!Isched_check} surfaces this as a located
    diagnostic instead of a crash.  (A schedule produced by
    {!Isched_core.Schedule.of_cycles} always contains every body
    instruction, so {!run} never raises this.) *)
exception
  Invalid_schedule of {
    prog : string;  (** program name, for the diagnostic *)
    iteration : int;
    wait : int;
    signal : int;
    posting_iteration : int;
  }

(** [run ?n_procs ?assignment ?extrapolate s] simulates the schedule.
    [n_procs] defaults to the paper's assumption of one processor per
    iteration; with fewer, iterations are assigned per [assignment]
    (default [`Cyclic]) and an iteration cannot start before its
    processor's previous iteration retires.  Raises [Invalid_argument]
    if [n_procs < 1], or if a [Wait] or [Send] of the layout names a
    signal outside the program's table or a wait distance below 1
    (which {!Isched_ir.Program.validate} rules out).

    [extrapolate] (default [true]) enables the steady-state fast path
    predicted by the LBD loop theorem: once the per-iteration offset is
    provably periodic, the remaining iterations are produced closed-form
    with results bit-identical to the full simulation.  Pass [false] to
    force row-by-row simulation of every iteration (the tests' oracle). *)
val run :
  ?n_procs:int -> ?assignment:assignment -> ?extrapolate:bool -> Isched_core.Schedule.t -> result

(** [run_rows] — the same machine model for a row layout given directly
    (rows of body indices), used by tests to cross-check hand layouts. *)
val run_rows :
  ?n_procs:int -> ?assignment:assignment -> ?extrapolate:bool ->
  Isched_ir.Program.t -> int array array -> result
