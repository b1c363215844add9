module Program = Isched_ir.Program
module Instr = Isched_ir.Instr
module Span = Isched_obs.Span
module Counters = Isched_obs.Counters

(* Fast-path accounting: [timing.extrapolated] counts simulations that
   detected a steady state and wrote the tail closed-form,
   [timing.full_sim] those that simulated every iteration (including
   runs where extrapolation was disabled or structurally unusable);
   [timing.extrapolated_iters] is how many iterations the fast path
   skipped. *)
let c_extrapolated = Counters.counter "timing.extrapolated"
let c_full_sim = Counters.counter "timing.full_sim"
let c_saved_iters = Counters.counter "timing.extrapolated_iters"

type result = {
  finish : int;
  iteration_starts : int array;
  iteration_finishes : int array;
  stall_cycles : int;
  extrapolated_from : int option;
}

type assignment = [ `Cyclic | `Block ]

exception
  Invalid_schedule of {
    prog : string;
    iteration : int;
    wait : int;
    signal : int;
    posting_iteration : int;
  }

let () =
  Printexc.register_printer (function
    | Invalid_schedule { prog; iteration; wait; signal; posting_iteration } ->
      Some
        (Printf.sprintf
           "Timing.Invalid_schedule: %s iteration %d blocks on wait %d (signal %d), but \
            iteration %d never posted it — its Send is missing from the row layout"
           prog iteration wait signal posting_iteration)
    | _ -> None)

(* The LBD loop theorem (PAPER.md Section 3) prices a loop as
   (n/d)(i-j) + l: past a fill transient the per-iteration offset is
   constant, so the tail of the simulation is an arithmetic progression.
   [run_rows] simulates iterations in order but watches for that steady
   state — once every component of the iteration state (start,
   retirement, signal-post cycles) advances by one uniform constant per
   period, the remaining iterations are written out closed-form instead
   of simulated row by row.  The periodic invariant is checked on real
   data over a window covering every dependence lag, which makes the
   extrapolation exact, not approximate (cross-checked against the full
   simulation in test_sim). *)

(* Per-domain scratch, reused across runs: a scaled tables pass times
   tens of thousands of schedules, and only the result escapes (copied
   out fresh).  [finish]/[start] hold one entry per iteration;
   [post.(k * n_signals + s)] is the cycle at which iteration [k]
   executed the Send of signal [s], or -1 while it has not.

   Events: an iteration's clock advances exactly one cycle per row,
   except at rows holding a Wait (which can stall it) or a Send (which
   must record its post cycle).  [ev.(0)] is the number of those rows;
   from [ev.(1)] they follow in order, each as its row index, its number
   of waits and of sends, then a (wait id, signal, distance) triple per
   wait and a signal id per send, both in row order (the waits of a row
   resolve before its sends post).

   The scratch keeps arrays of at most [scratch_cap] cells.  A run that
   needs more (a long trip count, say from a serve request) works in
   fresh arrays that are dropped with it, so a domain does not hold a
   large run's memory once the run is over. *)
type scratch = {
  mutable finish : int array;
  mutable start : int array;
  mutable post : int array;
  mutable ev : int array;
  mutable row_sends : int array;  (* the sends of the row being scanned *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { finish = [||]; start = [||]; post = [||]; ev = [||]; row_sends = [||] })

let scratch_cap = 1 lsl 16

(* An array of at least [n] cells: [a] when it is long enough, else a
   fresh one, grown geometrically up to [scratch_cap] and exactly [n]
   beyond it.  [kept] says whether the scratch may hold on to it. *)
let reserve a n =
  if Array.length a >= n then a
  else Array.make (if n > scratch_cap then n else min scratch_cap (max n (2 * Array.length a))) 0

let[@inline] kept a = Array.length a <= scratch_cap

let check_signal (p : Program.t) s =
  if s < 0 || s >= Array.length p.Program.signals then
    invalid_arg (Printf.sprintf "Timing.run_rows: %s: unknown signal %d" p.Program.name s)

(* One scan of the rows returns the event array. *)
let scan sc (p : Program.t) rows =
  let n_rows = Array.length rows in
  let entries = ref 0 and widest = ref 0 in
  for r = 0 to n_rows - 1 do
    let len = Array.length rows.(r) in
    entries := !entries + len;
    if len > !widest then widest := len
  done;
  let ev = reserve sc.ev (1 + (3 * n_rows) + (3 * !entries)) in
  let row_sends = reserve sc.row_sends !widest in
  if kept ev then sc.ev <- ev;
  if kept row_sends then sc.row_sends <- row_sends;
  let body = p.Program.body and waits = p.Program.waits in
  let pos = ref 1 and n_ev = ref 0 in
  for r = 0 to n_rows - 1 do
    let row = rows.(r) in
    let head = !pos in
    pos := head + 3;
    let nw = ref 0 and ns = ref 0 in
    for x = 0 to Array.length row - 1 do
      match body.(row.(x)) with
      | Instr.Wait { wait } ->
        let w = waits.(wait) in
        check_signal p w.Program.signal;
        if w.Program.distance < 1 then
          invalid_arg
            (Printf.sprintf "Timing.run_rows: %s: wait %d has distance %d" p.Program.name wait
               w.Program.distance);
        ev.(!pos) <- wait;
        ev.(!pos + 1) <- w.Program.signal;
        ev.(!pos + 2) <- w.Program.distance;
        pos := !pos + 3;
        incr nw
      | Instr.Send { signal } ->
        check_signal p signal;
        row_sends.(!ns) <- signal;
        incr ns
      | _ -> ()
    done;
    if !nw = 0 && !ns = 0 then pos := head
    else begin
      ev.(head) <- r;
      ev.(head + 1) <- !nw;
      ev.(head + 2) <- !ns;
      for x = 0 to !ns - 1 do
        ev.(!pos + x) <- row_sends.(x)
      done;
      pos := !pos + !ns;
      incr n_ev
    end
  done;
  ev.(0) <- !n_ev;
  ev

(* Iteration [k] on a processor free from cycle [proc_free]: writes the
   start and retirement of [k] and the posts of its sends, and returns
   the cycles [k] stalled.  Row [r] issues at [proc_free + r] plus the
   stalls met so far.  Signals flow from lower iterations, simulated
   already, so an unposted signal means its Send is absent from the row
   layout — an invalid schedule, not a simulator bug — and is diagnosed
   as such. *)
let simulate (p : Program.t) ev post start finish n_rows k proc_free =
  let n_signals = Array.length p.Program.signals in
  let stalls = ref 0 in
  (* The iteration start is the issue cycle of row 0: [proc_free] unless
     row 0 itself holds a wait that pushes it. *)
  let st = ref proc_free in
  let pos = ref 1 in
  for _ = 1 to ev.(0) do
    let r = ev.(!pos) and nw = ev.(!pos + 1) and ns = ev.(!pos + 2) in
    pos := !pos + 3;
    let earliest = proc_free + r + !stalls in
    let ready = ref earliest in
    for _ = 1 to nw do
      let signal = ev.(!pos + 1) in
      let from = k - ev.(!pos + 2) in
      if from >= 0 then begin
        let posted = post.((from * n_signals) + signal) in
        if posted < 0 then
          raise
            (Invalid_schedule
               {
                 prog = p.Program.name;
                 iteration = k;
                 wait = ev.(!pos);
                 signal;
                 posting_iteration = from;
               });
        if posted + 1 > !ready then ready := posted + 1
      end;
      pos := !pos + 3
    done;
    stalls := !stalls + (!ready - earliest);
    if r = 0 then st := !ready;
    for _ = 1 to ns do
      post.((k * n_signals) + ev.(!pos)) <- !ready;
      incr pos
    done
  done;
  start.(k) <- !st;
  finish.(k) <- proc_free + n_rows + !stalls;
  !stalls

(* Does every signal post of [k] lead [k - period]'s by [d]?  A signal
   without a Send stays -1, so its delta is 0. *)
let posts_shift_by post n_signals k period d =
  let ok = ref true and s = ref 0 in
  while !ok && !s < n_signals do
    if post.((k * n_signals) + !s) - post.(((k - period) * n_signals) + !s) <> d then ok := false;
    incr s
  done;
  !ok

(* The cycle from which iteration [k]'s processor is free: with a
   limited pool, iteration [k] waits for its processor's previous
   iteration.  Cyclic: the predecessor is k - n_procs.  Block: chunks of
   [block] consecutive iterations share a processor. *)
let[@inline] proc_free finish ~cyclic ~n_procs ~block k =
  if cyclic then if k >= n_procs then finish.(k - n_procs) else 0
  else if k mod block <> 0 then finish.(k - 1)
  else 0

let run_rows_inner ?n_procs ?(assignment = `Cyclic) ?(extrapolate = true) (p : Program.t) rows =
  let n = p.Program.n_iters in
  let n_procs = match n_procs with None -> n | Some np -> np in
  if n_procs < 1 then invalid_arg "Timing.run_rows: n_procs must be >= 1";
  let block = (n + n_procs - 1) / n_procs in
  let limited = n_procs < n in
  let cyclic = match assignment with `Cyclic -> true | `Block -> false in
  let n_signals = Array.length p.Program.signals in
  let n_rows = Array.length rows in
  let sc = Domain.DLS.get scratch_key in
  let finish = reserve sc.finish n and start = reserve sc.start n in
  let post = reserve sc.post (n * n_signals) in
  if kept finish then sc.finish <- finish;
  if kept start then sc.start <- start;
  if kept post then sc.post <- post;
  Array.fill post 0 (n * n_signals) (-1);
  let ev = scan sc p rows in
  (* Steady-state parameters.  [period]: the lag at which the iteration
     recurrence repeats (1 with a full pool; the pool size under cyclic
     assignment; the chunk size under block assignment, where chunk
     boundaries lack the processor edge).  [lag]: how far back iteration
     k+1's inputs reach, i.e. the window that must satisfy the periodic
     invariant for the extrapolation to be exact.  [guard]: first
     iteration from which the recurrence shape is the same at k and
     k - period. *)
  let d_max = ref 0 in
  for w = 0 to Array.length p.Program.waits - 1 do
    d_max := max !d_max p.Program.waits.(w).Program.distance
  done;
  let d_max = !d_max in
  let period = if not limited then 1 else if cyclic then n_procs else block in
  let lag = max d_max (if limited && cyclic then n_procs else 1) in
  let guard = period + max 1 (max d_max (if limited && cyclic then n_procs else 0)) in
  (* The window must cover a full period on top of the input lag:
     under block assignment the residue classes mod [period] behave
     differently (chunk-boundary iterations have no processor edge), so
     every residue must be seen satisfying the invariant before the tail
     is extrapolated. *)
  let window = period + lag + 2 in
  let usable = extrapolate && period <= 512 && n > guard + window + period in
  (* Detection: a run of consecutive iterations whose state advances by
     one shared constant [lambda] over [period].  Finish and every
     signal post must share it; the iteration start may instead be
     exactly constant (delta 0), which happens when the first row has
     no applicable wait and the processor-free input is pinned at cycle
     0 — then its ready-max contains no growing term, so no later
     dominance crossover is possible.  Stalls are excluded: they are not
     shift-covariant at chunk boundaries and are reconstructed exactly
     from the finish times instead.  [stable] is the iteration after
     which the tail is extrapolated, or -1. *)
  let run_len = ref 0 and lambda = ref 0 and lambda_start = ref 0 in
  let stable = ref (-1) and k = ref 0 in
  let last = ref 0 and stalls = ref 0 in
  while !k < n && !stable < 0 do
    let kk = !k in
    stalls :=
      !stalls + simulate p ev post start finish n_rows kk (proc_free finish ~cyclic ~n_procs ~block kk);
    if finish.(kk) > !last then last := finish.(kk);
    if usable && kk >= guard + period then begin
      let d = finish.(kk) - finish.(kk - period) in
      let ds = start.(kk) - start.(kk - period) in
      if (ds = d || ds = 0) && posts_shift_by post n_signals kk period d then begin
        if !run_len > 0 && d = !lambda && ds = !lambda_start then begin
          incr run_len;
          if !run_len >= window then stable := kk
        end
        else begin
          run_len := 1;
          lambda := d;
          lambda_start := ds
        end
      end
      else run_len := 0
    end;
    incr k
  done;
  let stable = !stable in
  if stable >= 0 then begin
    (* Closed-form tail: every residue class mod [period] keeps adding
       [lambda] per period from its last simulated representative.  The
       stall count follows from the timing identity
       finish = proc_free + n_rows + stalls (each row costs one cycle
       plus its stall), which holds whether or not the iteration sits at
       a chunk boundary. *)
    let lambda = !lambda and lambda_start = !lambda_start in
    for k = stable + 1 to n - 1 do
      start.(k) <- start.(k - period) + lambda_start;
      let f = finish.(k - period) + lambda in
      finish.(k) <- f;
      if f > !last then last := f;
      stalls := !stalls + (f - proc_free finish ~cyclic ~n_procs ~block k - n_rows)
    done;
    Counters.incr c_extrapolated;
    Counters.add c_saved_iters (n - 1 - stable)
  end
  else Counters.incr c_full_sim;
  {
    finish = !last;
    iteration_starts = Array.sub start 0 n;
    iteration_finishes = Array.sub finish 0 n;
    stall_cycles = !stalls;
    extrapolated_from = (if stable >= 0 then Some stable else None);
  }

let run_rows ?n_procs ?assignment ?extrapolate (p : Program.t) rows =
  if Span.enabled () then
    Span.with_ ~name:"sim.timing"
      ~args:[ ("prog", p.Program.name); ("n_iters", string_of_int p.Program.n_iters) ]
      (fun () -> run_rows_inner ?n_procs ?assignment ?extrapolate p rows)
  else run_rows_inner ?n_procs ?assignment ?extrapolate p rows

let run ?n_procs ?assignment ?extrapolate (s : Isched_core.Schedule.t) =
  run_rows ?n_procs ?assignment ?extrapolate s.Isched_core.Schedule.prog s.Isched_core.Schedule.rows
