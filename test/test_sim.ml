(* Tests for the multiprocessor simulators: the fast timing engine
   against the LBD loop theorem, and the cycle-accurate value engine
   against the sequential reference. *)

module Timing = Isched_sim.Timing
module Value = Isched_sim.Value
module Schedule = Isched_core.Schedule
module Lbd_model = Isched_core.Lbd_model
module Dfg = Isched_dfg.Dfg
module Machine = Isched_ir.Machine
module Program = Isched_ir.Program
module Parser = Isched_frontend.Parser

let check = Alcotest.check
let compile ?n_iters src = Isched_codegen.Codegen.compile ?n_iters (Parser.parse_loop src)

let qtest ?(count = 60) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)
let m4 = Machine.make ~issue:4 ~nfu:1 ()

let schedules_of src =
  let p = compile src in
  let g = Dfg.build p in
  (p, g, Isched_core.List_sched.run g m4, Isched_core.Sync_sched.run g m4)

(* --- timing --- *)

let test_timing_doall () =
  (* No synchronization: all processors run the same rows in lockstep;
     the loop costs exactly the schedule length. *)
  let _, _, s, _ = schedules_of "DO I = 1, 50\n A[I] = E[I] + C[I]\nENDDO" in
  let t = Timing.run s in
  check Alcotest.int "finish = length" s.Schedule.length t.Timing.finish;
  check Alcotest.int "no stalls" 0 t.Timing.stall_cycles

let test_timing_matches_theorem_d1 () =
  let _, _, s, _ = schedules_of "DOACROSS I = 1, 100\n A[I] = A[I-1] + E[I]\nENDDO" in
  check Alcotest.int "single-pair chain exact" (Lbd_model.exact_time s) (Timing.run s).Timing.finish

let test_timing_matches_theorem_d3 () =
  let _, _, s, _ = schedules_of "DOACROSS I = 1, 100\n A[I] = A[I-3] * E[I]\nENDDO" in
  check Alcotest.int "distance-3 chain exact" (Lbd_model.exact_time s) (Timing.run s).Timing.finish

let test_timing_lfd_costs_nothing () =
  let _, _, _, s = schedules_of "DOACROSS I = 1, 100\n S1: B[I] = A[I-1]\n S2: A[I] = E[I]\nENDDO" in
  (* fully converted: start offsets are bounded by the row count *)
  let t = Timing.run s in
  Alcotest.(check bool) "about one iteration" true (t.Timing.finish <= 2 * s.Schedule.length + 2)

let test_timing_iteration_starts_monotone_chain () =
  let _, _, s, _ = schedules_of "DOACROSS I = 1, 50\n A[I] = A[I-1] + E[I]\nENDDO" in
  let t = Timing.run s in
  let starts = t.Timing.iteration_starts in
  for k = 1 to Array.length starts - 1 do
    Alcotest.(check bool) "chain starts increase" true (starts.(k) >= starts.(k - 1))
  done

let test_timing_n_iters_scaling () =
  let time n =
    let p = compile ~n_iters:n "DOACROSS I = 1, 100\n A[I] = A[I-1] + E[I]\nENDDO" in
    let g = Dfg.build p in
    (Timing.run (Isched_core.List_sched.run g m4)).Timing.finish
  in
  let t100 = time 100 and t200 = time 200 in
  (* Per the theorem the time is linear in n. *)
  Alcotest.(check bool) "roughly doubles" true (abs (t200 - (2 * t100)) <= t100 / 2)

let test_timing_invalid_schedule_error () =
  (* Regression: a row layout that omits the Send leaves later
     iterations waiting on a signal nobody posts.  This used to die in a
     bare [assert]; it must now raise the structured error with the
     iteration/signal context. *)
  let p = compile "DOACROSS I = 1, 10\n A[I] = A[I-1] + E[I]\nENDDO" in
  let keep = ref [] in
  Array.iteri
    (fun i instr ->
      match instr with Isched_ir.Instr.Send _ -> () | _ -> keep := i :: !keep)
    p.Program.body;
  let rows = Array.of_list (List.rev_map (fun i -> [| i |]) !keep) in
  match Timing.run_rows p rows with
  | _ -> Alcotest.fail "expected Invalid_schedule"
  | exception Timing.Invalid_schedule { prog; iteration; wait; signal; posting_iteration } ->
    check Alcotest.string "prog named" p.Program.name prog;
    Alcotest.(check bool) "stalled iteration is not the first" true (iteration >= 1);
    check Alcotest.int "posting iteration at the dependence distance" (iteration - 1)
      posting_iteration;
    Alcotest.(check bool) "wait and signal ids in range" true (wait >= 0 && signal >= 0)

let test_timing_run_rows_hand_layout () =
  (* A hand-built two-row layout: wait+load in row 1, store+send in
     row 2 is illegal for latency but Timing trusts its input; use the
     simple exactness instead: 1 row per instruction. *)
  let p = compile "DOACROSS I = 1, 10\n A[I] = A[I-1] + E[I]\nENDDO" in
  let n = Array.length p.Program.body in
  let rows = Array.init n (fun i -> [| i |]) in
  let t = Timing.run_rows p rows in
  (* serial rows: span = send - wait positions; theorem applies *)
  Alcotest.(check bool) "finishes" true (t.Timing.finish > 0)

(* --- steady-state extrapolation --- *)

let same_result msg (a : Timing.result) (b : Timing.result) =
  check Alcotest.int (msg ^ ": finish") a.Timing.finish b.Timing.finish;
  check Alcotest.int (msg ^ ": stalls") a.Timing.stall_cycles b.Timing.stall_cycles;
  check Alcotest.(array int) (msg ^ ": starts") a.Timing.iteration_starts b.Timing.iteration_starts;
  check
    Alcotest.(array int)
    (msg ^ ": finishes") a.Timing.iteration_finishes b.Timing.iteration_finishes

let test_timing_extrapolation_matches_full () =
  (* The satellite cross-check: over the Perfect-surrogate corpora, the
     steady-state fast path must be bit-identical to the full simulation
     for short, transient-only and steady-state trip counts, under both
     iteration-to-processor assignments and several pool sizes. *)
  List.iter
    (fun (b : Isched_perfect.Suite.benchmark) ->
      let loops =
        List.filteri (fun i _ -> i < 3) b.Isched_perfect.Suite.loops
      in
      List.iter
        (fun l ->
          List.iter
            (fun n ->
              match Isched_codegen.Codegen.compile ~n_iters:n l with
              | exception Invalid_argument _ -> ()
              | p ->
                let g = Dfg.build p in
                List.iter
                  (fun s ->
                    List.iter
                      (fun assignment ->
                        List.iter
                          (fun n_procs ->
                            let fast = Timing.run ?n_procs ~assignment s in
                            let full = Timing.run ?n_procs ~assignment ~extrapolate:false s in
                            check Alcotest.(option int) "oracle never extrapolates" None
                              full.Timing.extrapolated_from;
                            same_result
                              (Printf.sprintf "%s n=%d procs=%s" l.Isched_frontend.Ast.name n
                                 (match n_procs with None -> "all" | Some p -> string_of_int p))
                              full fast)
                          [ None; Some 4; Some 10 ])
                      [ `Cyclic; `Block ])
                  [ Isched_core.List_sched.run g m4; Isched_core.Sync_sched.run g m4 ])
            [ 1; 7; 100 ])
        loops)
    (Isched_perfect.Suite.all ())

let test_timing_extrapolation_fires () =
  (* On a long recurrence the fast path must actually engage (and stay
     exact): that is where the 4x bench win comes from. *)
  let p = compile ~n_iters:5000 "DOACROSS I = 1, 100\n A[I] = A[I-1] + E[I]\nENDDO" in
  let g = Dfg.build p in
  let s = Isched_core.Sync_sched.run g m4 in
  let fast = Timing.run s in
  Alcotest.(check bool) "extrapolation engaged" true (fast.Timing.extrapolated_from <> None);
  same_result "n=5000 chain" (Timing.run ~extrapolate:false s) fast;
  let fast4 = Timing.run ~n_procs:4 s in
  Alcotest.(check bool) "engages with a limited pool" true
    (fast4.Timing.extrapolated_from <> None);
  same_result "n=5000 chain, 4 procs" (Timing.run ~n_procs:4 ~extrapolate:false s) fast4

(* The extrapolation fast path splits a `Block pool into equal chunks
   plus a ragged remainder when n_procs does not divide n; the residues
   at the chunk boundaries are exactly where an off-by-one would hide.
   Property: fast path and full simulation are bit-identical there. *)
let prop_block_extrapolation_ragged =
  qtest "timing: extrapolation exact under `Block with ragged chunks"
    QCheck2.Gen.(
      let* d = int_range 1 4 in
      let* n = int_range 8 400 in
      let* n_procs = int_range 2 9 in
      let* issue = oneofl [ 2; 4 ] in
      let* which = oneofl [ `List; `New ] in
      return (d, n, n_procs, issue, which))
    (fun (d, n, n_procs, issue, which) ->
      (* force a non-zero residue: n_procs >= 2, so n+1 never divides *)
      let n = if n mod n_procs = 0 then n + 1 else n in
      let p =
        compile ~n_iters:n (Printf.sprintf "DOACROSS I = 1, 100\n A[I] = A[I-%d] + E[I]\nENDDO" d)
      in
      let g = Dfg.build p in
      let m = Machine.make ~issue ~nfu:1 () in
      let s =
        match which with
        | `List -> Isched_core.List_sched.run g m
        | `New -> Isched_core.Sync_sched.run g m
      in
      let fast = Timing.run ~n_procs ~assignment:`Block s in
      let full = Timing.run ~n_procs ~assignment:`Block ~extrapolate:false s in
      fast.Timing.finish = full.Timing.finish
      && fast.Timing.stall_cycles = full.Timing.stall_cycles
      && fast.Timing.iteration_starts = full.Timing.iteration_starts
      && fast.Timing.iteration_finishes = full.Timing.iteration_finishes)

(* Steady-state boundary cases.  [Program.validate] rejects trip counts
   below 1, so the n=0 record is built directly and driven through
   [run_rows]. *)

let chain_rows n_iters =
  let p = compile ~n_iters:(max n_iters 1) "DOACROSS I = 1, 100\n A[I] = A[I-1] + E[I]\nENDDO" in
  let n = Array.length p.Program.body in
  ({ p with Program.n_iters }, Array.init n (fun i -> [| i |]))

let test_timing_boundary_zero_iters () =
  let p, rows = chain_rows 0 in
  (* The default pool is one processor per iteration — zero of them. *)
  Alcotest.check_raises "default pool of zero rejected"
    (Invalid_argument "Timing.run_rows: n_procs must be >= 1") (fun () ->
      ignore (Timing.run_rows p rows));
  let t = Timing.run_rows ~n_procs:1 p rows in
  check Alcotest.int "finish" 0 t.Timing.finish;
  check Alcotest.int "stalls" 0 t.Timing.stall_cycles;
  check Alcotest.(array int) "no starts" [||] t.Timing.iteration_starts;
  check Alcotest.(array int) "no finishes" [||] t.Timing.iteration_finishes;
  check Alcotest.(option int) "nothing to extrapolate" None t.Timing.extrapolated_from

let test_timing_boundary_one_iter () =
  let p, rows = chain_rows 1 in
  let t = Timing.run_rows p rows in
  check Alcotest.(option int) "single iteration never extrapolates" None
    t.Timing.extrapolated_from;
  same_result "n=1" (Timing.run_rows ~extrapolate:false p rows) t;
  check Alcotest.int "one iteration, no cross-iteration stall" 0 t.Timing.stall_cycles

let test_timing_boundary_below_period () =
  (* Cyclic pool of 8 over 10 iterations: the recurrence period is the
     pool size, and 10 iterations cannot cover guard + window + period,
     so the fast path must decline (and still agree with the oracle). *)
  let p, rows = chain_rows 10 in
  let t = Timing.run_rows ~n_procs:8 p rows in
  check Alcotest.(option int) "trip count below the period: full sim" None
    t.Timing.extrapolated_from;
  same_result "n=10 procs=8" (Timing.run_rows ~n_procs:8 ~extrapolate:false p rows) t

let test_timing_boundary_unusable_period () =
  (* A cyclic pool of 600 puts the period past the 512 cap: the fast
     path is structurally unusable however long the loop runs.  The
     fallback is observable through the [timing.full_sim] counter. *)
  let p, rows = chain_rows 2000 in
  let c_full = Isched_obs.Counters.counter "timing.full_sim" in
  let c_extra = Isched_obs.Counters.counter "timing.extrapolated" in
  let full0 = Isched_obs.Counters.value c_full in
  let extra0 = Isched_obs.Counters.value c_extra in
  let t = Timing.run_rows ~n_procs:600 p rows in
  check Alcotest.(option int) "never stabilises" None t.Timing.extrapolated_from;
  check Alcotest.int "full-sim fallback counted" (full0 + 1)
    (Isched_obs.Counters.value c_full);
  check Alcotest.int "not counted as extrapolated" extra0
    (Isched_obs.Counters.value c_extra);
  same_result "n=2000 procs=600" (Timing.run_rows ~n_procs:600 ~extrapolate:false p rows) t;
  (* Same trip count with a small pool does stabilise — the cap, not the
     loop, is what blocked the fast path above. *)
  let t4 = Timing.run_rows ~n_procs:4 p rows in
  Alcotest.(check bool) "small pool extrapolates" true (t4.Timing.extrapolated_from <> None);
  check Alcotest.int "extrapolation counted" (extra0 + 1)
    (Isched_obs.Counters.value c_extra)

(* --- value simulation --- *)

let expect_equiv src =
  let p, g, sa, sb = schedules_of src in
  ignore g;
  List.iter
    (fun s ->
      match Isched_harness.Equivalence.check_schedule p s with
      | Ok () -> ()
      | Error es -> Alcotest.failf "%s: %s" src (String.concat "; " es))
    [ sa; sb ]

let test_value_fig1 () =
  expect_equiv
    "DOACROSS I = 1, 100\n\
    \ S1: B[I] = A[I-2] + E[I+1]\n\
    \ S2: G[I-3] = A[I-1] * E[I+2]\n\
    \ S3: A[I] = B[I] + C[I+3]\n\
     ENDDO"

let test_value_recurrence () = expect_equiv "DOACROSS I = 1, 60\n A[I] = A[I-1] * C[I] + E[I]\nENDDO"

let test_value_guard () =
  expect_equiv "DOACROSS I = 1, 40\n IF (E[I] > 0) A[I] = A[I-2] + C[I]\nENDDO"

let test_value_anti_dep () =
  expect_equiv "DOACROSS I = 1, 40\n S1: B[I] = A[I+1]\n S2: A[I] = E[I]\nENDDO"

let test_value_scalar_dep () =
  expect_equiv "DOACROSS I = 1, 30\n S1: S = S + A[I-1]\n S2: A[I] = E[I] + S\nENDDO"

let test_value_finish_matches_timing () =
  let _, _, sa, sb =
    schedules_of
      "DOACROSS I = 1, 100\n\
      \ S1: B[I] = A[I-2] + E[I+1]\n\
      \ S2: G[I-3] = A[I-1] * E[I+2]\n\
      \ S3: A[I] = B[I] + C[I+3]\n\
       ENDDO"
  in
  List.iter
    (fun s ->
      check Alcotest.int "the two simulators agree on time" (Timing.run s).Timing.finish
        (Value.run s).Value.finish)
    [ sa; sb ]

let test_value_no_races_under_sync () =
  let _, _, sa, sb = schedules_of "DOACROSS I = 1, 50\n A[I] = A[I-1] + E[I]\nENDDO" in
  List.iter
    (fun s -> check Alcotest.int "race-free" 0 (List.length (Value.run s).Value.races))
    [ sa; sb ]

let test_value_stale_without_sync_arcs () =
  (* The motivating bug: scheduling without the sync-condition arcs lets
     sinks run before their waits. *)
  let p =
    compile
      "DOACROSS I = 1, 100\n\
      \ S1: B[I] = A[I-2] + E[I+1]\n\
      \ S2: G[I-3] = A[I-1] * E[I+2]\n\
      \ S3: A[I] = B[I] + C[I+3]\n\
       ENDDO"
  in
  let g0 = Dfg.build ~sync_arcs:false p in
  let s0 = Isched_core.List_sched.run g0 (Machine.make ~issue:4 ~nfu:1 ()) in
  let v = Value.run s0 in
  let seq_log = Isched_exec.Readlog.create () in
  let seq_mem = Isched_exec.Prog_interp.run ~log:seq_log p in
  let stale = Isched_exec.Readlog.compare_logs ~reference:seq_log ~actual:v.Value.log in
  Alcotest.(check bool) "stale reads detected" true (List.length stale > 0);
  Alcotest.(check bool) "memory corrupted" false (Isched_exec.Memory.equal seq_mem v.Value.memory)

let test_value_corpus_sample () =
  (* One loop from each corpus, both schedulers, value-checked. *)
  List.iter
    (fun (b : Isched_perfect.Suite.benchmark) ->
      match b.Isched_perfect.Suite.loops with
      | l :: _ ->
        let p = Isched_codegen.Codegen.compile l in
        let g = Dfg.build p in
        List.iter
          (fun s ->
            match Isched_harness.Equivalence.check_schedule p s with
            | Ok () -> ()
            | Error es ->
              Alcotest.failf "%s: %s" l.Isched_frontend.Ast.name (String.concat "; " es))
          [ Isched_core.List_sched.run g m4; Isched_core.Sync_sched.run g m4 ]
      | [] -> ())
    (Isched_perfect.Suite.all ())

(* --- reference: the list-based simulator --- *)

(* A test-local copy of the simulator as it was before the
   allocation-free kernel: events built as lists per call, fresh
   per-call arrays, a signal x n post matrix of arrays.  The kernel must
   give the same whole [result] record and the same [Invalid_schedule]
   payload. *)
module Reference = struct
  module Instr = Isched_ir.Instr

  let run_rows ?n_procs ?(assignment = `Cyclic) ?(extrapolate = true) (p : Program.t) rows =
    let n = p.Program.n_iters in
    let n_procs = match n_procs with None -> n | Some np -> np in
    if n_procs < 1 then invalid_arg "Timing.run_rows: n_procs must be >= 1";
    let block = (n + n_procs - 1) / n_procs in
    let limited = n_procs < n in
    let prev_on_proc k =
      match assignment with
      | `Cyclic -> if k >= n_procs then Some (k - n_procs) else None
      | `Block -> if k mod block <> 0 then Some (k - 1) else None
    in
    let finish_at = Array.make (max n 1) 0 in
    let n_signals = Array.length p.Program.signals in
    let post = Array.init n_signals (fun _ -> Array.make (max n 1) (-1)) in
    let iteration_starts = Array.make (max n 1) 0 in
    let stall_of = Array.make (max n 1) 0 in
    let n_rows = Array.length rows in
    let ev_rows, ev_waits, ev_sends =
      let rs = ref [] and ws = ref [] and ss = ref [] in
      for r = n_rows - 1 downto 0 do
        let row_waits = ref [] and row_sends = ref [] in
        let row = rows.(r) in
        for x = Array.length row - 1 downto 0 do
          match p.Program.body.(row.(x)) with
          | Instr.Wait { wait } -> row_waits := wait :: !row_waits
          | Instr.Send { signal } -> row_sends := signal :: !row_sends
          | _ -> ()
        done;
        if !row_waits <> [] || !row_sends <> [] then begin
          rs := r :: !rs;
          ws := Array.of_list !row_waits :: !ws;
          ss := Array.of_list !row_sends :: !ss
        end
      done;
      (Array.of_list !rs, Array.of_list !ws, Array.of_list !ss)
    in
    let n_ev = Array.length ev_rows in
    let simulate k =
      let proc_free = match prev_on_proc k with Some j -> finish_at.(j) | None -> 0 in
      let t = ref (proc_free - 1) in
      let stalls = ref 0 in
      let start0 = ref proc_free in
      let prev_row = ref (-1) in
      for e = 0 to n_ev - 1 do
        let r = ev_rows.(e) in
        t := !t + (r - !prev_row - 1);
        let earliest = !t + 1 in
        let ready = ref earliest in
        let ws = ev_waits.(e) in
        for x = 0 to Array.length ws - 1 do
          let w = p.Program.waits.(ws.(x)) in
          let from = k - w.Program.distance in
          if from >= 0 then begin
            let posted = post.(w.Program.signal).(from) in
            if posted < 0 then
              raise
                (Timing.Invalid_schedule
                   {
                     prog = p.Program.name;
                     iteration = k;
                     wait = w.Program.wait;
                     signal = w.Program.signal;
                     posting_iteration = from;
                   });
            if posted + 1 > !ready then ready := posted + 1
          end
        done;
        stalls := !stalls + (!ready - earliest);
        t := !ready;
        if r = 0 then start0 := !t;
        let ss = ev_sends.(e) in
        for x = 0 to Array.length ss - 1 do
          post.(ss.(x)).(k) <- !t
        done;
        prev_row := r
      done;
      t := !t + (n_rows - 1 - !prev_row);
      iteration_starts.(k) <- (if n_rows = 0 then proc_free else !start0);
      finish_at.(k) <- !t + 1;
      stall_of.(k) <- !stalls
    in
    let d_max =
      Array.fold_left (fun acc (w : Program.wait_info) -> max acc w.Program.distance) 0 p.Program.waits
    in
    let period =
      if not limited then 1 else match assignment with `Cyclic -> n_procs | `Block -> block
    in
    let lag =
      max d_max (if limited then match assignment with `Cyclic -> n_procs | `Block -> 1 else 1)
    in
    let guard = period + max 1 (max d_max (if limited && assignment = `Cyclic then n_procs else 0)) in
    let window = period + lag + 2 in
    let usable = extrapolate && period <= 512 && n > guard + window + period in
    let run_len = ref 0 in
    let lambda = ref 0 in
    let lambda_start = ref 0 in
    let state_delta k =
      let d = finish_at.(k) - finish_at.(k - period) in
      let ds = iteration_starts.(k) - iteration_starts.(k - period) in
      if
        (ds = d || ds = 0)
        &&
        let ok = ref true in
        for s = 0 to n_signals - 1 do
          if post.(s).(k) - post.(s).(k - period) <> d then ok := false
        done;
        !ok
      then Some (d, ds)
      else None
    in
    let stable_at = ref None in
    let k = ref 0 in
    while !k < n && !stable_at = None do
      simulate !k;
      (if usable && !k >= guard + period then
         match state_delta !k with
         | Some (d, ds) when !run_len > 0 && d = !lambda && ds = !lambda_start ->
           incr run_len;
           if !run_len >= window then stable_at := Some !k
         | Some (d, ds) ->
           run_len := 1;
           lambda := d;
           lambda_start := ds
         | None -> run_len := 0);
      incr k
    done;
    (match !stable_at with
    | None -> ()
    | Some k_s ->
      for k = k_s + 1 to n - 1 do
        iteration_starts.(k) <- iteration_starts.(k - period) + !lambda_start;
        finish_at.(k) <- finish_at.(k - period) + !lambda;
        let proc_free = match prev_on_proc k with Some j -> finish_at.(j) | None -> 0 in
        stall_of.(k) <- finish_at.(k) - proc_free - n_rows
      done);
    let finish = ref 0 in
    let stalls = ref 0 in
    for k = 0 to n - 1 do
      finish := max !finish finish_at.(k);
      stalls := !stalls + stall_of.(k)
    done;
    let trim a = if n = 0 then [||] else a in
    {
      Timing.finish = !finish;
      iteration_starts = trim iteration_starts;
      iteration_finishes = trim finish_at;
      stall_cycles = !stalls;
      extrapolated_from = !stable_at;
    }
end

(* [Ok result] or the [Invalid_schedule] payload, for whole-outcome
   comparison. *)
let outcome f =
  match f () with
  | r -> Ok r
  | exception Timing.Invalid_schedule { prog; iteration; wait; signal; posting_iteration } ->
    Error (prog, iteration, wait, signal, posting_iteration)

let same_outcome ?n_procs ?assignment ?extrapolate p rows =
  outcome (fun () -> Timing.run_rows ?n_procs ?assignment ?extrapolate p rows)
  = outcome (fun () -> Reference.run_rows ?n_procs ?assignment ?extrapolate p rows)

let reference_sources =
  [
    "DOACROSS I = 1, 100\n A[I] = A[I-1] + E[I]\nENDDO";
    "DOACROSS I = 1, 100\n A[I] = A[I-3] * E[I]\nENDDO";
    "DOACROSS I = 1, 100\n S1: B[I] = A[I-1]\n S2: A[I] = E[I]\nENDDO";
    "DOACROSS I = 1, 100\n\
    \ S1: B[I] = A[I-2] + E[I+1]\n\
    \ S2: G[I-3] = A[I-1] * E[I+2]\n\
    \ S3: A[I] = B[I] + C[I+3]\n\
     ENDDO";
    "DOACROSS I = 1, 40\n IF (E[I] > 0) A[I] = A[I-2] + C[I]\nENDDO";
    "DOACROSS I = 1, 30\n S1: S = S + A[I-1]\n S2: A[I] = E[I] + S\nENDDO";
  ]

let reference_programs = lazy (Array.of_list (List.map (fun src -> compile src) reference_sources))

(* A random row layout of [p]'s body: the body indices shuffled, cut
   into rows of 1-4 entries with empty rows mixed in.  [`Send] leaves
   one Send out (the run must fail on its first wait); [`Signal] leaves
   out a Send and every Wait on its signal, so the run completes with a
   signal that is never posted.  Timing trusts its input, so the layout
   need not be a legal schedule. *)
let random_rows rng (p : Program.t) ~drop =
  let body = Array.init (Array.length p.Program.body) Fun.id in
  for i = Array.length body - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = body.(i) in
    body.(i) <- body.(j);
    body.(j) <- t
  done;
  let n_signals = Array.length p.Program.signals in
  let signal = if n_signals = 0 then -1 else Random.State.int rng n_signals in
  let dropped i =
    match (drop, p.Program.body.(i)) with
    | (`Send | `Signal), Isched_ir.Instr.Send { signal = s } -> s = signal
    | `Signal, Isched_ir.Instr.Wait { wait } -> p.Program.waits.(wait).Program.signal = signal
    | _ -> false
  in
  let kept = List.filter (fun i -> not (dropped i)) (Array.to_list body) in
  let rows = ref [] in
  let rec cut = function
    | [] -> ()
    | l ->
      if Random.State.int rng 6 = 0 then rows := [||] :: !rows;
      let k = 1 + Random.State.int rng 4 in
      let row = List.filteri (fun i _ -> i < k) l in
      rows := Array.of_list row :: !rows;
      cut (List.filteri (fun i _ -> i >= k) l)
  in
  cut kept;
  Array.of_list (List.rev !rows)

let prop_timing_matches_reference =
  qtest ~count:300 "timing: kernel equals the list-based reference on random row layouts"
    QCheck2.Gen.(
      let* prog = int_range 0 (List.length reference_sources - 1) in
      let* n = oneof [ int_range 0 3; int_range 4 40; int_range 41 300 ] in
      let* n_procs = opt (int_range 1 12) in
      let* assignment = oneofl [ `Cyclic; `Block ] in
      let* extrapolate = bool in
      let* drop = frequency [ (4, return `None); (1, return `Send); (1, return `Signal) ] in
      let* seed = int in
      return (prog, n, n_procs, assignment, extrapolate, drop, seed))
    (fun (prog, n, n_procs, assignment, extrapolate, drop, seed) ->
      let p = (Lazy.force reference_programs).(prog) in
      let p = { p with Program.n_iters = n } in
      (* A pool of zero processors is rejected; give n = 0 a pool. *)
      let n_procs = if n = 0 && n_procs = None then Some 1 else n_procs in
      let rows = random_rows (Random.State.make [| seed |]) p ~drop in
      same_outcome ?n_procs ~assignment ~extrapolate p rows)

let test_timing_reference_missing_send () =
  (* The located error must carry the same payload as the reference's. *)
  let p = (Lazy.force reference_programs).(3) in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 50 do
    let rows = random_rows rng p ~drop:`Send in
    match outcome (fun () -> Timing.run_rows p rows) with
    | Ok _ -> Alcotest.fail "a layout without a Send must not simulate"
    | Error _ as e ->
      Alcotest.(check bool) "same payload" true
        (e = outcome (fun () -> Reference.run_rows p rows))
  done

let test_timing_reference_boundaries () =
  let p = (Lazy.force reference_programs).(0) in
  let rows = Array.init (Array.length p.Program.body) (fun i -> [| i |]) in
  List.iter
    (fun (n, n_procs) ->
      let p = { p with Program.n_iters = n } in
      List.iter
        (fun assignment ->
          List.iter
            (fun extrapolate ->
              Alcotest.(check bool)
                (Printf.sprintf "n=%d procs=%s" n
                   (match n_procs with None -> "all" | Some k -> string_of_int k))
                true
                (same_outcome ?n_procs ~assignment ~extrapolate p rows))
            [ true; false ])
        [ `Cyclic; `Block ])
    [ (0, Some 1); (0, Some 3); (1, None); (1, Some 1); (1, Some 4); (2, Some 1) ]

(* The scale-20 corpus scheduled both ways on the four paper configs,
   shared by the corpus tests below. *)
let scale20_schedules =
  lazy
    (let module Pipeline = Isched_harness.Pipeline in
     let module Suite = Isched_perfect.Suite in
     let acc = ref [] in
     List.iter
       (fun prof ->
         List.iter
           (fun c ->
             List.iter
               (fun l ->
                 match Pipeline.prepare_uncached Pipeline.default_options l with
                 | Pipeline.Doall _ -> ()
                 | Pipeline.Doacross { graph; _ } ->
                   List.iter
                     (fun (_, m) ->
                       let s_list = Isched_core.List_sched.run graph m in
                       let s_new = Isched_core.Sync_sched.run ~baseline:s_list graph m in
                       acc := s_new :: s_list :: !acc)
                     Machine.paper_configs)
               (Suite.chunk_loops c))
           (Suite.chunks ~scale:20 prof))
       Isched_perfect.Profile.all;
     List.rev !acc)

let test_timing_reference_corpus () =
  let schedules = Lazy.force scale20_schedules in
  Alcotest.(check bool) "corpus is non-trivial" true (List.length schedules > 1000);
  List.iter
    (fun (s : Schedule.t) ->
      let p = s.Schedule.prog in
      if
        outcome (fun () -> Timing.run s)
        <> outcome (fun () -> Reference.run_rows p s.Schedule.rows)
      then Alcotest.failf "%s: kernel and reference disagree" p.Program.name)
    schedules

(* --- the LBD theorem per loop --- *)

(* With one wait (distance d, wait row j, send row i, 1-based) and a
   full pool every iteration starts at cycle 0 and can stall only at
   that wait.  If i >= j the send follows the wait (in the same row,
   waits resolve first), so iteration k posts at
   post_k = max(i - 1, post_{k-d} + 1 + (i - j)) = post_{k-d} + i-j+1
   (post_{k-d} >= i - 1), i.e. post_k = i - 1 + floor(k/d)(i-j+1), and
   iteration k retires after l + floor(k/d)(i-j+1) cycles.  If i < j
   the post (cycle i - 1) is visible before the wait issues, so no
   iteration stalls.  Either way the last iteration gives
   floor((n-1)/d) * max(0, i-j+1) + l, which is [Lbd_model.exact_time]. *)
let test_timing_lbd_per_loop () =
  let single =
    List.filter
      (fun (s : Schedule.t) -> Array.length s.Schedule.prog.Program.waits = 1)
      (Lazy.force scale20_schedules)
  in
  Alcotest.(check bool) "single-wait schedules exist" true (List.length single > 100);
  List.iter
    (fun (s : Schedule.t) ->
      check Alcotest.int
        (s.Schedule.prog.Program.name ^ ": LBD theorem")
        (Lbd_model.exact_time s) (Timing.run s).Timing.finish)
    single

(* The per-domain scratch keeps arrays only up to a fixed size, so one
   run with a long trip count (a serve request may ask for any) does not
   pin its memory to the domain afterwards.  A first run at a trip count
   within the cap fills the scratch to its largest kept size; the long
   run after it must leave the live heap where that run left it.  Had the
   scratch kept the long run's arrays, its start, finish and post cells
   (3 x 300,000 words) would stay live. *)
let test_timing_scratch_released () =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let p, rows = chain_rows 60_000 in
  check Alcotest.int "one signal" 1 (Array.length p.Program.signals);
  ignore (Sys.opaque_identity (Timing.run_rows p rows));
  let before = live () in
  let long = { p with Program.n_iters = 300_000 } in
  let t = Timing.run_rows long rows in
  check Alcotest.int "every iteration timed" 300_000 (Array.length t.Timing.iteration_finishes);
  let after = live () in
  if after - before > 50_000 then
    Alcotest.failf "live heap grew by %d words after a 300,000-iteration run" (after - before)

let suite =
  [
    ("timing: doall costs the schedule length", `Quick, test_timing_doall);
    ("timing: LBD theorem, distance 1", `Quick, test_timing_matches_theorem_d1);
    ("timing: LBD theorem, distance 3", `Quick, test_timing_matches_theorem_d3);
    ("timing: converted pairs cost one iteration", `Quick, test_timing_lfd_costs_nothing);
    ("timing: chained iteration starts increase", `Quick, test_timing_iteration_starts_monotone_chain);
    ("timing: linear in the iteration count", `Quick, test_timing_n_iters_scaling);
    ("timing: missing send raises a located Invalid_schedule", `Quick,
      test_timing_invalid_schedule_error);
    ("timing: run_rows on a hand layout", `Quick, test_timing_run_rows_hand_layout);
    prop_block_extrapolation_ragged;
    ( "timing: extrapolation exact on corpora, n in {1,7,100}, both assignments",
      `Slow,
      test_timing_extrapolation_matches_full );
    ("timing: extrapolation engages on long runs", `Quick, test_timing_extrapolation_fires);
    ("timing: boundary, zero iterations", `Quick, test_timing_boundary_zero_iters);
    ("timing: boundary, one iteration", `Quick, test_timing_boundary_one_iter);
    ("timing: boundary, trip count below the period", `Quick, test_timing_boundary_below_period);
    ("timing: boundary, period past the cap falls back", `Quick, test_timing_boundary_unusable_period);
    ("value: Fig. 1 is exact", `Quick, test_value_fig1);
    ("value: multiplicative recurrence", `Quick, test_value_recurrence);
    ("value: guarded recurrence", `Quick, test_value_guard);
    ("value: anti dependence", `Quick, test_value_anti_dep);
    ("value: scalar dependence", `Quick, test_value_scalar_dep);
    ("value: agrees with the timing engine", `Quick, test_value_finish_matches_timing);
    ("value: race-free under synchronization", `Quick, test_value_no_races_under_sync);
    ("value: stale reads without the sync arcs", `Quick, test_value_stale_without_sync_arcs);
    ("value: corpus sample is exact", `Slow, test_value_corpus_sample);
    prop_timing_matches_reference;
    ("timing: missing Send gives the reference's payload", `Quick,
      test_timing_reference_missing_send);
    ("timing: reference agrees for n in {0,1,2}, both pools", `Quick,
      test_timing_reference_boundaries);
    ("timing: reference agrees over the scale-20 corpus", `Quick, test_timing_reference_corpus);
    ("timing: LBD theorem exact on every single-wait scale-20 schedule", `Quick,
      test_timing_lbd_per_loop);
    ("timing: a long run leaves no scratch behind", `Quick, test_timing_scratch_released);
  ]
