(* Workload ablations-s1: the scale-1 corpus through the memoized path
   at jobs 2 — Tables 1-3, categories, ablations A1-A6, the sweep and the
   unroll, processor, register and architecture tables.  The prepare
   memo is cleared before every pass because users pay its fill on
   every run.  The seed has no effect: the scale-1 corpus is fixed. *)

module Suite = Isched_perfect.Suite
module Report = Isched_harness.Report
module Pipeline = Isched_harness.Pipeline
module Table = Isched_util.Table
module Counters = Isched_obs.Counters

let jobs = 2
let configs = Isched_ir.Machine.paper_configs

let tables benches =
  [
    ("table1", fun () -> Report.table1 benches);
    ("categories", fun () -> Report.categories benches);
    ("order", fun () -> Report.ablation_order benches);
    ("elimination", fun () -> Report.ablation_elimination benches);
    ("migration", fun () -> Report.ablation_migration benches);
    ("sweep", fun () -> Report.sweep benches);
    ("markers", fun () -> Report.ablation_markers benches);
    ("sync_elim", fun () -> Report.ablation_sync_elim benches);
    ("unroll", fun () -> Report.unroll_study ());
    ("processor", fun () -> Report.processor_sweep benches);
    ("register", fun () -> Report.register_study benches);
    ("architecture", fun () -> Report.architecture_comparison benches);
  ]

(* One pass; returns the rendered tables and the Table 2 totals. *)
let pass ?(jobs = jobs) benches =
  Pipeline.memo_clear ();
  let ms = Spans.span "report.measure" (fun () -> Report.measure ~jobs benches configs) in
  let b = Buffer.create 65536 in
  Buffer.add_string b (Table.render (Report.table2 ms));
  Buffer.add_string b (Table.render (Report.table3 ms));
  List.iter
    (fun (name, f) -> Buffer.add_string b (Spans.span ("report." ^ name) (fun () -> Table.render (f ()))))
    (tables benches);
  let sum f = List.fold_left (fun a (x : Report.measurement) -> a + f x) 0 ms in
  (Buffer.contents b, sum (fun x -> x.Report.t_list), sum (fun x -> x.Report.t_new))

let setup () =
  Isched_util.Pool.set_default_jobs jobs;
  let benches = Suite.corpora () in
  (* Spawn the pool's worker domains before the first timed pass. *)
  ignore (Isched_util.Pool.map ~jobs (fun x -> x + 1) [ 1; 2; 3; 4 ]);
  benches

let worker_tasks () = (Counters.dist_stats (Counters.dist "pool.worker_tasks")).Counters.sum
let waits_removed () = Counters.value (Counters.counter "sync.elim.waits_removed")

let run ~seed:_ ~seconds ~trace =
  let benches = setup () in
  let first = ref None and walls = ref [] and cpus = ref [] and passes = ref 0 in
  let timed_pass () =
    Common.probe_host ~setup:(fun () -> ignore (setup ())) ();
    (* Every pass starts on a compacted heap, as a fresh process would. *)
    Gc.compact ();
    let c0 = Common.cpu_self () in
    let (rendered, tl, tn), s = Common.time (fun () -> pass benches) in
    cpus := (Common.cpu_self () -. c0) :: !cpus;
    incr passes;
    (match !first with
    | None -> first := Some (rendered, tl, tn)
    | Some (r0, _, _) ->
      Common.check (r0 = rendered) "ablations-s1: pass %d tables are not byte-identical to pass 1"
        !passes);
    walls := s :: !walls
  in
  let t_start = Common.now_ns () in
  let budget = if trace then seconds /. 3. else seconds in
  timed_pass ();
  while Common.secs_since t_start +. List.hd !walls < budget || !passes < 5 do
    timed_pass ()
  done;
  let _, t_list, t_new = Option.get !first in
  let wall_s = Common.lower_quartile (Array.of_list !walls) in
  let cpu_s = Common.lower_quartile (Array.of_list !cpus) in
  let scale = Common.host_scale () in
  let setup_s = Common.median (Array.of_list !Common.setup_times) in
  let rss = Common.peak_rss_mb () in
  Printf.printf "ablations-s1: %d passes at jobs %d, wall %.4f s, CPU %.4f s (lower quartiles), sim cycles list %d new %d (seed has no effect)\n%!"
    !passes jobs wall_s cpu_s t_list t_new;
  if not trace then
    ( !passes,
      [
        Common.m "setup_s" "s" (setup_s *. scale);
        Common.m "wall_s" "s" (wall_s *. scale);
        Common.m "cpu_s" "s" (cpu_s *. scale);
        Common.m "peak_rss_mb" "MB" rss;
        Common.m "sim_cycles_list" "cycles" (float_of_int t_list);
        Common.m "sim_cycles_new" "cycles" (float_of_int t_new);
      ] )
  else begin
    (* Distinct memo keys per pass: the misses of a sequential pass,
       where no two workers can race to compute the same key. *)
    Isched_util.Pool.set_default_jobs 1;
    ignore (pass ~jobs:1 benches);
    let _, distinct = Pipeline.memo_stats () in
    Isched_util.Pool.set_default_jobs jobs;
    let n = 3 in
    Spans.reset ();
    let counter name = Counters.value (Counters.counter name) in
    let snap () =
      ( worker_tasks (),
        waits_removed (),
        counter "dfg.arcs",
        counter "sched.new.runs",
        counter "sched.new.list_fallback",
        counter "timing.full_sim" + counter "timing.extrapolated" )
    in
    let t0, w0, a0, r0, f0, c0 = snap () in
    let hits = ref 0 and misses = ref 0 and traced = ref [] and plain = ref [] in
    let layer_us = ref 0. and worker_us = ref 0. in
    let main_tid = (Domain.self () :> int) in
    (* Untraced and traced passes alternate, so the overhead ratio is not
       skewed by drift in the host's speed. *)
    for _ = 1 to n do
      plain := snd (Common.time (fun () -> pass benches)) :: !plain;
      Spans.enabled := true;
      Isched_obs.Span.reset ();
      Isched_obs.Span.set_enabled true;
      let (rendered, _, _), s = Common.time (fun () -> pass benches) in
      Isched_obs.Span.set_enabled false;
      Spans.enabled := false;
      let a, w = Layers.record_lib_spans ~per:n ~main_tid (Isched_obs.Span.events ()) in
      layer_us := !layer_us +. a;
      worker_us := !worker_us +. w;
      Isched_obs.Span.reset ();
      let h, m = Pipeline.memo_stats () in
      hits := !hits + h;
      misses := !misses + m;
      traced := s :: !traced;
      Common.check (Some rendered = Option.map (fun (r, _, _) -> r) !first)
        "ablations-s1: traced pass tables differ from the untraced pass"
    done;
    let t1, w1, a1, r1, f1, c1 = snap () in
    let traced_s = Common.median (Array.of_list !traced) in
    let plain_s = Common.median (Array.of_list !plain) in
    let covered = float_of_int (Spans.covered_ns ()) /. 1e9 in
    let traced_total = List.fold_left ( +. ) 0. !traced in
    Layers.record_spans ~per:n (Spans.aggregate ());
    let per x = float_of_int x /. float_of_int (2 * n) in
    Layers.set "harness.memo.hit_ratio" (float_of_int !hits /. float_of_int (max 1 (!hits + !misses)));
    Layers.set "harness.memo.misses" (float_of_int !misses /. float_of_int n);
    Layers.set "harness.memo.wasted_computes" ((float_of_int !misses /. float_of_int n) -. float_of_int distinct);
    Layers.set "util.pool.worker_tasks" (per (t1 - t0));
    Layers.set "sync.elim.waits_removed" (per (w1 - w0));
    Layers.set "dfg.arcs" (per (a1 - a0));
    Layers.set "core.new_fallback_ratio" (float_of_int (f1 - f0) /. float_of_int (max 1 (r1 - r0)));
    Layers.set "sim.timing_calls" (per (c1 - c0));
    (* Layer coverage: the self time of the library spans that feed a
       layer metric, as a share of the domain-seconds of the traced
       passes (the main domain throughout, the pool domain while it runs
       tasks). *)
    let busy_us = (traced_total *. 1e6) +. !worker_us in
    let coverage = !layer_us /. busy_us in
    Layers.set "trace.coverage_ratio" coverage;
    Layers.set "trace.overhead_ratio" (traced_s /. plain_s);
    Layers.set "trace.spans" (float_of_int (Spans.count ()));
    Printf.printf "ablations-s1 traced: %d passes, %.4f s traced vs %.4f s untraced (x%.3f); memo %d distinct keys, %.1f misses/pass; layer spans cover %.1f%% of %.3f domain-seconds, table spans %.1f%% of the main domain\n%!"
      n traced_s plain_s (traced_s /. plain_s) distinct (float_of_int !misses /. float_of_int n)
      (100. *. coverage) (busy_us /. 1e6) (100. *. covered /. traced_total);
    (!passes + (2 * n) + 1, Layers.metrics ())
  end
