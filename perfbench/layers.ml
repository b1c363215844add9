(* The per-layer metrics of the traced run, named after the lib/
   modules.  Every workload reports every metric; a layer the workload
   bypasses reads 0. *)

let all =
  [
    ("core.list_sched_ms", "ms");
    ("core.sync_sched_ms", "ms");
    ("core.other_sched_ms", "ms");
    ("core.new_fallback_ratio", "ratio");
    ("core.minor_mw", "Mw");
    ("codegen.compile_ms", "ms");
    ("codegen.instrs", "count");
    ("codegen.sync_ops", "count");
    ("codegen.minor_mw", "Mw");
    ("dfg.build_ms", "ms");
    ("dfg.arcs", "count");
    ("dfg.minor_mw", "Mw");
    ("deps.carried_ms", "ms");
    ("deps.doacross_loops", "count");
    ("deps.minor_mw", "Mw");
    ("transform.restructure_ms", "ms");
    ("transform.categorize_ms", "ms");
    ("transform.minor_mw", "Mw");
    ("sim.timing_ms", "ms");
    ("sim.timing_calls", "count");
    ("sim.minor_mw", "Mw");
    ("perfect.gen_ms", "ms");
    ("perfect.loops", "count");
    ("perfect.minor_mw", "Mw");
    ("sync.elim_ms", "ms");
    ("sync.plan_ms", "ms");
    ("sync.elim.waits_removed", "count");
    ("sync.minor_mw", "Mw");
    ("frontend.parse_us", "us");
    ("frontend.minor_mw", "Mw");
    ("check.static_ms", "ms");
    ("check.oracle_ms", "ms");
    ("check.schedules", "count");
    ("harness.pipeline_ms", "ms");
    ("harness.report_tasks_ms", "ms");
    ("harness.memo.hit_ratio", "ratio");
    ("harness.memo.misses", "count");
    ("harness.memo.wasted_computes", "count");
    ("report.table1_ms", "ms");
    ("report.measure_ms", "ms");
    ("report.categories_ms", "ms");
    ("report.order_ms", "ms");
    ("report.elimination_ms", "ms");
    ("report.migration_ms", "ms");
    ("report.sweep_ms", "ms");
    ("report.markers_ms", "ms");
    ("report.sync_elim_ms", "ms");
    ("report.unroll_ms", "ms");
    ("report.processor_ms", "ms");
    ("report.register_ms", "ms");
    ("report.architecture_ms", "ms");
    ("report.minor_mw", "Mw");
    ("util.pool.worker_tasks", "count");
    ("serve.client.encode_us", "us");
    ("serve.client.roundtrip_us", "us");
    ("serve.client.decode_us", "us");
    ("serve.handle_hit_us", "us");
    ("serve.handle_miss_us", "us");
    ("serve.socket_us", "us");
    ("serve.daemon.decode_us", "us");
    ("serve.daemon.cache_probe_us", "us");
    ("serve.daemon.compute_us", "us");
    ("serve.daemon.encode_us", "us");
    ("serve.daemon.write_us", "us");
    ("serve.hit_p50_us", "us");
    ("serve.hit_p99_us", "us");
    ("serve.hit_samples", "count");
    ("serve.miss_p50_us", "us");
    ("serve.miss_p99_us", "us");
    ("serve.miss_samples", "count");
    ("serve.throughput_rps", "1/s");
    ("serve.cache.hit_ratio", "ratio");
    ("serve.cache.evictions", "count");
    ("serve.cache.coalesced", "count");
    ("serve.minor_mw", "Mw");
    ("trace.coverage_ratio", "ratio");
    ("trace.overhead_ratio", "ratio");
    ("trace.spans", "count");
  ]

let values : (string, float) Hashtbl.t = Hashtbl.create 128

let set name v =
  if not (List.mem_assoc name all) then invalid_arg ("Layers.set: unknown metric " ^ name);
  Hashtbl.replace values name v

let add name v = set name (v +. Option.value ~default:0. (Hashtbl.find_opt values name))

let metrics () =
  List.map
    (fun (name, unit_) -> Common.m name unit_ (Option.value ~default:0. (Hashtbl.find_opt values name)))
    all

(* Span name -> layer metric.  Self time feeds the [_ms]/[_us] metric,
   self allocation the layer's [minor_mw]. *)
let record_spans ?(per = 1) (agg : (string, Spans.agg) Hashtbl.t) =
  Hashtbl.iter
    (fun name (a : Spans.agg) ->
      let layer = String.sub name 0 (String.index name '.') in
      let self_ns = float_of_int a.Spans.self_ns /. float_of_int per in
      (match List.assoc_opt (name ^ "_ms") all with
      | Some _ -> add (name ^ "_ms") (self_ns /. 1e6)
      | None -> (
        match List.assoc_opt (name ^ "_us") all with
        | Some _ -> add (name ^ "_us")
            (float_of_int a.Spans.self_ns /. 1e3 /. float_of_int (max 1 a.Spans.calls))
        | None -> ()));
      if List.mem_assoc (layer ^ ".minor_mw") all then
        add (layer ^ ".minor_mw") (a.Spans.self_minor /. 1e6 /. float_of_int per))
    agg

(* The passes of ablations-s1 run inside Report's table functions, out of
   reach of calls timed from outside; for them the libraries' own span
   log (Isched_obs.Span, switched on only in the traced run) is reduced
   instead.  Spans nest by time containment within a domain; a span's
   self time is its duration minus its direct children's.  The
   [pipeline.*] spans hold the prepare and schedule steps that have no
   span of their own (dependence analysis, Sync.Elim, the memo); the
   self time of [pool.task] is Report's per-cell code, the only caller
   of the pool. *)
let lib_metric = function
  | "sched.list" -> Some "core.list_sched_ms"
  | "sched.new" -> Some "core.sync_sched_ms"
  | "codegen.compile" | "codegen.run" -> Some "codegen.compile_ms"
  | "dfg.build" -> Some "dfg.build_ms"
  | "transform.restructure" -> Some "transform.restructure_ms"
  | "sim.timing" -> Some "sim.timing_ms"
  | "sched.modulo" | "sched.marker" -> Some "core.other_sched_ms"
  | "sync.plan" -> Some "sync.plan_ms"
  | "pipeline.prepare" | "pipeline.schedule" -> Some "harness.pipeline_ms"
  | "pool.task" -> Some "harness.report_tasks_ms"
  | _ -> None

(* Returns the microseconds of self time attributed to a layer metric
   and the microseconds the domains other than [main_tid] spent in pool
   tasks: with the traced wall time of the main domain, the latter gives
   the domain-seconds the layer time is a share of. *)
let record_lib_spans ~per ~main_tid (events : Isched_obs.Span.event list) =
  let module S = Isched_obs.Span in
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun (e : S.event) ->
      Hashtbl.replace by_tid e.S.tid (e :: Option.value ~default:[] (Hashtbl.find_opt by_tid e.S.tid)))
    events;
  let self = Hashtbl.create 32 in
  let bump name us = Hashtbl.replace self name (us +. Option.value ~default:0. (Hashtbl.find_opt self name)) in
  Hashtbl.iter
    (fun _ es ->
      let es =
        List.sort (fun (a : S.event) (b : S.event) -> compare (a.S.ts_us, -.a.S.dur_us) (b.S.ts_us, -.b.S.dur_us)) es
      in
      let stack = ref [] in
      List.iter
        (fun (e : S.event) ->
          let rec pop () =
            match !stack with
            | (top : S.event) :: rest when top.S.ts_us +. top.S.dur_us <= e.S.ts_us ->
              stack := rest;
              pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with (parent : S.event) :: _ -> bump parent.S.name (-.e.S.dur_us) | [] -> ());
          bump e.S.name e.S.dur_us;
          stack := e :: !stack)
        es)
    by_tid;
  let attributed = ref 0. in
  Hashtbl.iter
    (fun name us ->
      match lib_metric name with
      | Some metric ->
        attributed := !attributed +. us;
        add metric (us /. 1e3 /. float_of_int per)
      | None -> ())
    self;
  let worker_busy =
    List.fold_left
      (fun acc (e : S.event) -> if e.S.tid <> main_tid && e.S.name = "pool.task" then acc +. e.S.dur_us else acc)
      0. events
  in
  (!attributed, worker_busy)
