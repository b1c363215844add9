(* Workload tables-s100: the paper's Tables 1-3 over the streamed
   100x corpus at jobs 1, elimination off.

   The seed selects the generated loop stream: seed 0 keeps every
   profile's own generator seed (the shipped scale-100 corpus), seed s
   offsets each generator seed by s.  The signature loops are the same
   for every seed. *)

module Profile = Isched_perfect.Profile
module Suite = Isched_perfect.Suite
module Report = Isched_harness.Report
module Pipeline = Isched_harness.Pipeline
module Machine = Isched_ir.Machine
module Program = Isched_ir.Program
module Counters = Isched_obs.Counters

let scale = 100
let configs = Machine.paper_configs
let options = Pipeline.default_options

(* Table 2 totals of the seed-0 corpus, summed over the four configs. *)
let seed0_list = 40_205_709
let seed0_new = 8_252_300

let profiles seed =
  List.map (fun (p : Profile.t) -> { p with Profile.seed = p.Profile.seed + seed }) Profile.all

type totals = { t_list : int; t_new : int; per_cell : (string * string * int * int) list }

let totals_of_measurements (ms : Report.measurement list) =
  {
    t_list = List.fold_left (fun a (x : Report.measurement) -> a + x.Report.t_list) 0 ms;
    t_new = List.fold_left (fun a (x : Report.measurement) -> a + x.Report.t_new) 0 ms;
    per_cell =
      List.map
        (fun (x : Report.measurement) -> (x.Report.benchmark, x.Report.config, x.Report.t_list, x.Report.t_new))
        ms;
  }

(* One untraced pass: the Report.scaled_tables path, rendered. *)
let report_pass profiles =
  let t1, ms, cats, sync_ops = Report.scaled_tables ~options ~jobs:1 ~scale profiles configs in
  let rendered =
    String.concat ""
      [ Isched_util.Table.render t1; Isched_util.Table.render (Report.table2 ms);
        Isched_util.Table.render (Report.table3 ms); Isched_util.Table.render cats ]
  in
  (totals_of_measurements ms, sync_ops, rendered)

(* The same work composed from the layers' public functions, exactly as
   Pipeline.prepare_uncached and Pipeline.list_and_new_times do it, with
   a span around every call (a no-op unless tracing is on). *)
let composed_pass profiles =
  let module R = Isched_transform.Restructure in
  let module Doall = Isched_transform.Doall in
  let span = Spans.span in
  let cells = Hashtbl.create 32 in
  let sync_ops = ref 0 and instrs = ref 0 and loops = ref 0 and doacross = ref 0 in
  let timing_calls = ref 0 and fallbacks = ref 0 in
  let new_opts =
    { Isched_core.Sync_sched.default_options with order_paths = options.Pipeline.order_paths }
  in
  let time s = (span "sim.timing" (fun () -> Isched_sim.Timing.run s)).Isched_sim.Timing.finish in
  List.iter
    (fun (p : Profile.t) ->
      List.iter
        (fun c ->
          let chunk = span "perfect.gen" (fun () -> Suite.chunk_loops c) in
          List.iter
            (fun (l : Isched_frontend.Ast.loop) ->
              incr loops;
              Spans.set_item !loops;
              let r = span "transform.restructure" (fun () -> R.run l) in
              let l' = r.R.loop in
              let carried = span "deps.carried" (fun () -> Isched_deps.Dep.carried_deps l') in
              if carried <> [] then begin
                incr doacross;
                let prog =
                  span "codegen.compile" (fun () ->
                      Isched_codegen.Codegen.compile ~eliminate:options.Pipeline.eliminate
                        ~migrate:options.Pipeline.migrate ~carried ?n_iters:options.Pipeline.n_iters l')
                in
                let graph = span "dfg.build" (fun () -> Isched_dfg.Dfg.build prog) in
                instrs := !instrs + Array.length prog.Program.body;
                Array.iter
                  (fun i -> if Isched_ir.Instr.is_sync i then incr sync_ops)
                  prog.Program.body;
                List.iter
                  (fun (cname, m) ->
                    let s_list =
                      span "core.list_sched" (fun () -> Isched_core.List_sched.run graph m)
                    in
                    let s_new =
                      span "core.sync_sched" (fun () ->
                          Isched_core.Sync_sched.run ~options:new_opts ~baseline:s_list graph m)
                    in
                    let tl = time s_list in
                    incr timing_calls;
                    let tn =
                      if s_new == s_list then (incr fallbacks; tl)
                      else (incr timing_calls; time s_new)
                    in
                    let key = (p.Profile.name, cname) in
                    let a, b = Option.value ~default:(0, 0) (Hashtbl.find_opt cells key) in
                    Hashtbl.replace cells key (a + tl, b + tn))
                  configs;
                ignore
                  (span "transform.categorize" (fun () ->
                       if r.R.loop == l then Doall.categorize ~carried l else Doall.categorize l))
              end)
            chunk)
        (Suite.chunks ~scale p))
    profiles;
  let per_cell =
    List.concat_map
      (fun (p : Profile.t) ->
        List.map
          (fun (cname, _) ->
            let a, b = Hashtbl.find cells (p.Profile.name, cname) in
            (p.Profile.name, cname, a, b))
          configs)
      profiles
  in
  let sum f = List.fold_left (fun acc (_, _, a, b) -> acc + f a b) 0 per_cell in
  ( { t_list = sum (fun a _ -> a); t_new = sum (fun _ b -> b); per_cell },
    (!loops, !doacross, !instrs, !sync_ops, !timing_calls, !fallbacks) )

(* Correctness outside the timed window: a seeded sample of loops of
   the stream, scheduled both ways on a seeded config, through the
   static checker and the value oracle. *)
let check_sample ~seed profiles =
  let rng = Random.State.make [| seed; 0x7ab1e5 |] in
  let checked = ref 0 and static_s = ref 0. and oracle_s = ref 0. in
  let attempts = ref 0 in
  while !checked < 24 && !attempts < 500 do
    incr attempts;
    let p = List.nth profiles (Random.State.int rng (List.length profiles)) in
    let idx = Random.State.int rng (p.Profile.n_generated * scale) in
    let l = Isched_perfect.Genloop.nth p idx in
    match Pipeline.prepare_uncached options l with
    | Pipeline.Doall _ -> ()
    | Pipeline.Doacross _ as prep ->
      let cname, m = List.nth configs (Random.State.int rng (List.length configs)) in
      List.iter
        (fun which ->
          incr checked;
          let s = Pipeline.schedule ~options prep m which in
          let static, st = Common.time (fun () -> Isched_check.Static.check s) in
          static_s := !static_s +. st;
          (match static with
          | Ok () -> ()
          | Error vs ->
            Common.fail "tables-s100: %s on %s: %s" l.Isched_frontend.Ast.name cname
              (Isched_check.Static.errors_to_string l.Isched_frontend.Ast.name vs));
          let oracle, ot = Common.time (fun () -> Isched_check.Oracle.differential s) in
          oracle_s := !oracle_s +. ot;
          match oracle with
          | Ok () -> ()
          | Error msgs ->
            Common.fail "tables-s100: oracle on %s (%s): %s" l.Isched_frontend.Ast.name cname
              (String.concat "; " msgs))
        [ Pipeline.List_scheduling; Pipeline.New_scheduling ]
  done;
  Layers.set "check.schedules" (float_of_int !checked);
  Layers.set "check.static_ms" (!static_s *. 1e3);
  Layers.set "check.oracle_ms" (!oracle_s *. 1e3);
  !checked

let setup () =
  Isched_util.Pool.set_default_jobs 1;
  (* The streamed path parses the signature loops of every profile in
     its first chunk; parse them here too so a parse regression shows in
     set-up as well. *)
  List.iter (fun p -> ignore (Suite.signature_loops p)) Profile.all

let run ~seed ~seconds ~trace =
  setup ();
  let profiles = profiles seed in
  let walls = ref [] and cpus = ref [] and first = ref None and passes = ref 0 in
  let t_start = Common.now_ns () in
  let pass () =
    Common.probe_host ~setup ();
    (* Every pass starts on a compacted heap, as a fresh process would. *)
    Gc.compact ();
    let c0 = Common.cpu_self () in
    let (tot, sync_ops, rendered), s = Common.time (fun () -> report_pass profiles) in
    cpus := (Common.cpu_self () -. c0) :: !cpus;
    incr passes;
    walls := s :: !walls;
    (match !first with
    | None -> first := Some (tot, sync_ops, rendered)
    | Some (_, _, r0) -> Common.check (r0 = rendered) "tables-s100: pass %d tables differ from pass 1" !passes)
  in
  let budget = if trace then seconds /. 3. else seconds in
  pass ();
  (* Stop before a pass would end past the budget. *)
  while Common.secs_since t_start +. List.hd !walls < budget || !passes < (if trace then 1 else 3) do
    pass ()
  done;
  let tot, sync_ops, _ = Option.get !first in
  let wall_s = Common.lower_quartile (Array.of_list !walls) in
  let cpu_s = Common.lower_quartile (Array.of_list !cpus) in
  if seed = 0 then begin
    Common.check (tot.t_list = seed0_list) "tables-s100: sim_cycles_list %d, expected %d" tot.t_list seed0_list;
    Common.check (tot.t_new = seed0_new) "tables-s100: sim_cycles_new %d, expected %d" tot.t_new seed0_new
  end;
  let scale = Common.host_scale () in
  let setup_s = Common.median (Array.of_list !Common.setup_times) in
  let rss = Common.peak_rss_mb () in
  let checked = check_sample ~seed profiles in
  Printf.printf "tables-s100: seed %d, %d passes, wall %.3f s, CPU %.3f s (lower quartiles), sim cycles list %d new %d, sync ops %d, %d schedules checked\n%!"
    seed !passes wall_s cpu_s tot.t_list tot.t_new sync_ops checked;
  let attempted = !passes + checked in
  if not trace then
    ( attempted,
      [
        Common.m "setup_s" "s" (setup_s *. scale);
        Common.m "wall_s" "s" (wall_s *. scale);
        Common.m "cpu_s" "s" (cpu_s *. scale);
        Common.m "peak_rss_mb" "MB" rss;
        Common.m "sim_cycles_list" "cycles" (float_of_int tot.t_list);
        Common.m "sim_cycles_new" "cycles" (float_of_int tot.t_new);
      ] )
  else begin
    (* Untraced and traced runs of the composed pass alternate, twice; the
       ratio of their fastest runs is the tracing overhead.  Every total
       must match the Report path's; the spans of the last traced run are
       kept. *)
    let plain_s = ref infinity and fastest_traced = ref infinity and last = ref None in
    for _ = 1 to 2 do
      let (plain, _), s = Common.time (fun () -> composed_pass profiles) in
      plain_s := Float.min !plain_s s;
      Common.check (plain = tot) "tables-s100: composed untraced totals differ from Report.scaled_tables";
      Spans.reset ();
      Spans.enabled := true;
      let arcs0 = Counters.value (Counters.counter "dfg.arcs") in
      let r, s = Common.time (fun () -> composed_pass profiles) in
      Spans.enabled := false;
      fastest_traced := Float.min !fastest_traced s;
      last := Some (r, s, Counters.value (Counters.counter "dfg.arcs") - arcs0)
    done;
    let (traced, (loops, doacross, instrs, sync_ops', timing_calls, fallbacks)), traced_s, arcs =
      Option.get !last
    in
    let plain_s = !plain_s and overhead = !fastest_traced /. !plain_s in
    Common.check (traced = tot) "tables-s100: traced totals (list %d, new %d) differ from untraced (list %d, new %d)"
      traced.t_list traced.t_new tot.t_list tot.t_new;
    Common.check (sync_ops' = sync_ops) "tables-s100: traced sync ops %d, Report %d" sync_ops' sync_ops;
    let agg = Spans.aggregate () in
    Layers.record_spans agg;
    let covered = float_of_int (Spans.covered_ns ()) /. 1e9 in
    Layers.set "perfect.loops" (float_of_int loops);
    Layers.set "deps.doacross_loops" (float_of_int doacross);
    Layers.set "codegen.instrs" (float_of_int instrs);
    Layers.set "codegen.sync_ops" (float_of_int sync_ops');
    Layers.set "dfg.arcs" (float_of_int arcs);
    Layers.set "sim.timing_calls" (float_of_int timing_calls);
    Layers.set "core.new_fallback_ratio"
      (float_of_int fallbacks /. float_of_int (max 1 (doacross * List.length configs)));
    Layers.set "trace.coverage_ratio" (covered /. traced_s);
    Layers.set "trace.overhead_ratio" overhead;
    Layers.set "trace.spans" (float_of_int (Spans.count ()));
    Printf.printf "tables-s100 traced: composed pass %.3f s untraced, %.3f s traced (fastest of 2 each; overhead x%.3f), spans cover %.1f%% of the last traced run\n%!"
      plain_s !fastest_traced overhead (100. *. covered /. traced_s);
    (attempted + 4, Layers.metrics ())
  end
