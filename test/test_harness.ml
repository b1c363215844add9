(* Tests for the experiment harness: the Fig. 5 pipeline, the table
   builders, the worked example, and the headline results' shape. *)

module Pipeline = Isched_harness.Pipeline
module Report = Isched_harness.Report
module Worked_example = Isched_harness.Worked_example
module Suite = Isched_perfect.Suite
module Machine = Isched_ir.Machine
module Table = Isched_util.Table

let check = Alcotest.check

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

(* small corpora for fast table tests *)
let small_benches () =
  List.map
    (fun p -> Suite.load { p with Isched_perfect.Profile.n_generated = 3 })
    Isched_perfect.Profile.all

let test_pipeline_prepare () =
  let l = Isched_frontend.Parser.parse_loop "DOACROSS I = 1, 10\n A[I] = A[I-1]\nENDDO" in
  (match Pipeline.prepare l with
  | Pipeline.Doacross { prog; graph; _ } ->
    check Alcotest.int "graph covers the program" (Array.length prog.Isched_ir.Program.body)
      graph.Isched_dfg.Dfg.n
  | Pipeline.Doall _ -> Alcotest.fail "recurrence is doacross");
  let l2 = Isched_frontend.Parser.parse_loop "DO I = 1, 10\n S = S + E[I]\nENDDO" in
  match Pipeline.prepare l2 with
  | Pipeline.Doall _ -> ()
  | Pipeline.Doacross _ -> Alcotest.fail "reduction should become doall"

let test_pipeline_schedule_rejects_doall () =
  let l = Isched_frontend.Parser.parse_loop "DO I = 1, 10\n S = S + E[I]\nENDDO" in
  let p = Pipeline.prepare l in
  Alcotest.(check bool) "raises on doall" true
    (try
       ignore (Pipeline.schedule p (Machine.make ~issue:4 ~nfu:1 ()) Pipeline.List_scheduling);
       false
     with Invalid_argument _ -> true)

let test_pipeline_loop_time_positive () =
  let l = Isched_frontend.Parser.parse_loop "DOACROSS I = 1, 10\n A[I] = A[I-1]\nENDDO" in
  let p = Pipeline.prepare l in
  let t = Pipeline.loop_time p (Machine.make ~issue:4 ~nfu:1 ()) Pipeline.New_scheduling in
  Alcotest.(check bool) "positive" true (t > 0)

let test_table1_shape () =
  let t = Report.table1 (small_benches ()) in
  let s = Table.render t in
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " row present") true (contains s name))
    [ "FLQ52"; "QCD"; "MDG"; "TRACK"; "ADM"; "TOTAL" ]

let test_measure_and_tables () =
  let benches = small_benches () in
  let ms = Report.measure benches Machine.paper_configs in
  check Alcotest.int "5 benchmarks x 4 configs" 20 (List.length ms);
  List.iter
    (fun (m : Report.measurement) ->
      Alcotest.(check bool) "t_new <= t_list" true (m.Report.t_new <= m.Report.t_list);
      Alcotest.(check bool) "positive times" true (m.Report.t_new > 0))
    ms;
  let s2 = Table.render (Report.table2 ms) in
  Alcotest.(check bool) "table2 has totals" true (contains s2 "Total");
  let s3 = Table.render (Report.table3 ms) in
  Alcotest.(check bool) "table3 has percents" true (contains s3 "%")

let test_improvement_metric () =
  check (Alcotest.float 1e-9) "50%" 50. (Report.improvement ~t_list:200 ~t_new:100);
  check (Alcotest.float 1e-9) "0%" 0. (Report.improvement ~t_list:100 ~t_new:100);
  check (Alcotest.float 1e-9) "guard" 0. (Report.improvement ~t_list:0 ~t_new:0)

let test_overall_shape () =
  (* The headline numbers on the full corpora: both overall improvements
     above 70%, like the paper's 83.4% / 85.1%. *)
  let ms = Report.measure (Suite.all ()) Machine.paper_configs in
  let two, four = Report.overall ms in
  Alcotest.(check bool) "2-issue overall > 70%" true (two > 70.);
  Alcotest.(check bool) "4-issue overall > 70%" true (four > 70.)

let test_qcd_improves_least () =
  let ms = Report.measure (Suite.all ()) [ ("4-issue(#FU=1)", Machine.make ~issue:4 ~nfu:1 ()) ] in
  let impr name =
    let m = List.find (fun (m : Report.measurement) -> m.Report.benchmark = name) ms in
    Report.improvement ~t_list:m.Report.t_list ~t_new:m.Report.t_new
  in
  List.iter
    (fun other ->
      Alcotest.(check bool) (other ^ " beats QCD") true (impr other > impr "QCD"))
    [ "FLQ52"; "MDG"; "TRACK"; "ADM" ]

let test_categories_table () =
  let s = Table.render (Report.categories (small_benches ())) in
  Alcotest.(check bool) "has the six type names" true
    (contains s "induction variable" && contains s "reduction operation" && contains s "others")

let test_ablation_order () =
  let s = Table.render (Report.ablation_order (small_benches ())) in
  Alcotest.(check bool) "variants shown" true
    (contains s "new unordered" && contains s "new ordered" && contains s "ordering gain")

let test_ablation_elimination () =
  let s = Table.render (Report.ablation_elimination (small_benches ())) in
  Alcotest.(check bool) "elim columns" true (contains s "waits+elim" && contains s "new+elim")

let test_ablation_migration () =
  let s = Table.render (Report.ablation_migration (small_benches ())) in
  Alcotest.(check bool) "migration columns" true (contains s "list+migr" && contains s "new+migr")

let test_worked_example_report () =
  let s = Worked_example.report () in
  List.iter
    (fun affix -> Alcotest.(check bool) (affix ^ " present") true (contains s affix))
    [
      "Fig. 1";
      "Fig. 2";
      "Fig. 3";
      "Fig. 4";
      "Wait_Signal(S3, I-2)";
      "Send_Signal(S3)";
      "Sigwat graph";
      "Wat graph";
      "synchronization path";
      "list scheduling";
      "new instruction scheduling";
    ]

let test_worked_example_times () =
  (* The Fig. 4 comparison: list 1200 cycles, new under 500, matching
     the paper's (12N)+13 versus (N/2)*span+13 relationship. *)
  let s = Worked_example.report () in
  Alcotest.(check bool) "list time" true (contains s "simulated 1200");
  Alcotest.(check bool) "new time well under half" true (contains s "simulated 457")

let test_measure_pool_matches_sequential () =
  (* The --jobs acceptance property: fanning the (benchmark x config)
     cells over domains must reproduce the sequential measurement list
     exactly, element for element. *)
  let benches = small_benches () in
  let seq = Report.measure ~jobs:1 benches Machine.paper_configs in
  let par = Report.measure ~jobs:4 benches Machine.paper_configs in
  check Alcotest.int "same length" (List.length seq) (List.length par);
  Alcotest.(check bool) "identical measurements in order" true (seq = par)

let test_prepare_memo () =
  Pipeline.memo_clear ();
  let l = Isched_frontend.Parser.parse_loop "DOACROSS I = 1, 10\n A[I] = A[I-1]\nENDDO" in
  let a = Pipeline.prepare l in
  let b = Pipeline.prepare l in
  Alcotest.(check bool) "second call returns the cached value" true (a == b);
  let hits, misses = Pipeline.memo_stats () in
  check Alcotest.int "one miss" 1 misses;
  Alcotest.(check bool) "at least one hit" true (hits >= 1);
  (* a different option set is a different cache line *)
  let c = Pipeline.prepare ~options:{ Pipeline.default_options with Pipeline.n_iters = Some 7 } l in
  Alcotest.(check bool) "options partition the cache" true (c != a);
  check Alcotest.int "second miss" 2 (snd (Pipeline.memo_stats ()))

let test_prepare_memo_concurrent () =
  (* Eight domains racing [prepare] on the identical key: the striped
     memo computes outside the lock, so racers may duplicate the miss
     work, but every caller must get a structurally equal result and
     the hit/miss ledger must account for every call. *)
  Pipeline.memo_clear ();
  let l = Isched_frontend.Parser.parse_loop "DOACROSS I = 1, 10\n A[I] = A[I-1]\nENDDO" in
  let mach = Machine.make ~issue:4 ~nfu:1 () in
  let domains = Array.init 8 (fun _ -> Domain.spawn (fun () -> Pipeline.prepare l)) in
  let results = Array.map Domain.join domains in
  let time p = Pipeline.loop_time p mach Pipeline.New_scheduling in
  let reference = time results.(0) in
  Array.iter (fun p -> check Alcotest.int "same schedule time" reference (time p)) results;
  let hits, misses = Pipeline.memo_stats () in
  check Alcotest.int "every call accounted" 8 (hits + misses);
  Alcotest.(check bool) "at least one miss" true (misses >= 1);
  (* A fresh parse of the same source is a physically distinct but
     digest-equal key: it must hit the entry the racers installed. *)
  let l2 = Isched_frontend.Parser.parse_loop "DOACROSS I = 1, 10\n A[I] = A[I-1]\nENDDO" in
  let hits_before = fst (Pipeline.memo_stats ()) in
  check Alcotest.int "structurally equal key, equal result" reference (time (Pipeline.prepare l2));
  Alcotest.(check bool) "structurally equal key hits" true
    (fst (Pipeline.memo_stats ()) > hits_before)

let test_options_respected () =
  let l = Isched_frontend.Parser.parse_loop "DOACROSS I = 1, 50\n A[5] = A[5] + E[I]\nENDDO" in
  let with_opts options =
    match Pipeline.prepare ~options l with
    | Pipeline.Doacross { prog; _ } -> Array.length prog.Isched_ir.Program.waits
    | Pipeline.Doall _ -> -1
  in
  let base = with_opts Pipeline.default_options in
  let elim = with_opts { Pipeline.default_options with Pipeline.eliminate = true } in
  Alcotest.(check bool) "elimination drops pairs" true (elim < base)

let test_memo_key_covers_sync_elim () =
  (* The cache-key regression this PR fixes a class of: flipping a pass
     option must be a memo MISS that returns a different preparation,
     never a stale hit from the other setting.  The guarded reduction is
     a kernel where the post-codegen pass provably changes the program
     (the plan-level pass cannot touch it). *)
  Pipeline.memo_clear ();
  let l =
    Isched_frontend.Parser.parse_loop
      "DOACROSS I = 1, 50\n IF (E[I] > 0) S = S + Q[I] * C[I]\nENDDO"
  in
  let waits p =
    match p with
    | Pipeline.Doacross { prog; _ } -> Array.length prog.Isched_ir.Program.waits
    | Pipeline.Doall _ -> -1
  in
  let base = Pipeline.prepare l in
  check Alcotest.int "one miss" 1 (snd (Pipeline.memo_stats ()));
  let elim =
    Pipeline.prepare ~options:{ Pipeline.default_options with Pipeline.sync_elim = true } l
  in
  check Alcotest.int "flipping sync_elim misses" 2 (snd (Pipeline.memo_stats ()));
  Alcotest.(check bool) "distinct cache lines" true (elim != base);
  Alcotest.(check bool) "the eliminated preparation is smaller" true (waits elim < waits base);
  (* Re-asking for either setting hits its own line and keeps its own
     answer. *)
  let base' = Pipeline.prepare l in
  let elim' =
    Pipeline.prepare ~options:{ Pipeline.default_options with Pipeline.sync_elim = true } l
  in
  check Alcotest.int "no further misses" 2 (snd (Pipeline.memo_stats ()));
  Alcotest.(check bool) "base line stable" true (base' == base);
  Alcotest.(check bool) "elim line stable" true (elim' == elim)

let test_ablation_sync_elim () =
  let t = Report.ablation_sync_elim (small_benches ()) in
  let s = Isched_util.Table.render t in
  Alcotest.(check bool) "table renders" true (String.length s > 0);
  Alcotest.(check bool) "kernels row present" true
    (let n = String.length s in
     let affix = "elim kernels" in
     let m = String.length affix in
     let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
     go 0)

(* --- scaled tables: loop-major chunk summaries --- *)

(* A test-local copy of the config-major [Report.summarize_chunk] it
   replaced: every loop of the chunk prepared first, then each config
   timed over all of them, then the categories. *)
let summarize_chunk_config_major configs (c : Suite.chunk) =
  let module Doall = Isched_transform.Doall in
  let module Program = Isched_ir.Program in
  let options = Pipeline.default_options in
  let loops = Suite.chunk_loops c in
  let prepared = List.map (fun l -> (l, Pipeline.prepare_uncached options l)) loops in
  let source_lines =
    List.fold_left (fun acc (l, _) -> acc + Isched_frontend.Ast.source_lines l) 0 prepared
  in
  let doacross =
    List.filter_map
      (fun (l, p) -> match p with Pipeline.Doacross _ -> Some (l, p) | Pipeline.Doall _ -> None)
      prepared
  in
  let n_doall = List.length prepared - List.length doacross in
  let progs =
    List.filter_map
      (fun (_, p) -> match p with Pipeline.Doacross { prog; _ } -> Some prog | _ -> None)
      doacross
  in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 progs in
  let count_sync_ops (p : Program.t) =
    Array.fold_left
      (fun acc i -> if Isched_ir.Instr.is_sync i then acc + 1 else acc)
      0 p.Program.body
  in
  let cs_meas =
    List.map
      (fun (cname, m) ->
        let tl, tn =
          List.fold_left
            (fun (atl, atn) (_, p) ->
              let tl, tn = Pipeline.list_and_new_times ~options p m in
              (atl + tl, atn + tn))
            (0, 0) doacross
        in
        (cname, tl, tn))
      configs
  in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (l, p) ->
      let cat =
        match p with
        | Pipeline.Doacross { restructured; carried; _ }
          when restructured.Isched_transform.Restructure.loop == l ->
          Doall.categorize ~carried l
        | _ -> Doall.categorize l
      in
      Hashtbl.replace counts cat (1 + Option.value ~default:0 (Hashtbl.find_opt counts cat)))
    doacross;
  {
    Report.cs_profile = c.Suite.profile.Isched_perfect.Profile.name;
    cs_stats =
      [|
        source_lines;
        List.length loops;
        n_doall;
        sum (fun p -> Array.length p.Program.body);
        sum Program.n_lfd;
        sum Program.n_lbd;
      |];
    cs_meas;
    cs_cats =
      List.map
        (fun cat -> Option.value ~default:0 (Hashtbl.find_opt counts cat))
        Doall.all_categories
      @ [ n_doall ];
    cs_sync_ops = sum count_sync_ops;
  }

let test_chunk_summary_matches_config_major () =
  let configs = Machine.paper_configs in
  List.iter
    (fun chunk_size ->
      List.iter
        (fun p ->
          List.iter
            (fun (c : Suite.chunk) ->
              let expected = summarize_chunk_config_major configs c in
              let got = Report.summarize_chunk configs c in
              if got <> expected then
                Alcotest.failf "%s chunk [%d, %d) at chunk size %d differs"
                  p.Isched_perfect.Profile.name c.Suite.lo c.Suite.hi chunk_size)
            (Suite.chunks ~chunk_size ~scale:2 p))
        Isched_perfect.Profile.all)
    [ 64; 7 ]

let suite =
  [
    ("pipeline: prepare splits doall/doacross", `Quick, test_pipeline_prepare);
    ("pipeline: scheduling a doall is an error", `Quick, test_pipeline_schedule_rejects_doall);
    ("pipeline: loop_time", `Quick, test_pipeline_loop_time_positive);
    ("table1: all rows present", `Quick, test_table1_shape);
    ("table2/3: measurements and rendering", `Quick, test_measure_and_tables);
    ("table3: improvement metric", `Quick, test_improvement_metric);
    ("headline: overall improvement above 70%", `Slow, test_overall_shape);
    ("headline: QCD improves least", `Slow, test_qcd_improves_least);
    ("categories table", `Quick, test_categories_table);
    ("ablation A1 renders", `Quick, test_ablation_order);
    ("ablation A2 renders", `Quick, test_ablation_elimination);
    ("ablation A3 renders", `Quick, test_ablation_migration);
    ("worked example: all figures present", `Quick, test_worked_example_report);
    ("worked example: Fig. 4 times", `Quick, test_worked_example_times);
    ("pipeline options: redundant-sync elimination", `Quick, test_options_respected);
    ("pipeline: memo key covers sync_elim", `Quick, test_memo_key_covers_sync_elim);
    ("ablation A6 renders", `Quick, test_ablation_sync_elim);
    ("measure: domain pool equals sequential", `Quick, test_measure_pool_matches_sequential);
    ("pipeline: prepare memoization", `Quick, test_prepare_memo);
    ("pipeline: memo safe under 8-way identical keys", `Quick, test_prepare_memo_concurrent);
    ("scaled tables: loop-major chunk summaries equal the config-major ones", `Quick,
      test_chunk_summary_matches_config_major);
  ]
