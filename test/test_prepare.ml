(* Tests for the per-loop prepare path (generated AST -> restructure ->
   dependences -> code -> data-flow graph): differential oracles against
   straightforward reference implementations kept here, a pin of the
   programs and graphs over the scale-20 corpus, and the unequal-stride
   aliasing regression. *)

module Ast = Isched_frontend.Ast
module Access = Isched_deps.Access
module Affine = Isched_deps.Affine
module Dep = Isched_deps.Dep
module Dfg = Isched_dfg.Dfg
module Program = Isched_ir.Program
module Machine = Isched_ir.Machine
module Pipeline = Isched_harness.Pipeline
module Suite = Isched_perfect.Suite
module Profile = Isched_perfect.Profile
module Restructure = Isched_transform.Restructure

let qtest ?(count = 200) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

(* --- reference dependence analysis --- *)

(* The all-pairs analysis: every ordered pair of accesses to one name
   with a write among them, sorted by (source stmt, sink stmt, kind,
   distance, source access, sink access). *)
let reference_analyze (l : Ast.loop) =
  let accs = Access.of_loop l in
  let key (d : Dep.t) =
    ( d.src.Access.stmt,
      d.snk.Access.stmt,
      (match d.kind with Dep.Flow -> 0 | Dep.Anti -> 1 | Dep.Output -> 2),
      (match d.distance with Dep.Dist n -> n | Dep.Unknown -> max_int),
      d.src.Access.idx,
      d.snk.Access.idx )
  in
  List.concat_map
    (fun (a : Access.t) ->
      List.concat_map
        (fun (b : Access.t) ->
          if a.target = b.target && a.is_array = b.is_array && (a.is_write || b.is_write) then
            Dep.deps_between l a b
          else [])
        accs)
    accs
  |> List.sort_uniq (fun d1 d2 -> compare (key d1) (key d2))

(* Random loops over few names with strided, constant and indirect
   subscripts: the shapes the corpus generator never produces. *)
let gen_stride_loop =
  QCheck2.Gen.(
    let sub =
      frequency
        [
          (6, map2 (fun c o -> Affine.to_expr { Affine.coef = c; off = o }) (int_range (-2) 3) (int_range (-4) 4));
          (1, return (Ast.Aref ("IDX", Ast.Ivar)));
        ]
    in
    let aref = map2 (fun a s -> Ast.Aref (a, s)) (oneofl [ "A"; "B"; "C"; "E" ]) sub in
    let leaf = frequency [ (4, aref); (1, map (fun s -> Ast.Scalar s) (oneofl [ "s"; "t" ])) ] in
    let rhs = map2 (fun x y -> Ast.Bin (Ast.Add, x, y)) leaf leaf in
    let lhs =
      frequency
        [
          (5, map2 (fun a s -> Ast.Larr (a, s)) (oneofl [ "A"; "B"; "C" ]) sub);
          (1, map (fun s -> Ast.Lscalar s) (oneofl [ "s"; "t" ]));
        ]
    in
    let guard =
      frequency
        [ (4, return None); (1, map (fun e -> Some { Ast.rel = Ast.Gt; lhs = e; rhs = Ast.Num 0. }) aref) ]
    in
    let stmt = map3 (fun guard lhs rhs -> { Ast.label = ""; guard; lhs; rhs }) guard lhs rhs in
    let* body = list_size (int_range 1 5) stmt in
    let* lo = int_range 1 3 in
    let* len = int_range 1 12 in
    let body = List.mapi (fun i s -> { s with Ast.label = "S" ^ string_of_int (i + 1) }) body in
    return (Ast.make_loop ~kind:Ast.Doacross ~index:"I" ~lo ~hi:(lo + len - 1) ~body ~name:"stride"))

let print_loop = Ast.loop_to_string

let prop_deps_match_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~print:print_loop
       ~name:"deps: bucketed analysis equals the all-pairs reference" gen_stride_loop (fun l ->
         Dep.analyze l = reference_analyze l))

let test_deps_corpus () =
  List.iter
    (fun (l : Ast.loop) ->
      let r = (Restructure.run l).Restructure.loop in
      List.iter
        (fun l ->
          if Dep.analyze l <> reference_analyze l then
            Alcotest.failf "%s: analysis differs from the all-pairs reference" l.Ast.name)
        [ l; r ])
    (Suite.all_loops ())

(* --- unequal strides --- *)

(* S1 writes A[4] in iteration 2 and S2 reads it in the same iteration:
   a loop-independent flow dependence that a stride-blind alias test
   misses. *)
let alias_stride_src =
  "DO I = 1, 10\n\
  \  S1: A[2*I] = E[I] * E[I+1]\n\
  \  S2: B[I] = A[4] + 1\n\
   ENDDO"

let test_alias_stride_deps () =
  let l = Isched_frontend.Parser.parse_loop alias_stride_src in
  Alcotest.(check bool) "loop-independent S1 -> S2 on A" true
    (List.exists
       (fun (d : Dep.t) ->
         d.kind = Dep.Flow && d.distance = Dep.Dist 0 && d.src.Access.stmt = 0
         && d.snk.Access.stmt = 1)
       (Dep.analyze l))

let test_alias_stride_schedules () =
  let l = Isched_frontend.Parser.parse_loop alias_stride_src in
  let prog = Isched_codegen.Codegen.compile l in
  let g = Dfg.build prog in
  let store = ref (-1) and load = ref (-1) in
  Array.iteri
    (fun i ins ->
      match (ins : Isched_ir.Instr.t) with
      | Store { base = "A"; _ } -> store := i
      | Load { base = "A"; _ } -> load := i
      | _ -> ())
    prog.Program.body;
  Alcotest.(check bool) "memory arc from the A[2*I] store to the A[4] load" true
    (List.exists
       (fun (a : Dfg.arc) -> a.Dfg.dst = !load && a.Dfg.kind = Dfg.Mem)
       (Dfg.succs_list g !store));
  List.iter
    (fun m ->
      List.iter
        (fun (name, s) ->
          (match Isched_check.Static.check ~graph:g s with
          | Ok () -> ()
          | Error vs -> Alcotest.failf "%s: %s" name (Isched_check.Static.errors_to_string name vs));
          match Isched_check.Oracle.differential s with
          | Ok () -> ()
          | Error msgs -> Alcotest.failf "%s: %s" name (String.concat "; " msgs))
        [
          ("list", Isched_core.List_sched.run g m);
          ("marker", Isched_core.Marker_sched.run g m);
          ("new", Isched_core.Sync_sched.run g m);
        ])
    [ Machine.make ~issue:2 ~nfu:1 (); Machine.make ~issue:4 ~nfu:2 (); Machine.make ~issue:8 ~nfu:3 () ]

let test_may_alias_strides () =
  let r affine = { Program.base = "A"; affine } in
  let alias ~range x y = Dfg.may_alias ~range (r (Some x)) (r (Some y)) in
  let every_int = (min_int, max_int) in
  Alcotest.(check bool) "2I meets 4 at I=2" true (alias ~range:(1, 10) (2, 0) (0, 4));
  Alcotest.(check bool) "not when I=2 is outside the range" false (alias ~range:(3, 10) (2, 0) (0, 4));
  Alcotest.(check bool) "2I never meets 2I+1" false (alias ~range:every_int (2, 0) (2, 1));
  Alcotest.(check bool) "2I never meets 5" false (alias ~range:every_int (2, 0) (0, 5));
  Alcotest.(check bool) "2I meets I only at I=0" false (alias ~range:(1, 10) (2, 0) (1, 0));
  Alcotest.(check bool) "over every int, I=0 counts" true (alias ~range:every_int (2, 0) (1, 0))

let prop_may_alias_sound =
  qtest ~count:1000 "dfg: may_alias holds whenever two affine subscripts meet"
    QCheck2.Gen.(
      let* c1 = int_range (-4) 4 and* o1 = int_range (-12) 12 in
      let* c2 = int_range (-4) 4 and* o2 = int_range (-12) 12 in
      let* lo = int_range (-5) 5 and* len = int_range 1 12 in
      return (c1, o1, c2, o2, lo, lo + len - 1))
    (fun (c1, o1, c2, o2, lo, hi) ->
      let meet = ref false in
      for i = lo to hi do
        if (c1 * i) + o1 = (c2 * i) + o2 then meet := true
      done;
      let r affine = { Program.base = "A"; affine = Some affine } in
      (not !meet)
      || Dfg.may_alias ~range:(lo, hi) (r (c1, o1)) (r (c2, o2))
         && Dfg.may_alias ~range:(min_int, max_int) (r (c1, o1)) (r (c2, o2)))

(* The grouped memory-arc enumeration against the pairwise reference
   builder, on subscripts the corpus never has. *)
let prop_stride_dfg_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~print:print_loop
       ~name:"dfg: strided loops' arcs equal the reference builder" gen_stride_loop (fun l ->
         match Isched_frontend.Sema.check l with
         | _ :: _ -> true
         | [] ->
           let prog = Isched_codegen.Codegen.compile l in
           List.for_all
             (fun sync_arcs ->
               let g = Dfg.build ~sync_arcs prog in
               let succs, preds = Dfg.build_reference ~sync_arcs prog in
               List.for_all
                 (fun i -> Dfg.succs_list g i = succs.(i) && Dfg.preds_list g i = preds.(i))
                 (List.init g.Dfg.n Fun.id))
             [ true; false ]))

(* Random strided loops through every scheduler: the static checker and
   the value oracle must accept each schedule. *)
let prop_stride_schedules_valid =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~print:print_loop
       ~name:"schedules: strided loops pass Static and the value oracle" gen_stride_loop (fun l ->
         match Isched_frontend.Sema.check l with
         | _ :: _ -> true
         | [] -> (
           match Pipeline.prepare_uncached Pipeline.default_options l with
           | Pipeline.Doall _ -> true
           | Pipeline.Doacross { graph; _ } ->
             let m = Machine.make ~issue:4 ~nfu:2 () in
             List.for_all
               (fun s ->
                 Isched_check.Static.check ~graph s = Ok () && Isched_check.Oracle.differential s = Ok ())
               [
                 Isched_core.List_sched.run graph m;
                 Isched_core.Marker_sched.run graph m;
                 Isched_core.Sync_sched.run graph m;
               ])))

(* --- Sema --- *)

(* The table-based checker Sema used to be: the first use of a name
   fixes its kind in a hash table, labels are remembered in another.
   [Sema.check], which scans the loop instead, must return exactly its
   errors, in order. *)
let reference_sema (l : Ast.loop) =
  let errors = ref [] in
  let add fmt =
    Printf.ksprintf (fun message -> errors := { Isched_frontend.Sema.loop = l.name; message } :: !errors) fmt
  in
  if l.body = [] then add "loop body is empty";
  if Ast.iterations l = 0 then add "iteration range %d..%d is empty" l.lo l.hi;
  let usage = Hashtbl.create 16 in
  let note name u =
    match Hashtbl.find_opt usage name with
    | None -> Hashtbl.add usage name u
    | Some prev -> if prev <> u then add "name %S is used both as an array and as a scalar" name
  in
  let rec walk_expr (e : Ast.expr) ~depth =
    match e with
    | Ast.Num _ | Ast.Ivar -> ()
    | Ast.Scalar s -> if s = l.index then () else note s `Scalar
    | Ast.Aref (a, sub) ->
      note a `Array;
      if depth >= 2 then add "array %S is subscripted deeper than one indirection level" a;
      walk_expr sub ~depth:(depth + 1)
    | Ast.Bin (_, x, y) ->
      walk_expr x ~depth;
      walk_expr y ~depth
    | Ast.Neg x -> walk_expr x ~depth
  in
  let seen_labels = Hashtbl.create 16 in
  List.iter
    (fun (s : Ast.stmt) ->
      if Hashtbl.mem seen_labels s.label then add "duplicate statement label %S" s.label
      else Hashtbl.add seen_labels s.label ();
      (match s.guard with
      | Some c ->
        walk_expr c.lhs ~depth:0;
        walk_expr c.rhs ~depth:0
      | None -> ());
      (match s.lhs with
      | Ast.Larr (a, sub) ->
        note a `Array;
        if a = l.index then add "loop variable %S cannot be an array" l.index;
        walk_expr sub ~depth:1
      | Ast.Lscalar name ->
        if name = l.index then add "loop variable %S is assigned in the body" l.index
        else note name `Scalar);
      walk_expr s.rhs ~depth:0)
    l.body;
  List.rev !errors

(* Loops that break each rule now and then: names shared between arrays
   and scalars, the index as a target, nested indirection, repeated
   labels, empty bodies and ranges. *)
let gen_sema_loop =
  QCheck2.Gen.(
    let name = oneofl [ "A"; "B"; "I"; "s" ] in
    let rec expr depth =
      if depth = 0 then
        frequency [ (2, return Ast.Ivar); (1, return (Ast.Num 1.)); (2, map (fun n -> Ast.Scalar n) name) ]
      else
        frequency
          [
            (2, expr 0);
            (3, map2 (fun a s -> Ast.Aref (a, s)) name (expr (depth - 1)));
            (1, map2 (fun x y -> Ast.Bin (Ast.Mul, x, y)) (expr (depth - 1)) (expr (depth - 1)));
            (1, map (fun x -> Ast.Neg x) (expr (depth - 1)));
          ]
    in
    let lhs =
      frequency
        [ (3, map2 (fun a s -> Ast.Larr (a, s)) name (expr 2)); (1, map (fun n -> Ast.Lscalar n) name) ]
    in
    let guard =
      frequency
        [ (3, return None); (1, map2 (fun x y -> Some { Ast.rel = Ast.Lt; lhs = x; rhs = y }) (expr 2) (expr 1)) ]
    in
    let stmt =
      map4
        (fun label guard lhs rhs -> { Ast.label; guard; lhs; rhs })
        (oneofl [ "S1"; "S2"; "S3"; "S4" ]) guard lhs (expr 3)
    in
    let* body = list_size (int_range 0 4) stmt in
    let* lo = int_range 1 3 and* hi = int_range 0 4 in
    return (Ast.make_loop ~kind:Ast.Doacross ~index:"I" ~lo ~hi ~body ~name:"sema"))

let prop_sema_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~print:print_loop
       ~name:"sema: check gives the table-based reference's errors" gen_sema_loop (fun l ->
         Isched_frontend.Sema.check l = reference_sema l))

(* --- pin over the scale-20 corpus --- *)

(* Digests of every DOACROSS program's listing with its graph's arc rows
   (successor and predecessor rows, packed arcs in row order), and of
   every loop's dependence list, over the restructured scale-20 corpus.
   Any change to the code, the arcs or their order moves them. *)
let test_scale20_pin () =
  let progs = Buffer.create (1 lsl 20) and deps = Buffer.create (1 lsl 20) in
  let row g iter i =
    iter g i (fun a ->
        Buffer.add_char progs ' ';
        Buffer.add_string progs (string_of_int a))
  in
  let n_doacross = ref 0 in
  List.iter
    (fun p ->
      List.iter
        (fun c ->
          List.iter
            (fun (l : Ast.loop) ->
              List.iter
                (fun d ->
                  Buffer.add_string deps (Dep.to_string d);
                  Buffer.add_char deps '\n')
                (Dep.analyze (Restructure.run l).Restructure.loop);
              match Pipeline.prepare_uncached Pipeline.default_options l with
              | Pipeline.Doall _ -> ()
              | Pipeline.Doacross { prog; graph; _ } ->
                incr n_doacross;
                Buffer.add_string progs (Program.to_string prog);
                for i = 0 to graph.Dfg.n - 1 do
                  Buffer.add_string progs (string_of_int i);
                  Buffer.add_char progs ':';
                  row graph Dfg.iter_succs i;
                  Buffer.add_string progs " |";
                  row graph Dfg.iter_preds i;
                  Buffer.add_char progs '\n'
                done)
            (Suite.chunk_loops c))
        (Suite.chunks ~scale:20 p))
    Profile.all;
  let hex b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  Alcotest.(check int) "DOACROSS loops" 1033 !n_doacross;
  Alcotest.(check string) "programs and arc rows" "fa8da5d9b7522d7cd13d797ba1ad639b" (hex progs);
  Alcotest.(check string) "dependences" "2d5cee140a04ed16b12e98d589e7c70f" (hex deps)

let suite =
  [
    prop_deps_match_reference;
    ("deps: corpus analysis equals the all-pairs reference", `Quick, test_deps_corpus);
    ("alias: unequal strides give the loop-independent dependence", `Quick, test_alias_stride_deps);
    ("alias: unequal strides schedule correctly", `Quick, test_alias_stride_schedules);
    ("alias: may_alias on strides and ranges", `Quick, test_may_alias_strides);
    prop_may_alias_sound;
    prop_stride_dfg_matches_reference;
    prop_stride_schedules_valid;
    prop_sema_matches_reference;
    ("pin: scale-20 programs, arcs and dependences", `Quick, test_scale20_pin);
  ]
