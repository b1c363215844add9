module Ast = Isched_frontend.Ast
module Sema = Isched_frontend.Sema
module Affine = Isched_deps.Affine
module Access = Isched_deps.Access
module Plan = Isched_sync.Plan
module Instr = Isched_ir.Instr
module Operand = Isched_ir.Operand
module Program = Isched_ir.Program

(* Value class of an operand: index arithmetic stays on the integer
   units; anything derived from memory is a "value" and uses the
   floating-point units, as real arrays are REAL in the benchmarks. *)
type cls = Cint | Cval

(* CSE keys are structural values, not formatted strings: key
   construction sits on the per-instruction emission path, and
   [Printf.sprintf] there dominated compile time at corpus scale. *)
type cse_key =
  | Kbin of Instr.binop * Operand.t * Operand.t
  | Kload of string * Operand.t  (* base array, byte address *)
  | Kload_scalar of string

(* The CSE table hashes and compares keys directly instead of through
   the polymorphic [Hashtbl.hash] and [compare]: it is probed two or
   three times per array access.  [equal] is [compare k k' = 0], so the
   CSE decisions are those of a generic table. *)
module Cse = Hashtbl.Make (struct
  type t = cse_key

  let operand_hash (o : Operand.t) =
    match o with
    | Reg r -> 4 * r
    | Imm i -> (4 * i) + 1
    | Ivar -> 2
    | Fimm f -> (4 * Hashtbl.hash f) + 3

  let hash = function
    | Kbin (op, a, b) -> (((Hashtbl.hash op * 65599) + operand_hash a) * 65599) + operand_hash b
    | Kload (base, addr) -> (Hashtbl.hash base * 65599) + operand_hash addr
    | Kload_scalar name -> Hashtbl.hash name

  let equal k k' =
    match (k, k') with
    | Kbin (op, a, b), Kbin (op', a', b') -> op == op' && Operand.equal a a' && Operand.equal b b'
    | Kload (base, addr), Kload (base', addr') -> String.equal base base' && Operand.equal addr addr'
    | Kload_scalar name, Kload_scalar name' -> String.equal name name'
    | (Kbin _ | Kload _ | Kload_scalar _), _ -> false
end)

(* Per-loop tables are arrays indexed by the dense ids the plan and the
   access numbering already provide (statement, access, signal, wait),
   not hash tables: only the CSE table is keyed by structure. *)
type state = {
  loop : Ast.loop;
  plan : Plan.t;
  code : Instr.t Isched_util.Vec.t;
  mem : Program.mem_ref option Isched_util.Vec.t;  (* parallel to code *)
  stmts : int Isched_util.Vec.t;  (* parallel to code: statement id *)
  mutable next_reg : int;
  reg_cls : cls Isched_util.Vec.t;  (* per virtual register *)
  reg_load : int Isched_util.Vec.t;
      (* per virtual register: index of the load defining it, or -1 *)
  cse : Operand.t Cse.t;
  (* arrays stored to somewhere in the body / scalars written *)
  stored_arrays : string list;
  written_scalars : string list;
  (* access (stmt, idx) -> instruction index of the memory op, at
     [acc_start.(stmt) + idx] *)
  acc_instr : int Isched_util.Vec.t;
  acc_start : int array;
  (* per statement: the signals sent after one of its accesses, as
     ascending positions in [plan.signals].  [Plan] numbers signals and
     waits densely from 0, so a position is the signal's id. *)
  stmt_sends : int list array;
  (* emission positions of the sync instructions, by id; -1 = none *)
  send_instr : int array;
  wait_instr : int array;
  mutable cur_stmt : int;
}

let fresh st cls =
  let r = st.next_reg in
  st.next_reg <- r + 1;
  Isched_util.Vec.push st.reg_cls cls;
  Isched_util.Vec.push st.reg_load (-1);
  r

let cls_of_operand st = function
  | Operand.Reg r -> Isched_util.Vec.get st.reg_cls r
  | Operand.Imm _ | Operand.Ivar -> Cint
  | Operand.Fimm _ -> Cval

let emit ?mem st instr =
  let idx = Isched_util.Vec.length st.code in
  Isched_util.Vec.push st.code instr;
  Isched_util.Vec.push st.mem mem;
  Isched_util.Vec.push st.stmts st.cur_stmt;
  (* Sends scheduled to follow this instruction's access are emitted by
     [take_access]. *)
  idx

let bin_key op a b =
  (* Commutative operands are canonicalized under a fixed total order so
     both argument orders share one key; any total order yields the same
     equivalence classes, so swapping the string order for the structural
     one changes no CSE decision. *)
  let commutative = match op with Instr.Add | Instr.Mul -> true | _ -> false in
  if commutative && Stdlib.compare b a < 0 then Kbin (op, b, a) else Kbin (op, a, b)

(* Emit (or reuse) a pure integer-class binary operation. *)
let emit_int_bin st op a b =
  let key = bin_key op a b in
  match Cse.find_opt st.cse key with
  | Some o -> o
  | None ->
    let dst = fresh st Cint in
    ignore (emit st (Instr.Bin { op; dst; a; b }));
    let o = Operand.Reg dst in
    Cse.add st.cse key o;
    o

(* Advance the access cursor: the current memory operation realizes the
   next access of statement [st.cur_stmt].  Record the mapping and emit
   any Send_Signal attached to this access.  Internal memory operations
   that do not correspond to a source-level access (the old-value load
   of an if-converted store) do not call it. *)
let take_access st instr_idx =
  let idx = Isched_util.Vec.length st.acc_instr - st.acc_start.(st.cur_stmt) in
  Isched_util.Vec.push st.acc_instr instr_idx;
  List.iter
    (fun k ->
      let sd = st.plan.Plan.signals.(k) in
      if sd.Plan.src.Access.idx = idx then
        st.send_instr.(sd.signal) <- emit st (Instr.Send { signal = sd.signal }))
    st.stmt_sends.(st.cur_stmt)

let rec mem_name name = function [] -> false | n :: rest -> String.equal n name || mem_name name rest

(* --- subscripts and addresses --- *)

(* Element index of subscript [e], whose affine form is [affine]. *)
let rec compile_index st affine (e : Ast.expr) : Operand.t =
  match affine with
  | Some { Affine.coef = 0; off } -> Operand.Imm off
  | Some { Affine.coef = 1; off = 0 } -> Operand.Ivar
  | Some { Affine.coef = 1; off } -> emit_int_bin st Instr.Add Operand.Ivar (Operand.Imm off)
  | Some { Affine.coef; off } ->
    let scaled = emit_int_bin st Instr.Mul (Operand.Imm coef) Operand.Ivar in
    if off = 0 then scaled else emit_int_bin st Instr.Add scaled (Operand.Imm off)
  | None ->
    (* Non-affine: compile as a general expression in index context. *)
    compile_expr st ~index:true e

(* Byte address of element [idx]: idx << 2 (the paper's 4*x). *)
and address_of st idx =
  match idx with
  | Operand.Imm i -> Operand.Imm (i * 4)
  | _ -> emit_int_bin st Instr.Shl idx (Operand.Imm 2)

(* A cached load's access is realized by the load that defined its
   register. *)
and take_cached st r =
  take_access st (Isched_util.Vec.get st.reg_load r);
  Operand.Reg r

and compile_load st base sub =
  let affine = Affine.of_expr sub in
  let addr = address_of st (compile_index st affine sub) in
  (* Loads from arrays the body never stores to are safe to reuse. *)
  let cacheable = not (mem_name base st.stored_arrays) in
  let key = Kload (base, addr) in
  match if cacheable then Cse.find_opt st.cse key else None with
  | Some (Operand.Reg r) -> take_cached st r
  | Some _ | None ->
    let dst = fresh st Cval in
    let mem = { Program.base; affine = mem_affine affine } in
    let i = emit ~mem st (Instr.Load { dst; base; addr }) in
    Isched_util.Vec.set st.reg_load dst i;
    take_access st i;
    if cacheable then Cse.add st.cse key (Operand.Reg dst);
    Operand.Reg dst

and compile_scalar_load st name =
  let cacheable = not (mem_name name st.written_scalars) in
  let key = Kload_scalar name in
  match if cacheable then Cse.find_opt st.cse key else None with
  | Some (Operand.Reg r) -> take_cached st r
  | Some _ | None ->
    let dst = fresh st Cval in
    let i = emit st (Instr.Load_scalar { dst; name }) in
    Isched_util.Vec.set st.reg_load dst i;
    take_access st i;
    if cacheable then Cse.add st.cse key (Operand.Reg dst);
    Operand.Reg dst

and mem_affine = function Some a -> Some (a.Affine.coef, a.Affine.off) | None -> None

(* --- general expressions --- *)

and compile_expr st ~index (e : Ast.expr) : Operand.t =
  match e with
  | Ast.Num x ->
    if Float.is_integer x && Float.abs x < 1e9 then Operand.Imm (int_of_float x)
    else Operand.Fimm x
  | Ast.Ivar -> Operand.Ivar
  | Ast.Scalar name -> compile_scalar_load st name
  | Ast.Aref (base, sub) -> compile_load st base sub
  | Ast.Neg a ->
    let oa = compile_expr st ~index a in
    let int_ctx = index || cls_of_operand st oa = Cint in
    let op = if int_ctx then Instr.Sub else Instr.FSub in
    if int_ctx then emit_int_bin st op (Operand.Imm 0) oa
    else begin
      let dst = fresh st Cval in
      ignore (emit st (Instr.Bin { op; dst; a = Operand.Imm 0; b = oa }));
      Operand.Reg dst
    end
  | Ast.Bin (op, a, b) ->
    let oa = compile_expr st ~index a in
    let ob = compile_expr st ~index b in
    let int_ctx =
      index || (cls_of_operand st oa = Cint && cls_of_operand st ob = Cint)
    in
    let iop =
      match (op, int_ctx) with
      | Ast.Add, true -> Instr.Add
      | Ast.Sub, true -> Instr.Sub
      | Ast.Mul, true -> Instr.Mul
      | Ast.Div, true -> Instr.Div
      | Ast.Add, false -> Instr.FAdd
      | Ast.Sub, false -> Instr.FSub
      | Ast.Mul, false -> Instr.FMul
      | Ast.Div, false -> Instr.FDiv
    in
    if int_ctx then emit_int_bin st iop oa ob
    else begin
      let dst = fresh st Cval in
      ignore (emit st (Instr.Bin { op = iop; dst; a = oa; b = ob }));
      Operand.Reg dst
    end

and compile_cond st (c : Ast.cond) : Operand.t =
  let oa = compile_expr st ~index:false c.lhs in
  let ob = compile_expr st ~index:false c.rhs in
  let op =
    match c.rel with
    | Ast.Lt -> Instr.CmpLt
    | Ast.Le -> Instr.CmpLe
    | Ast.Gt -> Instr.CmpGt
    | Ast.Ge -> Instr.CmpGe
    | Ast.Eq -> Instr.CmpEq
    | Ast.Ne -> Instr.CmpNe
  in
  let dst = fresh st Cint in
  ignore (emit st (Instr.Bin { op; dst; a = oa; b = ob }));
  Operand.Reg dst

(* --- statements --- *)

let compile_stmt st i (s : Ast.stmt) =
  st.cur_stmt <- i;
  st.acc_start.(i) <- Isched_util.Vec.length st.acc_instr;
  (* Wait_Signals of all dependences sinking at this statement, in wait
     id order, before anything else the statement does. *)
  Array.iter
    (fun (p : Plan.pair) ->
      if p.dep.Isched_deps.Dep.snk.Access.stmt = i then
        st.wait_instr.(p.wait) <- emit st (Instr.Wait { wait = p.wait }))
    st.plan.Plan.pairs;
  let cond_op = match s.guard with Some c -> Some (compile_cond st c) | None -> None in
  match s.lhs with
  | Ast.Larr (base, sub) ->
    let affine = Affine.of_expr sub in
    let addr = address_of st (compile_index st affine sub) in
    let mem = { Program.base; affine = mem_affine affine } in
    let rhs_op = compile_expr st ~index:false s.rhs in
    let value =
      match cond_op with
      | None -> rhs_op
      | Some cond ->
        (* If-conversion: keep the old value when the guard is false.
           The old-value load is internal: it does not correspond to a
           source-level access and must not advance the access cursor. *)
        let old = fresh st Cval in
        ignore (emit ~mem st (Instr.Load { dst = old; base; addr }));
        let dst = fresh st Cval in
        ignore
          (emit st (Instr.Select { dst; cond; if_true = rhs_op; if_false = Operand.Reg old }));
        Operand.Reg dst
    in
    let store_idx = emit ~mem st (Instr.Store { base; addr; src = value }) in
    take_access st store_idx
  | Ast.Lscalar name ->
    let rhs_op = compile_expr st ~index:false s.rhs in
    let value =
      match cond_op with
      | None -> rhs_op
      | Some cond ->
        let old = fresh st Cval in
        ignore (emit st (Instr.Load_scalar { dst = old; name }));
        let dst = fresh st Cval in
        ignore
          (emit st (Instr.Select { dst; cond; if_true = rhs_op; if_false = Operand.Reg old }));
        Operand.Reg dst
    in
    let store_idx = emit st (Instr.Store_scalar { name; src = value }) in
    take_access st store_idx

(* --- driver --- *)

let dep_kind_of = function
  | Isched_deps.Dep.Flow -> Program.Flow
  | Isched_deps.Dep.Anti -> Program.Anti
  | Isched_deps.Dep.Output -> Program.Output

let lexical_of = function
  | Isched_deps.Dep.LFD -> Program.LFD
  | Isched_deps.Dep.LBD -> Program.LBD

(* The buffers of [state] that hold only immediates, kept per domain
   and cleared by each [run]: [run] copies what it returns out of them
   and is never re-entered while active.  Buffers of pointers are made
   per run instead: a long-lived buffer is in the major heap, and each
   young instruction or key stored into it would be promoted at the
   next minor collection. *)
type scratch = {
  s_stmts : int Isched_util.Vec.t;
  s_reg_cls : cls Isched_util.Vec.t;
  s_reg_load : int Isched_util.Vec.t;
  s_acc_instr : int Isched_util.Vec.t;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        s_stmts = Isched_util.Vec.create ();
        s_reg_cls = Isched_util.Vec.create ();
        s_reg_load = Isched_util.Vec.create ();
        s_acc_instr = Isched_util.Vec.create ();
      })

let run ?n_iters (l : Ast.loop) (plan : Plan.t) =
  Sema.check_exn l;
  let n_stmts = List.length l.body in
  let stmt_sends = Array.make n_stmts [] in
  for k = Array.length plan.Plan.signals - 1 downto 0 do
    let sd = plan.Plan.signals.(k) in
    let s = sd.Plan.src.Access.stmt in
    if s < 0 || s >= n_stmts then
      invalid_arg
        (Printf.sprintf "Codegen: source access S%d.%d of loop %s has no instruction" (s + 1)
           sd.Plan.src.Access.idx l.name);
    stmt_sends.(s) <- k :: stmt_sends.(s)
  done;
  let sc = Domain.DLS.get scratch_key in
  Isched_util.Vec.clear sc.s_stmts;
  Isched_util.Vec.clear sc.s_reg_cls;
  Isched_util.Vec.clear sc.s_reg_load;
  Isched_util.Vec.clear sc.s_acc_instr;
  let st =
    {
      loop = l;
      plan;
      code = Isched_util.Vec.create ();
      mem = Isched_util.Vec.create ();
      stmts = sc.s_stmts;
      next_reg = 0;
      reg_cls = sc.s_reg_cls;
      reg_load = sc.s_reg_load;
      cse = Cse.create 64;
      stored_arrays =
        List.filter_map
          (fun (s : Ast.stmt) -> match s.lhs with Ast.Larr (a, _) -> Some a | Ast.Lscalar _ -> None)
          l.body;
      written_scalars =
        List.filter_map
          (fun (s : Ast.stmt) -> match s.lhs with Ast.Lscalar n -> Some n | Ast.Larr _ -> None)
          l.body;
      acc_instr = sc.s_acc_instr;
      acc_start = Array.make (n_stmts + 1) 0;
      stmt_sends;
      send_instr = Array.make (Array.length plan.signals) (-1);
      wait_instr = Array.make (Array.length plan.pairs) (-1);
      cur_stmt = 0;
    }
  in
  List.iteri (fun i s -> compile_stmt st i s) l.body;
  st.acc_start.(n_stmts) <- Isched_util.Vec.length st.acc_instr;
  let find_access what (a : Access.t) =
    let i =
      if a.stmt < 0 || a.stmt >= n_stmts || a.idx < 0
         || a.idx >= st.acc_start.(a.stmt + 1) - st.acc_start.(a.stmt)
      then -1
      else Isched_util.Vec.get st.acc_instr (st.acc_start.(a.stmt) + a.idx)
    in
    if i < 0 then
      invalid_arg
        (Printf.sprintf "Codegen: %s access S%d.%d of loop %s has no instruction" what
           (a.stmt + 1) a.idx l.name);
    i
  in
  let signals =
    Array.map
      (fun (sd : Plan.signal_decl) ->
        {
          Program.signal = sd.signal;
          src_stmt = sd.src.Access.stmt;
          src_instr = find_access "source" sd.src;
          send_instr =
            (match st.send_instr.(sd.signal) with
            | -1 ->
              invalid_arg
                (Printf.sprintf "Codegen: signal %d of loop %s was never sent" sd.signal l.name)
            | i -> i);
          label = sd.label;
        })
      plan.Plan.signals
  in
  let waits =
    Array.map
      (fun (p : Plan.pair) ->
        let dep = p.dep in
        {
          Program.wait = p.wait;
          signal = p.signal;
          distance = p.distance;
          snk_stmt = dep.Isched_deps.Dep.snk.Access.stmt;
          snk_instr = find_access "sink" dep.Isched_deps.Dep.snk;
          wait_instr =
            (match st.wait_instr.(p.wait) with
            | -1 ->
              invalid_arg
                (Printf.sprintf "Codegen: wait %d of loop %s was never emitted" p.wait l.name)
            | i -> i);
          kind = dep_kind_of dep.Isched_deps.Dep.kind;
          lexical = lexical_of dep.Isched_deps.Dep.lexical;
          array = dep.Isched_deps.Dep.src.Access.target;
        })
      plan.Plan.pairs
  in
  let program =
    {
      Program.name = l.name;
      body = Isched_util.Vec.to_array st.code;
      signals;
      waits;
      mem = Isched_util.Vec.to_array st.mem;
      stmt_of = Isched_util.Vec.to_array st.stmts;
      n_regs = st.next_reg;
      lo = l.lo;
      n_iters = (match n_iters with Some n -> n | None -> Ast.iterations l);
      source_lines = Ast.source_lines l;
    }
  in
  Program.validate program;
  program

let compile ?(eliminate = false) ?(migrate = false) ?carried ?n_iters l =
  (* [carried], when given, must be [Dep.carried_deps l]: callers that
     already decided DOALL vs DOACROSS pass their analysis along instead
     of re-running it.  Migration reorders the statements, which
     renumbers the accesses the deps refer to, so a provided list is
     only usable on the unmigrated loop. *)
  let l, carried =
    if migrate then (Isched_sync.Migrate.reorder l, None) else (l, carried)
  in
  let plan =
    match carried with Some deps -> Plan.of_deps l deps | None -> Plan.build l
  in
  if not eliminate then run ?n_iters l plan
  else begin
    (* Two passes: compile fully synchronized, find the waits whose
       coverage is provable on the data-flow graph, recompile without
       them.  The wait ids of the first program index [plan.pairs]. *)
    let full = run ?n_iters l plan in
    let g = Isched_dfg.Dfg.build full in
    let redundant = Isched_dfg.Reduce.redundant_waits g in
    if redundant = [] then full
    else begin
      let kept =
        Array.to_list plan.Plan.pairs
        |> List.filter (fun (p : Plan.pair) -> not (List.mem p.Plan.wait redundant))
        |> List.map (fun (p : Plan.pair) -> p.Plan.dep)
      in
      run ?n_iters l (Plan.of_deps l kept)
    end
  end

(* Observability shadows: the exported entry points are the traced ones. *)
let run ?n_iters l plan = Isched_obs.Span.with_ ~name:"codegen.run" (fun () -> run ?n_iters l plan)

let compile ?eliminate ?migrate ?carried ?n_iters l =
  Isched_obs.Span.with_ ~name:"codegen.compile" (fun () ->
      compile ?eliminate ?migrate ?carried ?n_iters l)
