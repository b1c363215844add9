module Ast = Isched_frontend.Ast

type action =
  | Iv_subst of { name : string; step : int }
  | Reduction of { name : string; op : Ast.binop; partial : string }
  | Expanded of { name : string; partial : string }

type result = { loop : Ast.loop; actions : action list }

let pp_action ppf = function
  | Iv_subst { name; step } ->
    Format.fprintf ppf "induction-variable substitution: %s (step %+d)" name step
  | Reduction { name; op; partial } ->
    Format.fprintf ppf "reduction replacement: %s (%s) -> %s"
      name
      (match op with Ast.Add -> "+" | Ast.Sub -> "-" | Ast.Mul -> "*" | Ast.Div -> "/")
      partial
  | Expanded { name; partial } -> Format.fprintf ppf "scalar expansion: %s -> %s" name partial

(* --- helpers over the body --- *)

let all_names (l : Ast.loop) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Ast.stmt) ->
      List.iter (fun n -> Hashtbl.replace tbl n ()) (Ast.stmt_scalars_read s);
      List.iter (fun (a, _) -> Hashtbl.replace tbl a ()) (Ast.stmt_arrays_read s);
      match s.lhs with
      | Ast.Larr (a, _) -> Hashtbl.replace tbl a ()
      | Ast.Lscalar n -> Hashtbl.replace tbl n ())
    l.body;
  tbl

let fresh_name names base suffix =
  let rec go i =
    let candidate = if i = 0 then base ^ suffix else Printf.sprintf "%s%s%d" base suffix i in
    if Hashtbl.mem names candidate then go (i + 1)
    else begin
      Hashtbl.replace names candidate ();
      candidate
    end
  in
  go 0

let scalar_writes (l : Ast.loop) name =
  List.fold_left
    (fun n (s : Ast.stmt) ->
      match s.lhs with Ast.Lscalar v when String.equal v name -> n + 1 | _ -> n)
    0 l.body

(* The integer constant value of an expression, when it is one. *)
let const_int (e : Ast.expr) =
  match Isched_deps.Affine.of_expr e with
  | Some { Isched_deps.Affine.coef = 0; off } -> Some off
  | _ -> None

(* --- induction-variable substitution --- *)

(* Recognize [K = K + c] / [K = K - c] / [K = c + K]. *)
let iv_pattern name (rhs : Ast.expr) =
  match rhs with
  | Ast.Bin (Ast.Add, Ast.Scalar s, e) when s = name -> const_int e
  | Ast.Bin (Ast.Add, e, Ast.Scalar s) when s = name -> const_int e
  | Ast.Bin (Ast.Sub, Ast.Scalar s, e) when s = name -> (
    match const_int e with Some c -> Some (-c) | None -> None)
  | _ -> None

let find_iv (l : Ast.loop) =
  let rec go i = function
    | [] -> None
    | (s : Ast.stmt) :: rest -> (
      match s.lhs with
      | Ast.Lscalar name when s.guard = None -> (
        match iv_pattern name s.rhs with
        | Some step when scalar_writes l name = 1 -> Some (i, name, step)
        | _ -> go (i + 1) rest)
      | _ -> go (i + 1) rest)
  in
  go 0 l.body

let substitute_iv (l : Ast.loop) (upd_idx, name, step) =
  (* Number of updates already executed when iteration I reaches a point:
     before the update statement it is (I - lo), after it (I - lo + 1).
     The value of [name] at that point is its loop-entry value plus
     step * that count; [name] itself is read-only afterwards. *)
  let open Ast in
  let iter_offset = Bin (Sub, Ivar, Num (float_of_int l.lo)) in
  let value_at count_expr =
    Bin (Add, Scalar name, Bin (Mul, Num (float_of_int step), count_expr))
  in
  let before_value = value_at iter_offset in
  let after_value = value_at (Bin (Add, iter_offset, Num 1.)) in
  let body =
    List.concat
      (List.mapi
         (fun i (s : stmt) ->
           if i = upd_idx then []
           else begin
             let into = if i < upd_idx then before_value else after_value in
             let sub e = Ast.rename_scalar ~from:name ~into e in
             let guard =
               match s.guard with
               | None -> None
               | Some c -> Some { c with lhs = sub c.lhs; rhs = sub c.rhs }
             in
             let lhs =
               match s.lhs with
               | Larr (a, se) -> Larr (a, sub se)
               | Lscalar n -> Lscalar n
             in
             [ { s with guard; lhs; rhs = sub s.rhs } ]
           end)
         l.body)
  in
  Ast.with_body l body

(* --- reduction replacement --- *)

(* Recognize [S = S op e] where [e] does not read S. *)
let reduction_pattern name (rhs : Ast.expr) =
  let reads_s e = List.mem name (Ast.scalars_read e) in
  match rhs with
  | Ast.Bin ((Ast.Add | Ast.Mul) as op, Ast.Scalar s, e) when s = name && not (reads_s e) ->
    Some (op, e)
  | Ast.Bin ((Ast.Add | Ast.Mul) as op, e, Ast.Scalar s) when s = name && not (reads_s e) ->
    Some (op, e)
  | Ast.Bin (Ast.Sub, Ast.Scalar s, e) when s = name && not (reads_s e) -> Some (Ast.Sub, e)
  | _ -> None

let find_reduction (l : Ast.loop) =
  let rec go i = function
    | [] -> None
    | (s : Ast.stmt) :: rest -> (
      match s.lhs with
      | Ast.Lscalar name when s.guard = None -> (
        match reduction_pattern name s.rhs with
        | Some (op, e) ->
          let other_reads =
            List.exists
              (fun (s' : Ast.stmt) ->
                s' != s && List.mem name (Ast.stmt_scalars_read s'))
              l.body
          in
          if scalar_writes l name = 1 && not other_reads then Some (i, name, op, e)
          else go (i + 1) rest
        | None -> go (i + 1) rest)
      | _ -> go (i + 1) rest)
  in
  go 0 l.body

let replace_reduction names (l : Ast.loop) (idx, name, op, e) =
  let partial = fresh_name names name "_r" in
  let body =
    List.mapi
      (fun i (s : Ast.stmt) ->
        if i = idx then { s with lhs = Ast.Larr (partial, Ast.Ivar); rhs = e } else s)
      l.body
  in
  (Ast.with_body l body, Reduction { name; op; partial })

(* --- scalar expansion --- *)

(* A scalar is expandable when every iteration writes it before reading
   it: all its writes are unguarded, and within the statement list every
   read is preceded (in access order) by a write of the same iteration. *)
let expandable (l : Ast.loop) name =
  let accs = Isched_deps.Access.of_loop l in
  let mine = List.filter (fun (a : Isched_deps.Access.t) -> (not a.is_array) && a.target = name) accs in
  (match mine with [] -> false | _ -> true)
  && List.exists (fun (a : Isched_deps.Access.t) -> a.is_write) mine
  && begin
       (* every write unguarded *)
       List.for_all
         (fun (a : Isched_deps.Access.t) ->
           if not a.is_write then true
           else
             let s = List.nth l.body a.stmt in
             s.Ast.guard = None)
         mine
     end
  && begin
       (* first access overall is a write, and no read occurs in a
          statement before the first writing statement *)
       let seen_write = ref false in
       let ok = ref true in
       List.iter
         (fun (a : Isched_deps.Access.t) ->
           if a.is_write then seen_write := true
           else if not !seen_write then ok := false)
         mine;
       !ok
     end

let expand_scalar names (l : Ast.loop) name =
  let partial = fresh_name names name "_x" in
  let into = Ast.Aref (partial, Ast.Ivar) in
  let body =
    List.map
      (fun (s : Ast.stmt) ->
        let sub e = Ast.rename_scalar ~from:name ~into e in
        let guard =
          match s.guard with
          | None -> None
          | Some c -> Some { c with Ast.lhs = sub c.Ast.lhs; rhs = sub c.Ast.rhs }
        in
        let lhs =
          match s.lhs with
          | Ast.Larr (a, se) -> Ast.Larr (a, sub se)
          | Ast.Lscalar n when n = name -> Ast.Larr (partial, Ast.Ivar)
          | Ast.Lscalar n -> Ast.Lscalar n
        in
        { s with Ast.guard; lhs; rhs = sub s.rhs })
      l.body
  in
  (Ast.with_body l body, Expanded { name; partial })

(* --- driver --- *)

let scalars_written (l : Ast.loop) =
  List.filter_map
    (fun (s : Ast.stmt) -> match s.lhs with Ast.Lscalar n -> Some n | Ast.Larr _ -> None)
    l.body
  |> List.sort_uniq compare

let run (l : Ast.loop) =
  (* Only a reduction or an expansion needs fresh names, and most loops
     have neither. *)
  let names = lazy (all_names l) in
  let actions = ref [] in
  let loop = ref l in
  (* Induction variables, repeatedly (substituting one can expose another
     only in contrived cases, but the fixed point is cheap). *)
  let continue_ = ref true in
  while !continue_ do
    match find_iv !loop with
    | Some (idx, name, step) ->
      loop := substitute_iv !loop (idx, name, step);
      actions := Iv_subst { name; step } :: !actions
    | None -> continue_ := false
  done;
  (* Reductions. *)
  continue_ := true;
  while !continue_ do
    match find_reduction !loop with
    | Some r ->
      let l', act = replace_reduction (Lazy.force names) !loop r in
      loop := l';
      actions := act :: !actions
    | None -> continue_ := false
  done;
  (* Scalar expansion for the remaining written scalars. *)
  List.iter
    (fun name ->
      if expandable !loop name then begin
        let l', act = expand_scalar (Lazy.force names) !loop name in
        loop := l';
        actions := act :: !actions
      end)
    (scalars_written !loop);
  { loop = !loop; actions = List.rev !actions }

(* Observability shadow: the exported [run] is the traced one. *)
let run l = Isched_obs.Span.with_ ~name:"transform.restructure" (fun () -> run l)
