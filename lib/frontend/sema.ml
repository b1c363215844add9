type error = { loop : string; message : string }

type usage = Array_use | Scalar_use

let pp_error ppf e = Format.fprintf ppf "%s: %s" e.loop e.message

(* [check] walks the loop, threading the error list (newest first).  A
   valid loop — nearly every loop the batch path sees, twice: at corpus
   generation and at code generation — allocates nothing: no table, and
   a message is formatted only when a rule fails. *)

let error (l : Ast.loop) message errs = { loop = l.name; message } :: errs

(* The kind of the first use of [name], in the order [check] visits
   uses ([None]: not used).  The index is never a scalar use. *)
let scalar_first (l : Ast.loop) name s =
  if String.equal s name && not (String.equal s l.index) then Some Scalar_use else None

let rec expr_first l name (e : Ast.expr) =
  match e with
  | Ast.Num _ | Ast.Ivar -> None
  | Ast.Scalar s -> scalar_first l name s
  | Ast.Aref (a, sub) -> if String.equal a name then Some Array_use else expr_first l name sub
  | Ast.Bin (_, x, y) -> ( match expr_first l name x with None -> expr_first l name y | found -> found)
  | Ast.Neg x -> expr_first l name x

let rec stmts_first l name = function
  | [] -> None
  | (s : Ast.stmt) :: rest -> (
    match
      match s.guard with
      | Some c -> ( match expr_first l name c.lhs with None -> expr_first l name c.rhs | found -> found)
      | None -> None
    with
    | Some _ as found -> found
    | None -> (
      match
        match s.lhs with
        | Ast.Larr (a, sub) -> if String.equal a name then Some Array_use else expr_first l name sub
        | Ast.Lscalar n -> scalar_first l name n
      with
      | Some _ as found -> found
      | None -> ( match expr_first l name s.rhs with None -> stmts_first l name rest | found -> found)))

(* Whether [name] has an array use anywhere in the loop. *)
let rec expr_has_array name (e : Ast.expr) =
  match e with
  | Ast.Num _ | Ast.Ivar | Ast.Scalar _ -> false
  | Ast.Aref (a, sub) -> String.equal a name || expr_has_array name sub
  | Ast.Bin (_, x, y) -> expr_has_array name x || expr_has_array name y
  | Ast.Neg x -> expr_has_array name x

let rec body_has_array name = function
  | [] -> false
  | (s : Ast.stmt) :: rest ->
    (match s.guard with
    | Some c -> expr_has_array name c.lhs || expr_has_array name c.rhs
    | None -> false)
    || (match s.lhs with
       | Ast.Larr (a, sub) -> String.equal a name || expr_has_array name sub
       | Ast.Lscalar _ -> false)
    || expr_has_array name s.rhs
    || body_has_array name rest

(* Raised by a walk with [~mixed:false] at a scalar use whose name also
   has an array use. *)
exception Mixed

(* A name's uses must all be of the kind of its first use: each use of
   the other kind is an error.  A clash needs a name with uses of both
   kinds, so one with a scalar use: scalar uses are few, and [check]
   first walks with [~mixed:false], scanning the loop for an array use
   at each scalar use only.  Finding one, it walks again with
   [~mixed:true], finding every use's first use. *)
let note (l : Ast.loop) ~mixed name u errs =
  if mixed then
    match stmts_first l name l.body with
    | Some first when first <> u ->
      error l (Printf.sprintf "name %S is used both as an array and as a scalar" name) errs
    | Some _ | None -> errs
  else
    match u with
    | Scalar_use when body_has_array name l.body -> raise_notrace Mixed
    | Scalar_use | Array_use -> errs

(* [depth] counts subscript nesting: an array reference is allowed in a
   subscript (index arrays, the "others" DOACROSS category), but not
   inside the subscript of such a reference. *)
let rec walk_expr (l : Ast.loop) ~mixed ~depth errs (e : Ast.expr) =
  match e with
  | Ast.Num _ | Ast.Ivar -> errs
  | Ast.Scalar s ->
    if String.equal s l.index then errs (* parser maps index to Ivar, but be safe *)
    else note l ~mixed s Scalar_use errs
  | Ast.Aref (a, sub) ->
    let errs = note l ~mixed a Array_use errs in
    let errs =
      if depth >= 2 then
        error l (Printf.sprintf "array %S is subscripted deeper than one indirection level" a) errs
      else errs
    in
    walk_expr l ~mixed ~depth:(depth + 1) errs sub
  | Ast.Bin (_, x, y) -> walk_expr l ~mixed ~depth (walk_expr l ~mixed ~depth errs x) y
  | Ast.Neg x -> walk_expr l ~mixed ~depth errs x

(* Some statement of [body] before the tail [stop] has label [label]. *)
let rec label_before label stop = function
  | [] -> false
  | t when t == stop -> false
  | (s : Ast.stmt) :: rest -> String.equal s.label label || label_before label stop rest

let rec walk_stmts (l : Ast.loop) ~mixed errs = function
  | [] -> errs
  | (s : Ast.stmt) :: rest as here ->
    let errs =
      if label_before s.label here l.body then
        error l (Printf.sprintf "duplicate statement label %S" s.label) errs
      else errs
    in
    let errs =
      match s.guard with
      | Some c -> walk_expr l ~mixed ~depth:0 (walk_expr l ~mixed ~depth:0 errs c.lhs) c.rhs
      | None -> errs
    in
    let errs =
      match s.lhs with
      | Ast.Larr (a, sub) ->
        let errs = note l ~mixed a Array_use errs in
        let errs =
          if String.equal a l.index then
            error l (Printf.sprintf "loop variable %S cannot be an array" l.index) errs
          else errs
        in
        walk_expr l ~mixed ~depth:1 errs sub
      | Ast.Lscalar name ->
        if String.equal name l.index then
          error l (Printf.sprintf "loop variable %S is assigned in the body" l.index) errs
        else note l ~mixed name Scalar_use errs
    in
    walk_stmts l ~mixed (walk_expr l ~mixed ~depth:0 errs s.rhs) rest

let check (l : Ast.loop) =
  let errs = if l.body = [] then error l "loop body is empty" [] else [] in
  let errs =
    if Ast.iterations l = 0 then
      error l (Printf.sprintf "iteration range %d..%d is empty" l.lo l.hi) errs
    else errs
  in
  List.rev (try walk_stmts l ~mixed:false errs l.body with Mixed -> walk_stmts l ~mixed:true errs l.body)

let check_exn l =
  match Isched_obs.Span.with_ ~name:"frontend.sema" (fun () -> check l) with
  | [] -> ()
  | errs ->
    let msgs = List.map (fun e -> Format.asprintf "%a" pp_error e) errs in
    invalid_arg (String.concat "; " msgs)
