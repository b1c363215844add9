module Ast = Isched_frontend.Ast

type kind = Flow | Anti | Output
type distance = Dist of int | Unknown
type lexical = LFD | LBD

type t = {
  kind : kind;
  src : Access.t;
  snk : Access.t;
  distance : distance;
  lexical : lexical;
}

let carried d = match d.distance with Dist 0 -> false | Dist _ | Unknown -> true

let sync_distance d = match d.distance with Dist n when n >= 1 -> n | Dist _ -> 0 | Unknown -> 1

let kind_name = function Flow -> "flow" | Anti -> "anti" | Output -> "output"

(* Intra-iteration execution order of two accesses. *)
let intra_before (a : Access.t) (b : Access.t) =
  a.stmt < b.stmt || (a.stmt = b.stmt && a.idx < b.idx)

let lexical_of ~(src : Access.t) ~(snk : Access.t) =
  if src.stmt < snk.stmt then LFD else LBD

let dep_kind ~(src : Access.t) ~(snk : Access.t) =
  match (src.is_write, snk.is_write) with
  | true, false -> Some Flow
  | false, true -> Some Anti
  | true, true -> Some Output
  | false, false -> None

let make ~src ~snk ~distance =
  match dep_kind ~src ~snk with
  | None -> None
  | Some kind -> Some { kind; src; snk; distance; lexical = lexical_of ~src ~snk }

(* Largest iteration space we enumerate exactly; beyond it unequal-
   coefficient subscript pairs degrade to Unknown (still safe). *)
let enumeration_limit = 4096

(* Dependences from access [a] to access [b] (a executes first). *)
let deps_between (l : Ast.loop) (a : Access.t) (b : Access.t) =
  let span = l.hi - l.lo in
  if span < 0 then []
  else begin
    match (a.affine, b.affine) with
    | Some fa, Some fb when fa.Affine.coef = fb.Affine.coef && fa.Affine.coef <> 0 ->
      (* c*i1 + oa = c*i2 + ob  =>  i2 - i1 = (oa - ob) / c *)
      let c = fa.Affine.coef in
      let num = fa.Affine.off - fb.Affine.off in
      if num mod c <> 0 then []
      else begin
        let delta = num / c in
        if delta > span || delta < 0 then []
        else if delta = 0 && not (intra_before a b) then []
        else
          match make ~src:a ~snk:b ~distance:(Dist delta) with
          | Some d -> [ d ]
          | None -> []
      end
    | Some fa, Some fb when fa.Affine.coef = 0 && fb.Affine.coef = 0 ->
      (* Two constant subscripts: same cell every iteration. *)
      if fa.Affine.off <> fb.Affine.off then []
      else begin
        let acc = ref [] in
        (if span >= 1 then
           match make ~src:a ~snk:b ~distance:Unknown with
           | Some d -> acc := d :: !acc
           | None -> ());
        (if intra_before a b then
           match make ~src:a ~snk:b ~distance:(Dist 0) with
           | Some d -> acc := d :: !acc
           | None -> ());
        !acc
      end
    | Some fa, Some fb when span <= enumeration_limit ->
      (* Unequal coefficients: enumerate the bounded iteration space and
         collect the exact set of (i1, i2) collisions.  Only whether the
         positive distances number zero, one or several matters, so the
         first one and a "several" flag stand for the set. *)
      let cb = fb.Affine.coef in
      let first = ref 0 and several = ref false in
      let note d = if !first = 0 then first := d else if d <> !first then several := true in
      let any_zero_intra = ref false in
      for i1 = l.lo to l.hi do
        let v = Affine.eval fa i1 in
        (* Solve cb*i2 + ob = v. *)
        if cb = 0 then begin
          if fb.Affine.off = v then begin
            (* b touches this cell every iteration: every distance,
               including 0 (i2 = i1) within the iteration. *)
            if span >= 1 then note 1;
            if span >= 2 then note 2;
            if intra_before a b then any_zero_intra := true
          end
        end
        else begin
          let num = v - fb.Affine.off in
          if num mod cb = 0 then begin
            let i2 = num / cb in
            if i2 >= l.lo && i2 <= l.hi then begin
              let d = i2 - i1 in
              if d > 0 then note d
              else if d = 0 && intra_before a b then any_zero_intra := true
            end
          end
        end
      done;
      let acc = ref [] in
      (if !any_zero_intra then
         match make ~src:a ~snk:b ~distance:(Dist 0) with
         | Some d -> acc := d :: !acc
         | None -> ());
      (if !first > 0 then
         match make ~src:a ~snk:b ~distance:(if !several then Unknown else Dist !first) with
         | Some dep -> acc := dep :: !acc
         | None -> ());
      !acc
    | _ ->
      (* Not analyzable (non-affine subscript, scalar, or the iteration
         space is too large to enumerate): conservative. *)
      let acc = ref [] in
      (if span >= 1 then
         match make ~src:a ~snk:b ~distance:Unknown with
         | Some d -> acc := d :: !acc
         | None -> ());
      (if intra_before a b then
         match make ~src:a ~snk:b ~distance:(Dist 0) with
         | Some d -> acc := d :: !acc
         | None -> ());
      !acc
  end

let kind_rank = function Flow -> 0 | Anti -> 1 | Output -> 2
let dist_rank = function Dist n -> n | Unknown -> max_int

(* Lexicographic on (source stmt, sink stmt, kind, distance, source
   access, sink access). *)
let dep_order d1 d2 =
  let c = Int.compare d1.src.Access.stmt d2.src.Access.stmt in
  if c <> 0 then c
  else
    let c = Int.compare d1.snk.Access.stmt d2.snk.Access.stmt in
    if c <> 0 then c
    else
      let c = Int.compare (kind_rank d1.kind) (kind_rank d2.kind) in
      if c <> 0 then c
      else
        let c = Int.compare (dist_rank d1.distance) (dist_rank d2.distance) in
        if c <> 0 then c
        else
          let c = Int.compare d1.src.Access.idx d2.src.Access.idx in
          if c <> 0 then c else Int.compare d1.snk.Access.idx d2.snk.Access.idx

(* A dependence needs two accesses to one (target, is_array) name with a
   write among them, and every write is a statement's left-hand side.
   So the accesses are bucketed by the first statement writing their
   name (accesses to a name the loop never writes are never built), and
   only pairs within a bucket are tested. *)
let rec bucket_of (body : Ast.stmt array) target is_array i =
  if i = Array.length body then -1
  else
    match body.(i).lhs with
    | Ast.Larr (a, _) when is_array && String.equal a target -> i
    | Ast.Lscalar v when (not is_array) && String.equal v target -> i
    | Ast.Larr _ | Ast.Lscalar _ -> bucket_of body target is_array (i + 1)

let analyze (l : Ast.loop) =
  let body = Array.of_list l.body in
  let buckets = Array.make (Array.length body) [] in
  Array.iteri
    (fun stmt s ->
      Access.iter_stmt s (fun idx target is_array sub is_write ->
          let b = bucket_of body target is_array 0 in
          if b >= 0 then
            buckets.(b) <- Access.make ~stmt ~idx ~target ~is_array ~sub ~is_write :: buckets.(b)))
    body;
  let out = ref [] in
  Array.iter
    (fun accs ->
      List.iter
        (fun (a : Access.t) ->
          List.iter
            (fun (b : Access.t) ->
              if a.is_write || b.is_write then
                match deps_between l a b with [] -> () | ds -> out := ds @ !out)
            accs)
        accs)
    buckets;
  List.sort_uniq dep_order !out

let carried_deps l = List.filter carried (analyze l)
let is_doall l = carried_deps l = []

let pp ppf d =
  let dist =
    match d.distance with Dist n -> string_of_int n | Unknown -> "*"
  in
  let lex = match d.lexical with LFD -> "LFD" | LBD -> "LBD" in
  let tag = if carried d then Printf.sprintf "carried d=%s %s" dist lex else "loop-independent" in
  Format.fprintf ppf "%s %s: S%d -> S%d on %s (%s)" (kind_name d.kind)
    (if d.src.Access.is_array then "dep" else "scalar dep")
    (d.src.Access.stmt + 1) (d.snk.Access.stmt + 1) d.src.Access.target tag

let to_string d = Format.asprintf "%a" pp d
