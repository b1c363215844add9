module Ast = Isched_frontend.Ast
module Dep = Isched_deps.Dep
module Access = Isched_deps.Access

type signal_decl = { signal : int; src : Access.t; label : string }
type pair = { wait : int; signal : int; distance : int; dep : Dep.t }
type t = { signals : signal_decl array; pairs : pair array }

let stmt_label (l : Ast.loop) i =
  match List.nth_opt l.body i with Some s -> s.Ast.label | None -> Printf.sprintf "S%d" (i + 1)

let of_deps (l : Ast.loop) deps =
  let carried = List.filter Dep.carried deps in
  (* Signals: one per distinct source access, in deterministic order.
     A loop has a handful, so a scan finds an access's signal. *)
  let signals = Isched_util.Vec.create () in
  let signal_of (a : Access.t) =
    let rec find s =
      if s = Isched_util.Vec.length signals then begin
        Isched_util.Vec.push signals { signal = s; src = a; label = stmt_label l a.stmt };
        s
      end
      else
        let src = (Isched_util.Vec.get signals s).src in
        if src.stmt = a.stmt && src.idx = a.idx then s else find (s + 1)
    in
    find 0
  in
  let pairs =
    List.mapi
      (fun w (d : Dep.t) ->
        { wait = w; signal = signal_of d.src; distance = Dep.sync_distance d; dep = d })
      carried
  in
  { signals = Isched_util.Vec.to_array signals; pairs = Array.of_list pairs }

let build (l : Ast.loop) =
  of_deps l (Dep.carried_deps l)

let n_lfd t =
  Array.fold_left (fun acc p -> if p.dep.Dep.lexical = Dep.LFD then acc + 1 else acc) 0 t.pairs

let n_lbd t =
  Array.fold_left (fun acc p -> if p.dep.Dep.lexical = Dep.LBD then acc + 1 else acc) 0 t.pairs

let pp_annotated ppf (l : Ast.loop) t =
  Format.fprintf ppf "DOACROSS %s = %d, %d@." l.index l.lo l.hi;
  List.iteri
    (fun i (s : Ast.stmt) ->
      Array.iter
        (fun p ->
          if p.dep.Dep.snk.Access.stmt = i then
            Format.fprintf ppf "  Wait_Signal(%s, %s-%d)@."
              t.signals.(p.signal).label l.index p.distance)
        t.pairs;
      Format.fprintf ppf "  %a@." Ast.pp_stmt s;
      Array.iter
        (fun (sd : signal_decl) ->
          if sd.src.Access.stmt = i then Format.fprintf ppf "  Send_Signal(%s)@." sd.label)
        t.signals)
    l.body;
  Format.fprintf ppf "END_DOACROSS@."

(* Observability shadow: the exported [build] is the traced one (the
   "partition" stage of the pipeline — sync pairs chosen per loop). *)
let build l = Isched_obs.Span.with_ ~name:"sync.plan" (fun () -> build l)
