type dep_kind = Flow | Anti | Output
type lexical = LFD | LBD

type signal_info = {
  signal : int;
  src_stmt : int;
  src_instr : int;
  send_instr : int;
  label : string;
}

type wait_info = {
  wait : int;
  signal : int;
  distance : int;
  snk_stmt : int;
  snk_instr : int;
  wait_instr : int;
  kind : dep_kind;
  lexical : lexical;
  array : string;
}

type mem_ref = { base : string; affine : (int * int) option }

type t = {
  name : string;
  body : Instr.t array;
  signals : signal_info array;
  waits : wait_info array;
  mem : mem_ref option array;
  stmt_of : int array;
  n_regs : int;
  lo : int;
  n_iters : int;
  source_lines : int;
}

let fail fmt = Printf.ksprintf invalid_arg fmt

let validate p =
  let n = Array.length p.body in
  if Array.length p.mem <> n then fail "Program %s: mem table length mismatch" p.name;
  if Array.length p.stmt_of <> n then fail "Program %s: stmt table length mismatch" p.name;
  if p.n_iters < 1 then fail "Program %s: n_iters must be >= 1" p.name;
  (* Register sanity: single assignment, uses within range. *)
  let defined = Array.make (max 1 p.n_regs) false in
  let cur = ref 0 in
  let check_use u =
    let i = !cur in
    if u < 0 || u >= p.n_regs then fail "Program %s: instr %d uses t%d out of range" p.name (i + 1) u;
    if not defined.(u) then fail "Program %s: instr %d uses t%d before its definition" p.name (i + 1) u
  in
  Array.iteri
    (fun i ins ->
      cur := i;
      (match Instr.def ins with
      | Some d ->
        if d < 0 || d >= p.n_regs then fail "Program %s: instr %d defines t%d out of range" p.name (i + 1) d;
        if defined.(d) then fail "Program %s: t%d defined twice (instr %d)" p.name d (i + 1);
        defined.(d) <- true
      | None -> ());
      Instr.iter_uses ins check_use;
      match ins with
      | Instr.Load _ | Instr.Store _ ->
        if p.mem.(i) = None then fail "Program %s: instr %d lacks a mem_ref" p.name (i + 1)
      | _ -> ())
    p.body;
  (* Sync tables. *)
  Array.iteri
    (fun s (info : signal_info) ->
      if info.signal <> s then fail "Program %s: signal %d misindexed" p.name s;
      if info.src_instr < 0 || info.src_instr >= n then fail "Program %s: signal %d src_instr" p.name s;
      if info.send_instr < 0 || info.send_instr >= n then fail "Program %s: signal %d send_instr" p.name s;
      (match p.body.(info.send_instr) with
      | Instr.Send { signal } when signal = s -> ()
      | _ -> fail "Program %s: signal %d send_instr does not hold Send" p.name s);
      if info.send_instr <= info.src_instr then
        fail "Program %s: signal %d: Send precedes its Src in program order" p.name s)
    p.signals;
  Array.iteri
    (fun w (info : wait_info) ->
      if info.wait <> w then fail "Program %s: wait %d misindexed" p.name w;
      if info.signal < 0 || info.signal >= Array.length p.signals then
        fail "Program %s: wait %d references unknown signal" p.name w;
      if info.distance < 1 then fail "Program %s: wait %d distance must be >= 1" p.name w;
      if info.snk_instr < 0 || info.snk_instr >= n then fail "Program %s: wait %d snk_instr" p.name w;
      if info.wait_instr < 0 || info.wait_instr >= n then fail "Program %s: wait %d wait_instr" p.name w;
      (match p.body.(info.wait_instr) with
      | Instr.Wait { wait } when wait = w -> ()
      | _ -> fail "Program %s: wait %d wait_instr does not hold Wait" p.name w);
      if info.wait_instr >= info.snk_instr then
        fail "Program %s: wait %d: Wait follows its Snk in program order" p.name w)
    p.waits

let signal_label p s = p.signals.(s).label

let wait_label p w =
  let wi = p.waits.(w) in
  Printf.sprintf "%s, I-%d" (signal_label p wi.signal) wi.distance

let n_lfd p = Array.fold_left (fun acc w -> if w.lexical = LFD then acc + 1 else acc) 0 p.waits
let n_lbd p = Array.fold_left (fun acc w -> if w.lexical = LBD then acc + 1 else acc) 0 p.waits

let waits_of_signal p s =
  Array.to_list p.waits |> List.filter (fun w -> w.signal = s)

let pp ppf p =
  Array.iteri
    (fun i ins ->
      Format.fprintf ppf "%3d: %a@." (i + 1)
        (Instr.pp_full ~signal_name:(signal_label p) ~wait_name:(wait_label p))
        ins)
    p.body

let to_string p = Format.asprintf "%a" pp p

let name_sets p =
  let scalars = Hashtbl.create 8 and arrays = Hashtbl.create 8 in
  Array.iter
    (fun ins ->
      match ins with
      | Instr.Load { base; _ } | Instr.Store { base; _ } -> Hashtbl.replace arrays base ()
      | Instr.Load_scalar { name; _ } | Instr.Store_scalar { name; _ } ->
        Hashtbl.replace scalars name ()
      | _ -> ())
    p.body;
  let sorted tbl = Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare in
  (sorted scalars, sorted arrays)

let scalars p = fst (name_sets p)
let arrays p = snd (name_sets p)
