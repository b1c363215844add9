module Instr = Isched_ir.Instr
module Program = Isched_ir.Program

type arc_kind = Data | Mem | Sync_src | Sync_snk
type arc = { src : int; dst : int; latency : int; kind : arc_kind }

let arc_kind_name = function
  | Data -> "data"
  | Mem -> "mem"
  | Sync_src -> "sync-src"
  | Sync_snk -> "sync-snk"

(* Arcs live in two flat CSR arenas: [succ_off]/[succ_arc] indexed by
   source node and the transposed [pred_off]/[pred_arc] indexed by
   destination.  One packed int per arc endpoint:

     bits 10..   the other endpoint's node index
     bits 8..9   arc kind
     bits 0..7   latency (function-unit latencies are <= 6)

   Within a row, arcs appear in the exact order the old [arc list
   array] representation produced (reverse insertion order): schedule
   construction recurses over predecessor arcs and provenance binds the
   first-seen arc on ties, so row order is semantics, not cosmetics. *)

let kind_code = function Data -> 0 | Mem -> 1 | Sync_src -> 2 | Sync_snk -> 3
let kind_of_code = function 0 -> Data | 1 -> Mem | 2 -> Sync_src | _ -> Sync_snk

let arc_node_shift = 10
let arc_latency_mask = 0xFF
let[@inline] arc_node packed = packed lsr arc_node_shift
let[@inline] arc_latency packed = packed land arc_latency_mask
let[@inline] arc_kind packed = kind_of_code ((packed lsr 8) land 3)

type sync_path = { wait_id : int; signal : int; distance : int; nodes : int list }

(* Machine-independent derived data, computed on first demand and kept
   with the graph: the bench pipeline schedules every graph under
   several machine configurations, and each run used to recompute these
   from scratch.  A write is idempotent (the functions are
   deterministic), so the unsynchronized publication is safe when a
   memoized graph is shared across domains — two domains can at worst
   both compute the same value once. *)
type path_group = {
  gkey : float;  (* the worst member weight, the scheduler's sort key *)
  gpaths : sync_path list;  (* members, heaviest first *)
  gorder : int;  (* union-find representative: the stable tie-break *)
}

type memo = {
  mutable lp : int array option;  (* longest_path_to_exit *)
  mutable paths : sync_path list option;  (* sync_paths *)
  mutable lfd : int array option;  (* lfd_sends *)
  mutable groups : path_group list option;  (* sync_groups *)
  mutable order : int array option;  (* priority_order *)
  mutable fuc : int array option;  (* fu_codes *)
}

type t = {
  prog : Program.t;
  n : int;
  n_arcs : int;
  succ_off : int array;
  succ_arc : int array;
  pred_off : int array;
  pred_arc : int array;
  memo : memo;
}

let[@inline] succ_deg g i = g.succ_off.(i + 1) - g.succ_off.(i)
let[@inline] pred_deg g i = g.pred_off.(i + 1) - g.pred_off.(i)

let[@inline] iter_succs g i f =
  for k = g.succ_off.(i) to g.succ_off.(i + 1) - 1 do
    f g.succ_arc.(k)
  done

let[@inline] iter_preds g i f =
  for k = g.pred_off.(i) to g.pred_off.(i + 1) - 1 do
    f g.pred_arc.(k)
  done

(* Boxed views for cold paths and tests; same arc order as the old
   representation. *)
let succs_list g i =
  let r = ref [] in
  for k = g.succ_off.(i + 1) - 1 downto g.succ_off.(i) do
    let a = g.succ_arc.(k) in
    r := { src = i; dst = arc_node a; latency = arc_latency a; kind = arc_kind a } :: !r
  done;
  !r

let preds_list g i =
  let r = ref [] in
  for k = g.pred_off.(i + 1) - 1 downto g.pred_off.(i) do
    let a = g.pred_arc.(k) in
    r := { src = arc_node a; dst = i; latency = arc_latency a; kind = arc_kind a } :: !r
  done;
  !r

(* Two affine references [c1*i+o1] and [c2*i+o2] name the same element
   in iteration [i] iff [(c1-c2)*i = o2-o1]: never when [c1 = c2] and the
   offsets differ, in exactly one iteration when [c1 <> c2] and the
   difference divides.  Memory arcs order the operations of one
   iteration, so that is the whole test. *)
let[@inline] affine_alias ~lo ~hi c1 o1 c2 o2 =
  if c1 = c2 then o1 = o2
  else
    let dc = c1 - c2 and d_o = o2 - o1 in
    d_o mod dc = 0
    &&
    let i = d_o / dc in
    lo <= i && i <= hi

let may_alias ~range:(lo, hi) (a : Program.mem_ref) (b : Program.mem_ref) =
  String.equal a.base b.base
  &&
  match (a.affine, b.affine) with
  | Some (c1, o1), Some (c2, o2) -> affine_alias ~lo ~hi c1 o1 c2 o2
  | None, _ | _, None -> true

let iteration_range (p : Program.t) = (p.lo, p.lo + p.n_iters - 1)

(* Scalar memory ops get a pseudo mem_ref keyed by name so the same
   aliasing logic applies; scalar and array namespaces are disjoint
   because Sema rejects names used as both. *)
let mem_ref_of (p : Program.t) i =
  match p.body.(i) with
  | Instr.Load _ | Instr.Store _ -> p.mem.(i)
  | Instr.Load_scalar { name; _ } | Instr.Store_scalar { name; _ } ->
    Some { Program.base = name; affine = Some (0, 0) }
  | _ -> None

let is_write (p : Program.t) i =
  match p.body.(i) with Instr.Store _ | Instr.Store_scalar _ -> true | _ -> false

(* The instructions a wait orders after itself: its sink plus the
   aliasing memory operations of the sink statement between the wait and
   the sink (the old-value load of an if-converted store). *)
let protected_of_wait (p : Program.t) (w : Program.wait_info) =
  let range = iteration_range p in
  let extra = ref [] in
  (match mem_ref_of p w.snk_instr with
  | None -> ()
  | Some ms ->
    for m = w.wait_instr + 1 to w.snk_instr - 1 do
      if p.stmt_of.(m) = w.snk_stmt then
        match mem_ref_of p m with
        | Some mm when may_alias ~range ms mm -> extra := m :: !extra
        | _ -> ()
    done);
  w.snk_instr :: List.rev !extra

(* --- per-domain build arena --- *)

(* Scratch for one [build] call, reused across builds on the same
   domain so the hot loop of a scaled bench run allocates no staging
   buffers.  Only [build] touches it and only between entry and return;
   the returned graph owns freshly sized arrays and is immutable, so
   graphs can be memoized and shared across domains.

   Memory operations get dense slots in body order.  Slots naming the
   same base form a group, chained in ascending order through [next];
   only pairs within a group can alias, so memory-arc construction
   walks each slot's later group members instead of every later memory
   operation, and the sync-sink duplication walks the sink's group.  A
   loop names few bases, so a scan of the group heads finds a slot's
   group. *)
type arena = {
  mutable staged : int array;  (* (src<<36)|(dst<<10)|(kind<<8)|latency, in add order *)
  mutable n_staged : int;
  mutable def_of : int array;  (* per register: defining instruction, or -1 *)
  mutable slot_of : int array;  (* per instruction: memory slot, or -1 *)
  mutable cur : int array;  (* CSR fill cursors, succ rows then pred rows *)
  mutable instr : int array;  (* per slot: instruction index *)
  mutable next : int array;  (* per slot: next slot of its group, or -1 *)
  mutable head : int array;  (* per slot: first slot of its group *)
  mutable tail : int array;  (* per group head: last slot so far *)
  mutable heads : int array;  (* per group: its head slot, groups in order of first use *)
  mutable bases : string array;  (* per group: its base name *)
  mutable write : bool array;
  mutable known : bool array;  (* the subscript is affine *)
  mutable coef : int array;
  mutable off : int array;
}

let arena_key =
  Domain.DLS.new_key (fun () ->
      {
        staged = Array.make 256 0;
        n_staged = 0;
        def_of = [||];
        slot_of = [||];
        cur = [||];
        instr = [||];
        next = [||];
        head = [||];
        tail = [||];
        heads = [||];
        bases = [||];
        write = [||];
        known = [||];
        coef = [||];
        off = [||];
      })

(* Grow the per-instruction and per-register scratch to [n] and [regs]
   entries; contents are garbage until [build] writes them. *)
let reserve a n regs =
  if Array.length a.def_of < regs then a.def_of <- Array.make (max regs (2 * Array.length a.def_of)) 0;
  if Array.length a.slot_of < n then begin
    let cap = max n (2 * Array.length a.slot_of) in
    a.slot_of <- Array.make cap 0;
    a.cur <- Array.make (2 * cap) 0;
    a.instr <- Array.make cap 0;
    a.next <- Array.make cap 0;
    a.head <- Array.make cap 0;
    a.tail <- Array.make cap 0;
    a.heads <- Array.make cap 0;
    a.bases <- Array.make cap "";
    a.write <- Array.make cap false;
    a.known <- Array.make cap false;
    a.coef <- Array.make cap 0;
    a.off <- Array.make cap 0
  end

let[@inline] push_staged a v =
  if a.n_staged = Array.length a.staged then begin
    let bigger = Array.make (2 * a.n_staged) 0 in
    Array.blit a.staged 0 bigger 0 a.n_staged;
    a.staged <- bigger
  end;
  a.staged.(a.n_staged) <- v;
  a.n_staged <- a.n_staged + 1

(* [may_alias] on two slots of one group. *)
let[@inline] slots_alias a ~lo ~hi k k' =
  (not a.known.(k)) || (not a.known.(k'))
  || affine_alias ~lo ~hi a.coef.(k) a.off.(k) a.coef.(k') a.off.(k')

let c_arcs = Isched_obs.Counters.counter "dfg.arcs"
let c_build_ns = Isched_obs.Counters.counter "dfg.build_ns"

let stage a (p : Program.t) ~src ~dst lat_kind =
  if src = dst then invalid_arg "Dfg.build: self arc";
  if src > dst then
    invalid_arg
      (Printf.sprintf "Dfg.build: backward arc %d -> %d in %s" (src + 1) (dst + 1) p.name);
  push_staged a ((src lsl 36) lor (dst lsl 10) lor lat_kind)

let[@inline] lat_kind kind latency = (kind_code kind lsl 8) lor latency

let check_reg (p : Program.t) r =
  if r < 0 || r >= p.n_regs then invalid_arg "Dfg.build: register out of range"

let build ?(sync_arcs = true) (p : Program.t) =
  let timed = Isched_obs.Counters.enabled () in
  let t0 = if timed then Unix.gettimeofday () else 0. in
  let n = Array.length p.body in
  if n >= 1 lsl 26 then invalid_arg "Dfg.build: body too large for packed arcs";
  let a = Domain.DLS.get arena_key in
  a.n_staged <- 0;
  reserve a n p.n_regs;
  (* Data arcs: single-assignment registers, def before use.  The only
     possible duplicate (src, dst, kind) is a register read twice by one
     instruction — registers are single assignment, so distinct regs
     have distinct defs — and an instruction reads at most three
     operands, so two locals dedup the whole use list without a table.
     The group walk below emits every memory pair exactly once, and
     signals/waits each own distinct instructions. *)
  Array.fill a.def_of 0 p.n_regs (-1);
  Array.iteri
    (fun i ins ->
      match Instr.def ins with
      | Some r ->
        check_reg p r;
        a.def_of.(r) <- i
      | None -> ())
    p.body;
  (* One use callback for the whole body, so no instruction allocates. *)
  let user = ref 0 and r0 = ref (-1) and r1 = ref (-1) in
  let on_use r =
    if r <> !r0 && r <> !r1 then begin
      check_reg p r;
      if !r0 < 0 then r0 := r else r1 := r;
      let d = a.def_of.(r) in
      if d >= 0 && d <> !user then
        stage a p ~src:d ~dst:!user (lat_kind Data (Instr.latency p.body.(d)))
    end
  in
  Array.iteri
    (fun i ins ->
      user := i;
      r0 := -1;
      r1 := -1;
      Instr.iter_uses ins on_use)
    p.body;
  (* Memory slots, grouped by base name.  A scalar is its own base with
     the constant subscript 0 (see [mem_ref_of]). *)
  let n_slots = ref 0 and n_groups = ref 0 in
  let add_slot i base ~write ~known ~c ~o =
    let k = !n_slots in
    n_slots := k + 1;
    a.slot_of.(i) <- k;
    a.instr.(k) <- i;
    a.next.(k) <- -1;
    a.write.(k) <- write;
    a.known.(k) <- known;
    a.coef.(k) <- c;
    a.off.(k) <- o;
    (* Append to the group of [base], or start one. *)
    let h = ref 0 in
    while !h < !n_groups && not (String.equal a.bases.(!h) base) do
      incr h
    done;
    if !h = !n_groups then begin
      a.heads.(!h) <- k;
      a.bases.(!h) <- base;
      incr n_groups;
      a.head.(k) <- k;
      a.tail.(k) <- k
    end
    else begin
      let g = a.heads.(!h) in
      a.head.(k) <- g;
      a.next.(a.tail.(g)) <- k;
      a.tail.(g) <- k
    end
  in
  for i = 0 to n - 1 do
    a.slot_of.(i) <- -1;
    match p.body.(i) with
    | Load _ | Store _ -> (
      match p.mem.(i) with
      | None -> ()
      | Some { base; affine = Some (c, o) } ->
        add_slot i base ~write:(is_write p i) ~known:true ~c ~o
      | Some { base; affine = None } -> add_slot i base ~write:(is_write p i) ~known:false ~c:0 ~o:0)
    | Load_scalar { name; _ } -> add_slot i name ~write:false ~known:true ~c:0 ~o:0
    | Store_scalar { name; _ } -> add_slot i name ~write:true ~known:true ~c:0 ~o:0
    | Bin _ | Select _ | Send _ | Wait _ -> ()
  done;
  let lo, hi = iteration_range p in
  (* Memory arcs: ordered pairs of may-aliasing ops, at least one write,
     in (i asc, j asc) order. *)
  let mem = lat_kind Mem 1 in
  for k = 0 to !n_slots - 1 do
    let k' = ref a.next.(k) in
    while !k' >= 0 do
      let j = !k' in
      if (a.write.(k) || a.write.(j)) && slots_alias a ~lo ~hi k j then
        stage a p ~src:a.instr.(k) ~dst:a.instr.(j) mem;
      k' := a.next.(j)
    done
  done;
  (* Sync-condition arcs. *)
  if sync_arcs then begin
    Array.iter
      (fun (s : Program.signal_info) ->
        stage a p ~src:s.src_instr ~dst:s.send_instr
          (lat_kind Sync_src (Instr.latency p.body.(s.src_instr))))
      p.signals;
    let snk_arc = lat_kind Sync_snk 1 in
    Array.iter
      (fun (w : Program.wait_info) ->
        stage a p ~src:w.wait_instr ~dst:w.snk_instr snk_arc;
        (* The sink statement's other aliasing memory ops, ascending,
           found in the sink's group instead of a scan of the body
           range. *)
        let ks = a.slot_of.(w.snk_instr) in
        if ks >= 0 then begin
          let k = ref a.head.(ks) in
          while !k >= 0 do
            let m = a.instr.(!k) in
            if m > w.wait_instr && m < w.snk_instr && p.stmt_of.(m) = w.snk_stmt
               && slots_alias a ~lo ~hi ks !k
            then stage a p ~src:w.wait_instr ~dst:m snk_arc;
            k := a.next.(!k)
          done
        end)
      p.waits
  end;
  (* Freeze the staged arcs into the two CSR arenas.  Rows are filled
     backward (cursor starts at row end) so that reading a row forward
     yields reverse insertion order — exactly the cons order of the old
     list representation. *)
  let n_arcs = a.n_staged in
  let succ_off = Array.make (n + 1) 0 and pred_off = Array.make (n + 1) 0 in
  for k = 0 to n_arcs - 1 do
    let v = a.staged.(k) in
    let src = v lsr 36 and dst = (v lsr 10) land 0x3FFFFFF in
    succ_off.(src + 1) <- succ_off.(src + 1) + 1;
    pred_off.(dst + 1) <- pred_off.(dst + 1) + 1
  done;
  for i = 0 to n - 1 do
    succ_off.(i + 1) <- succ_off.(i + 1) + succ_off.(i);
    pred_off.(i + 1) <- pred_off.(i + 1) + pred_off.(i)
  done;
  let succ_arc = Array.make n_arcs 0 and pred_arc = Array.make n_arcs 0 in
  let cur = a.cur in
  for i = 0 to n - 1 do
    cur.(i) <- succ_off.(i + 1);
    cur.(n + i) <- pred_off.(i + 1)
  done;
  for k = 0 to n_arcs - 1 do
    let v = a.staged.(k) in
    let src = v lsr 36 and dst = (v lsr 10) land 0x3FFFFFF in
    let kind_lat = v land 0x3FF in
    let s = cur.(src) - 1 in
    cur.(src) <- s;
    succ_arc.(s) <- (dst lsl 10) lor kind_lat;
    let d = cur.(n + dst) - 1 in
    cur.(n + dst) <- d;
    pred_arc.(d) <- (src lsl 10) lor kind_lat
  done;
  if timed then begin
    Isched_obs.Counters.add c_arcs n_arcs;
    Isched_obs.Counters.add c_build_ns (int_of_float (1e9 *. (Unix.gettimeofday () -. t0)))
  end;
  { prog = p; n; n_arcs; succ_off; succ_arc; pred_off; pred_arc;
    memo = { lp = None; paths = None; lfd = None; groups = None; order = None; fuc = None } }

(* --- reference builder --- *)

(* The pre-arena list-based construction, kept as a differential
   oracle (only its alias test follows [may_alias]): the property suite
   asserts the CSR builder produces the same arcs in the same per-node
   order on arbitrary generated loops. *)
let build_reference ?(sync_arcs = true) (p : Program.t) =
  let n = Array.length p.body in
  let range = iteration_range p in
  let succs = Array.make n [] and preds = Array.make n [] in
  let seen = Hashtbl.create (4 * n) in
  let add_arc ~src ~dst ~latency ~kind =
    if src = dst then invalid_arg "Dfg.build: self arc";
    if src > dst then
      invalid_arg
        (Printf.sprintf "Dfg.build: backward arc %d -> %d in %s" (src + 1) (dst + 1) p.name);
    let key = (src, dst, kind) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      let a = { src; dst; latency; kind } in
      succs.(src) <- a :: succs.(src);
      preds.(dst) <- a :: preds.(dst)
    end
  in
  let def_of = Array.make p.n_regs (-1) in
  Array.iteri
    (fun i ins -> match Instr.def ins with Some r -> def_of.(r) <- i | None -> ())
    p.body;
  Array.iteri
    (fun i ins ->
      List.iter
        (fun r ->
          let d = def_of.(r) in
          if d >= 0 && d <> i then
            add_arc ~src:d ~dst:i ~latency:(Instr.latency p.body.(d)) ~kind:Data)
        (Instr.uses ins))
    p.body;
  for i = 0 to n - 1 do
    match mem_ref_of p i with
    | None -> ()
    | Some mi ->
      for j = i + 1 to n - 1 do
        match mem_ref_of p j with
        | None -> ()
        | Some mj ->
          if (is_write p i || is_write p j) && may_alias ~range mi mj then
            add_arc ~src:i ~dst:j ~latency:1 ~kind:Mem
      done
  done;
  if sync_arcs then begin
    Array.iter
      (fun (s : Program.signal_info) ->
        add_arc ~src:s.src_instr ~dst:s.send_instr
          ~latency:(Instr.latency p.body.(s.src_instr))
          ~kind:Sync_src)
      p.signals;
    Array.iter
      (fun (w : Program.wait_info) ->
        List.iter
          (fun m -> add_arc ~src:w.wait_instr ~dst:m ~latency:1 ~kind:Sync_snk)
          (protected_of_wait p w))
      p.waits
  end;
  (succs, preds)

(* --- components --- *)

type comp_kind = Sig_graph | Wat_graph | Sigwat_graph | Plain

type component = {
  id : int;
  nodes : int list;
  kind : comp_kind;
  sends : int list;
  waits : int list;
}

let components g =
  let uf = Isched_util.Union_find.create g.n in
  for i = 0 to g.n - 1 do
    iter_succs g i (fun a -> ignore (Isched_util.Union_find.union uf i (arc_node a)))
  done;
  let groups = Isched_util.Union_find.groups uf in
  let comps =
    List.mapi
      (fun id (_, nodes) ->
        let sends =
          List.filter (fun i -> match g.prog.body.(i) with Instr.Send _ -> true | _ -> false) nodes
        in
        let waits =
          List.filter (fun i -> match g.prog.body.(i) with Instr.Wait _ -> true | _ -> false) nodes
        in
        let kind =
          match (sends, waits) with
          | [], [] -> Plain
          | _ :: _, [] -> Sig_graph
          | [], _ :: _ -> Wat_graph
          | _ :: _, _ :: _ -> Sigwat_graph
        in
        { id; nodes; kind; sends; waits })
      groups
  in
  Array.of_list comps

let component_of g comps =
  let owner = Array.make g.n (-1) in
  Array.iter (fun c -> List.iter (fun i -> owner.(i) <- c.id) c.nodes) comps;
  owner

(* --- synchronization paths --- *)

let shortest_path g ~src ~dst =
  if src = dst then Some [ src ]
  else begin
    let parent = Array.make g.n (-2) in
    parent.(src) <- -1;
    let q = Queue.create () in
    Queue.push src q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let u = Queue.pop q in
      let nexts = ref [] in
      iter_succs g u (fun a -> nexts := arc_node a :: !nexts);
      let nexts = List.sort_uniq compare !nexts in
      List.iter
        (fun v ->
          if (not !found) && parent.(v) = -2 then begin
            parent.(v) <- u;
            if v = dst then found := true else Queue.push v q
          end)
        nexts
    done;
    if not !found then None
    else begin
      let rec walk v acc = if v = -1 then acc else walk parent.(v) (v :: acc) in
      Some (walk dst [])
    end
  end

let sync_paths g =
  match g.memo.paths with
  | Some ps -> ps
  | None ->
    let p = g.prog in
    let ps =
      Array.to_list p.waits
      |> List.filter_map (fun (w : Program.wait_info) ->
             let send = p.signals.(w.signal).send_instr in
             match shortest_path g ~src:w.wait_instr ~dst:send with
             | Some nodes ->
               Some { wait_id = w.wait; signal = w.signal; distance = w.distance; nodes }
             | None -> None)
    in
    g.memo.paths <- Some ps;
    ps

(* Sigwat components: paths sharing any node are grouped (they compete
   for the same issue slots and must be placed together), each group
   keyed by its worst member weight n/d * |path| — the LBD cost a
   mis-placement of that member would multiply into.  Machine
   independent, so memoized with the graph; the scheduler only re-sorts
   the group list according to its [order_paths] option. *)
let sync_groups g =
  match g.memo.groups with
  | Some gs -> gs
  | None ->
    let gs =
      match sync_paths g with
      | [] -> []
      | paths ->
        let arr = Array.of_list paths in
        let uf = Isched_util.Union_find.create (Array.length arr) in
        let owner : (int, int) Hashtbl.t = Hashtbl.create 32 in
        Array.iteri
          (fun pi (p : sync_path) ->
            List.iter
              (fun node ->
                match Hashtbl.find_opt owner node with
                | Some qi -> ignore (Isched_util.Union_find.union uf pi qi)
                | None -> Hashtbl.add owner node pi)
              p.nodes)
          arr;
        let n_iters = g.prog.Program.n_iters in
        let weight (p : sync_path) =
          float_of_int n_iters /. float_of_int (max 1 p.distance)
          *. float_of_int (List.length p.nodes)
        in
        Isched_util.Union_find.groups uf
        |> List.map (fun (rep, members) ->
               let paths = List.map (fun m -> arr.(m)) members in
               let gkey = List.fold_left (fun acc p -> Float.max acc (weight p)) 0. paths in
               let gpaths =
                 List.sort
                   (fun a b ->
                     let c = Float.compare (weight b) (weight a) in
                     if c <> 0 then c else Int.compare a.wait_id b.wait_id)
                   paths
               in
               { gkey; gpaths; gorder = rep })
        |> List.sort (fun a b -> Int.compare a.gorder b.gorder)
    in
    g.memo.groups <- Some gs;
    gs

(* --- lexically-forward constraints --- *)

(* For every wait not heading a sync path, the scheduler wants the
   dependence lexically forward: the send placed first, the wait
   strictly after.  The paper assumes the Sig/Wat/Sigwat graphs "do not
   depend on each other", but compiled loops can violate that (e.g. an
   unrolled scalar update yields two pairs whose sends each depend on
   the other pair's wait); forcing both forward would deadlock the
   placement recursion.  An ordering constraint send->wait is therefore
   accepted only when it keeps the combined graph (data-flow arcs plus
   the constraints accepted so far) acyclic; a rejected pair honestly
   stays backward. *)
let lfd_sends g =
  match g.memo.lfd with
  | Some a -> a
  | None ->
    let p = g.prog in
    let lfd = Array.make (max 1 g.n) (-1) in
    let extra = Array.make (max 1 g.n) [] in
    let path_head = Array.make (max 1 g.n) false in
    List.iter (fun (sp : sync_path) -> path_head.(List.hd sp.nodes) <- true) (sync_paths g);
    let seen = Array.make (max 1 g.n) 0 in
    let stamp = ref 0 in
    let reaches src dst =
      (* DFS over DFG arcs + accepted send->wait constraint edges. *)
      incr stamp;
      let s = !stamp in
      let rec go u =
        u = dst
        || seen.(u) <> s
           && begin
                seen.(u) <- s;
                let found = ref false in
                iter_succs g u (fun a -> if not !found then found := go (arc_node a));
                if not !found then found := List.exists go extra.(u);
                !found
              end
      in
      go src
    in
    Array.iter
      (fun (w : Program.wait_info) ->
        if not path_head.(w.wait_instr) then begin
          let send = p.signals.(w.signal).send_instr in
          (* Adding send -> wait creates a cycle iff the wait already
             reaches the send. *)
          if not (reaches w.wait_instr send) then begin
            lfd.(w.wait_instr) <- send;
            extra.(send) <- w.wait_instr :: extra.(send)
          end
        end)
      p.waits;
    g.memo.lfd <- Some lfd;
    lfd

(* --- priorities and orders --- *)

let longest_path_to_exit g =
  match g.memo.lp with
  | Some d -> d
  | None ->
    let dist = Array.make g.n 0 in
    (* Nodes are indexed in a topological order already (all arcs go
       forward), so a reverse sweep suffices. *)
    for i = g.n - 1 downto 0 do
      iter_succs g i (fun a ->
          let d = arc_latency a + dist.(arc_node a) in
          if d > dist.(i) then dist.(i) <- d)
    done;
    g.memo.lp <- Some dist;
    dist

(* Every node, critical path first, ties towards program order: the
   fill order of the schedulers' final phase.  A pure function of the
   graph, so the sort happens once instead of once per machine
   configuration.  Priorities are small non-negative ints, so a
   counting sort on [top - prio] orders them descending, and being
   stable it keeps ties in index order. *)
let priority_order g =
  match g.memo.order with
  | Some o -> o
  | None ->
    let prio = longest_path_to_exit g in
    let top = Array.fold_left max 0 prio in
    (* [start.(b)]: the first slot of bucket [b = top - prio]. *)
    let start = Array.make (top + 2) 0 in
    for i = 0 to g.n - 1 do
      let b = top - prio.(i) + 1 in
      start.(b) <- start.(b) + 1
    done;
    for b = 1 to top + 1 do
      start.(b) <- start.(b) + start.(b - 1)
    done;
    let order = Array.make g.n 0 in
    for i = 0 to g.n - 1 do
      let b = top - prio.(i) in
      order.(start.(b)) <- i;
      start.(b) <- start.(b) + 1
    done;
    g.memo.order <- Some order;
    order

(* Per-node function-unit demand as [Resource.fu_code] ints ([-1] =
   none, else [Fu.index]): precomputed once per graph so the schedulers'
   probe/reserve loops never re-match on the instruction. *)
let fu_codes g =
  match g.memo.fuc with
  | Some a -> a
  | None ->
    let a =
      Array.map
        (fun ins -> match Instr.fu ins with None -> -1 | Some k -> Isched_ir.Fu.index k)
        g.prog.body
    in
    g.memo.fuc <- Some a;
    a

let topo_order g =
  (* All arcs are forward by construction. *)
  Array.init g.n (fun i -> i)

let pp_dot ppf g =
  Format.fprintf ppf "digraph dfg {@.";
  for i = 0 to g.n - 1 do
    let shape =
      match g.prog.body.(i) with
      | Instr.Send _ -> ", shape=triangle"
      | Instr.Wait _ -> ", shape=invtriangle"
      | _ -> ""
    in
    Format.fprintf ppf "  n%d [label=\"%d: %s\"%s];@." i (i + 1)
      (String.escaped (Instr.to_string g.prog.body.(i)))
      shape
  done;
  for i = 0 to g.n - 1 do
    List.iter
      (fun (a : arc) ->
        let style =
          match a.kind with
          | Data -> ""
          | Mem -> " [style=dashed]"
          | Sync_src | Sync_snk -> " [style=dotted, color=red]"
        in
        Format.fprintf ppf "  n%d -> n%d%s;@." a.src a.dst style)
      (succs_list g i)
  done;
  Format.fprintf ppf "}@."


(* Observability shadow: the exported [build] is the traced one. *)
let build ?sync_arcs p = Isched_obs.Span.with_ ~name:"dfg.build" (fun () -> build ?sync_arcs p)
