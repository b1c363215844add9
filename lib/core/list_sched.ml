module Machine = Isched_ir.Machine
module Fu = Isched_ir.Fu
module Dfg = Isched_dfg.Dfg
module Span = Isched_obs.Span
module Counters = Isched_obs.Counters
module Provenance = Isched_obs.Provenance

let c_runs = Counters.counter "sched.list.runs"
let d_sync_span = Counters.dist "sched.list.sync_span"

(* Ready nodes live in one bitset per unit class, indexed by rank — the
   node's position in the (priority desc, index asc) order — so the
   lowest set bit of a class is its best candidate.  Class 0 holds the
   sync operations (no unit), class [k + 1] the nodes needing unit kind
   [k].  Words carry 62 bits, so every isolated bit is a positive int
   and [ctz] can look it up by its residue mod 67 (2 has order 66 modulo
   67, so the residues of 2^0 .. 2^61 are distinct). *)
let n_classes = Fu.count + 1
let word_bits = 62
let none = max_int

let ctz_table =
  let t = Array.make 67 0 in
  for j = 0 to word_bits - 1 do
    t.((1 lsl j) mod 67) <- j
  done;
  t

let[@inline] ctz x = Array.unsafe_get ctz_table ((x land -x) mod 67)

(* Per-domain scratch, reused across runs: a scaled bench run schedules
   thousands of small graphs per second.  Only [cycle_of] escapes into
   the returned schedule and stays freshly allocated.  [head]/[link]
   form the calendar queue: [head.(c)] is 1 + the first node becoming
   ready exactly at cycle [c] (0 = empty), [link.(i)] chains to the
   next node of the same bucket; each node enters it exactly once.
   [head_hwm] is the highest cycle slot dirtied by the previous run —
   the prefix re-zeroed on acquire.  [set] holds the class bitsets,
   [nw] words each for the current run. *)
type scratch = {
  mutable indeg : int array;
  mutable est : int array;
  mutable link : int array;
  mutable rank : int array;
  mutable head : int array;
  mutable head_hwm : int;
  mutable set : int array;
  mutable nw : int;
  cnt : int array;  (* per class: ready nodes *)
  nxt : int array;  (* per class: this cycle's next candidate rank, or [none] *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        indeg = Array.make 64 0;
        est = Array.make 64 0;
        link = Array.make 64 0;
        rank = Array.make 64 0;
        head = Array.make 64 0;
        head_hwm = 0;
        set = Array.make (n_classes * 2) 0;
        nw = 0;
        cnt = Array.make n_classes 0;
        nxt = Array.make n_classes none;
      })

let acquire_scratch n =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.indeg < n then begin
    let cap = max n (2 * Array.length s.indeg) in
    s.indeg <- Array.make cap 0;
    s.est <- Array.make cap 0;
    s.link <- Array.make cap 0;
    s.rank <- Array.make cap 0
  end;
  let nw = (n + word_bits - 1) / word_bits in
  if n_classes * nw > Array.length s.set then s.set <- Array.make (n_classes * nw) 0
  else Array.fill s.set 0 (n_classes * nw) 0;
  s.nw <- nw;
  Array.fill s.cnt 0 n_classes 0;
  Array.fill s.head 0 (min s.head_hwm (Array.length s.head)) 0;
  s.head_hwm <- 0;
  s

let push_future s c i =
  if c >= Array.length s.head then begin
    let cap = max (c + 1) (2 * Array.length s.head) in
    let bigger = Array.make cap 0 in
    Array.blit s.head 0 bigger 0 (Array.length s.head);
    s.head <- bigger
  end;
  if c + 1 > s.head_hwm then s.head_hwm <- c + 1;
  s.link.(i) <- s.head.(c);
  s.head.(c) <- i + 1

(* The lowest ready rank [>= r] of class [k], or [none]. *)
let next_rank s k r =
  let base = k * s.nw in
  let w = ref (r / word_bits) in
  let x = ref (if !w < s.nw then s.set.(base + !w) land (-1 lsl (r mod word_bits)) else 0) in
  while !x = 0 && !w < s.nw - 1 do
    incr w;
    x := s.set.(base + !w)
  done;
  if !x = 0 then none else (!w * word_bits) + ctz !x

let flip s k r =
  let j = (k * s.nw) + (r / word_bits) in
  s.set.(j) <- s.set.(j) lxor (1 lsl (r mod word_bits))

let run_inner ?(tag = "list") ?priority ?release (g : Dfg.t) machine =
  let n = g.Dfg.n in
  let prio, order =
    match priority with
    | None -> (Dfg.longest_path_to_exit g, Dfg.priority_order g)
    | Some p ->
      if Array.length p <> n then invalid_arg "List_sched.run: priority length mismatch";
      (* Stable, so ties keep index order. *)
      let order = Array.init n Fun.id in
      Array.stable_sort (fun a b -> Int.compare p.(b) p.(a)) order;
      (p, order)
  in
  (match release with
  | Some r when Array.length r <> n -> invalid_arg "List_sched.run: release length mismatch"
  | _ -> ());
  let res = Resource.scratch machine in
  let fuc = Dfg.fu_codes g in
  let succ_off = g.Dfg.succ_off and succ_arc = g.Dfg.succ_arc in
  let node_shift = Dfg.arc_node_shift and latency_mask = Dfg.arc_latency_mask in
  let cycle_of = Array.make n (-1) in
  let s = acquire_scratch n in
  let indeg = s.indeg and est = s.est and rank = s.rank and cnt = s.cnt and nxt = s.nxt in
  for r = 0 to n - 1 do
    rank.(order.(r)) <- r
  done;
  for i = 0 to n - 1 do
    indeg.(i) <- g.Dfg.pred_off.(i + 1) - g.Dfg.pred_off.(i);
    est.(i) <- (match release with Some r -> max 0 r.(i) | None -> 0)
  done;
  (* Provenance bookkeeping, all gated on one atomic read per run so the
     disabled path touches none of it (pinned byte-identical by the
     property suite). *)
  let prov = Provenance.enabled () in
  let bind : Provenance.binding option array =
    if prov then
      Array.init n (fun i ->
          if est.(i) > 0 then
            Some { Provenance.pred = -1; latency = est.(i); arc = "release" }
          else None)
    else [||]
  in
  let rej : Provenance.rejection list array = if prov then Array.make n [] else [||] in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then push_future s est.(i) i
  done;
  let n_ready = ref 0 in
  let scheduled = ref 0 in
  let cycle = ref 0 in
  while !scheduled < n do
    let c = !cycle in
    let bucket = ref (if c < Array.length s.head then s.head.(c) else 0) in
    while !bucket <> 0 do
      let i = !bucket - 1 in
      let k = fuc.(i) + 1 in
      flip s k rank.(i);
      cnt.(k) <- cnt.(k) + 1;
      incr n_ready;
      bucket := s.link.(i)
    done;
    (* Exhaustive list scheduling walks every ready node in rank order
       and places each that fits.  Whether a node fits depends only on
       its class, and occupancy only grows within a cycle: once a class
       stops fitting it stays out until the next cycle.  So the fast
       path visits only the classes that fit — each visit places — and
       stops when the issue slots run out (no sync operation, class 0,
       fits any more).  Provenance owes every
       refused node a rejection record, so it visits them all. *)
    for k = 0 to n_classes - 1 do
      nxt.(k) <-
        (if cnt.(k) = 0 || not (prov || Resource.fits_code res ~cycle:c (k - 1)) then none
         else next_rank s k 0)
    done;
    let go = ref (prov || Resource.fits_code res ~cycle:c (-1)) in
    while !go do
      let k = ref 0 in
      for k' = 1 to n_classes - 1 do
        if nxt.(k') < nxt.(!k) then k := k'
      done;
      let k = !k in
      let r = nxt.(k) in
      if r = none then go := false
      else begin
        let i = order.(r) in
        if prov && not (Resource.fits_code res ~cycle:c (k - 1)) then begin
          let ins = g.Dfg.prog.Isched_ir.Program.body.(i) in
          let reason =
            match Resource.reject_reason res ~cycle:c ins with Some r -> r | None -> "no fit"
          in
          rej.(i) <- { Provenance.at_cycle = c; reason } :: rej.(i);
          nxt.(k) <- next_rank s k (r + 1)
        end
        else begin
          let again = Resource.reserve_code res ~cycle:c (k - 1) in
          flip s k r;
          cnt.(k) <- cnt.(k) - 1;
          cycle_of.(i) <- c;
          incr scheduled;
          if prov then
            Provenance.record ~scheduler:tag ~prog:g.Dfg.prog.Isched_ir.Program.name ~instr:i
              ~cycle:c ~ready:est.(i) ~candidates:!n_ready ~priority:prio.(i)
              ~rejections:(List.rev rej.(i)) ?binding:bind.(i) ();
          decr n_ready;
          (* Successor arcs decoded inline from the CSR arena. *)
          for x = succ_off.(i) to succ_off.(i + 1) - 1 do
            let a = succ_arc.(x) in
            let dst = a lsr node_shift and lat = a land latency_mask in
            indeg.(dst) <- indeg.(dst) - 1;
            let ready_at = c + lat in
            if prov && ready_at >= est.(dst) then
              bind.(dst) <-
                Some
                  { Provenance.pred = i;
                    latency = lat;
                    arc = Dfg.arc_kind_name (Dfg.arc_kind a) };
            if ready_at > est.(dst) then est.(dst) <- ready_at;
            if indeg.(dst) = 0 then push_future s (max est.(dst) (c + 1)) dst
          done;
          if prov || (again && cnt.(k) > 0) then nxt.(k) <- next_rank s k (r + 1)
          else if not (again || Resource.fits_code res ~cycle:c (-1)) then go := false
          else nxt.(k) <- none
        end
      end
    done;
    incr cycle
  done;
  Schedule.of_cycles g.Dfg.prog machine cycle_of

let run ?tag ?priority ?release (g : Dfg.t) machine =
  Counters.incr c_runs;
  let s = Span.with_ ~name:"sched.list" (fun () -> run_inner ?tag ?priority ?release g machine) in
  Lbd_model.observe_sync_spans d_sync_span s;
  s
