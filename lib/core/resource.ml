module Machine = Isched_ir.Machine
module Instr = Isched_ir.Instr
module Fu = Isched_ir.Fu
module Counters = Isched_obs.Counters

(* Probe length of each [first_fit] call: how many candidate cycles were
   tested before one fit.  A growing tail here means the saturation
   hints are losing their bite.  Lengths below [hist_size] are tallied
   in the tracker and merged by [flush_probes] once per schedule (one
   observation per probe cost several atomic operations); longer ones
   are rare and observed directly. *)
let d_probes = Counters.dist "resource.first_fit.probes"
let hist_size = 64

(* One int per cycle holds that cycle's whole occupancy: bits 0..7 count
   the issue slots used and the byte lane at [lane k] the busy units of
   kind [k] (six kinds, 56 bits).  {!Machine.validate} caps the issue
   width and every unit count at 255 and nothing commits past a limit,
   so no lane ever carries into its neighbour.  Words at or past [len]
   are kept zero: those cycles are entirely free. *)
let byte = 0xFF
let[@inline] lane k = 8 + (8 * k)

type t = {
  mutable machine : Machine.t;  (* mutable only for [scratch] reuse *)
  mutable words : int array;  (* cycle -> packed occupancy *)
  mutable len : int;  (* 1 + the last cycle any reservation covers *)
  mutable issue_w : int;
  lane_limit : int array;  (* per kind: its unit count, shifted into its lane *)
  dur : int array;  (* per kind: cycles one operation keeps a unit busy *)
  mutable issue_full_below : int;  (* every cycle below has no free issue slot *)
  fu_full_below : int array;  (* per unit kind, every cycle below is saturated *)
  probes : int array;  (* probe length -> count, awaiting [flush_probes] *)
  mutable probes_hi : int;  (* 1 + the longest probe tallied since *)
}

let configure t machine =
  t.machine <- machine;
  t.issue_w <- machine.Machine.issue_width;
  for k = 0 to Fu.count - 1 do
    t.lane_limit.(k) <- machine.Machine.fu_counts.(k) lsl lane k;
    t.dur.(k) <- (if machine.Machine.pipelined then 1 else Fu.latency (Fu.of_index k))
  done

let create machine =
  Machine.validate machine;
  let t =
    {
      machine;
      words = Array.make 64 0;
      len = 0;
      issue_w = 0;
      lane_limit = Array.make Fu.count 0;
      dur = Array.make Fu.count 1;
      issue_full_below = 0;
      fu_full_below = Array.make Fu.count 0;
      probes = Array.make hist_size 0;
      probes_hi = 0;
    }
  in
  configure t machine;
  t

let flush_probes t =
  for v = 0 to t.probes_hi - 1 do
    let n = t.probes.(v) in
    if n > 0 then begin
      Counters.observe_n d_probes v n;
      t.probes.(v) <- 0
    end
  done;
  t.probes_hi <- 0

(* One pooled tracker per domain, reset instead of reallocated: a
   scaled bench run creates thousands of short-lived trackers per
   second.  Resetting clears only the words the last schedule used. *)
let scratch_key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let scratch machine =
  let slot = Domain.DLS.get scratch_key in
  match !slot with
  | None ->
    let t = create machine in
    slot := Some t;
    t
  | Some t ->
    Machine.validate machine;
    (* Probes of a construction that raised before its own flush. *)
    flush_probes t;
    Array.fill t.words 0 t.len 0;
    t.len <- 0;
    t.issue_full_below <- 0;
    Array.fill t.fu_full_below 0 Fu.count 0;
    configure t machine;
    t

let[@inline] get t c = if c < t.len then Array.unsafe_get t.words c else 0

let fu_code i = match Instr.fu i with None -> -1 | Some kind -> Fu.index kind

(* Kind [k]'s lane has a free unit on every cycle an operation issued
   at [cycle] would occupy. *)
let[@inline] lane_free t ~cycle k =
  let mask = byte lsl lane k and lim = Array.unsafe_get t.lane_limit k in
  let last = cycle + Array.unsafe_get t.dur k - 1 in
  let c = ref cycle in
  while !c <= last && get t !c land mask < lim do
    incr c
  done;
  !c > last

let[@inline] fits_at t ~cycle k =
  get t cycle land byte < t.issue_w && (k < 0 || lane_free t ~cycle k)

let fits_code t ~cycle k = cycle >= 0 && fits_at t ~cycle k
let fits t ~cycle i = fits_code t ~cycle (fu_code i)

let reject_reason t ~cycle i =
  (* Diagnostic twin of [fits]: [None] iff [fits] is true, otherwise the
     first constraint refusing the cycle, named.  Pure query — used by
     provenance recording, never by placement itself. *)
  if cycle < 0 then Some "negative cycle"
  else if get t cycle land byte >= t.issue_w then
    Some (Printf.sprintf "issue width full (%d/%d)" (get t cycle land byte) t.issue_w)
  else
    match Instr.fu i with
    | None -> None
    | Some kind ->
      let k = Fu.index kind in
      let avail = Machine.fu_count t.machine kind in
      let busy_at c = (get t c lsr lane k) land byte in
      let rec first_busy c =
        if c >= cycle + t.dur.(k) then None
        else if busy_at c >= avail then
          Some (Printf.sprintf "%s busy (%d/%d) at cycle %d" (Fu.name kind) (busy_at c) avail c)
        else first_busy (c + 1)
      in
      first_busy cycle

(* Make cycles [0, hi) addressable; fresh words are zero. *)
let cover t hi =
  if hi > Array.length t.words then begin
    let bigger = Array.make (max hi (2 * Array.length t.words)) 0 in
    Array.blit t.words 0 bigger 0 t.len;
    t.words <- bigger
  end;
  if hi > t.len then t.len <- hi

let commit t ~cycle k =
  if k < 0 then begin
    cover t (cycle + 1);
    t.words.(cycle) <- t.words.(cycle) + 1
  end
  else begin
    let d = t.dur.(k) and one = 1 lsl lane k in
    cover t (cycle + d);
    let w = t.words in
    w.(cycle) <- w.(cycle) + 1 + one;
    for c = cycle + 1 to cycle + d - 1 do
      w.(c) <- w.(c) + one
    done;
    let mask = byte lsl lane k and lim = t.lane_limit.(k) in
    let b = ref t.fu_full_below.(k) in
    while get t !b land mask >= lim do
      incr b
    done;
    t.fu_full_below.(k) <- !b
  end;
  let b = ref t.issue_full_below in
  while get t !b land byte >= t.issue_w do
    incr b
  done;
  t.issue_full_below <- !b

let unit_name k = if k < 0 then "sync op" else Fu.name (Fu.of_index k)

let reserve_code t ~cycle k =
  if not (fits_code t ~cycle k) then
    invalid_arg
      (Printf.sprintf "Resource.reserve: %s does not fit at cycle %d" (unit_name k) cycle);
  commit t ~cycle k;
  fits_at t ~cycle k

let reserve t ~cycle i = ignore (reserve_code t ~cycle (fu_code i))

let first_fit_code t ~from k =
  (* Start past the prefix known to be saturated for this demand (the
     hints are lower bounds, so this never skips a fit), and stop at the
     horizon: every cycle from [len] on is entirely free, so failing
     there means no cycle ever fits. *)
  let start = max 0 (max from t.issue_full_below) in
  let start = if k < 0 then start else max start t.fu_full_below.(k) in
  let horizon = max start t.len in
  let c = ref start in
  while !c <= horizon && not (fits_at t ~cycle:!c k) do
    incr c
  done;
  let probes = !c - start + 1 in
  if probes < hist_size then begin
    t.probes.(probes) <- t.probes.(probes) + 1;
    if probes >= t.probes_hi then t.probes_hi <- probes + 1
  end
  else Counters.observe d_probes probes;
  if !c > horizon then
    invalid_arg
      (Printf.sprintf "Resource.first_fit: %s cannot be scheduled on %s at any cycle"
         (unit_name k) (Machine.name t.machine));
  !c

let first_fit t ~from i = first_fit_code t ~from (fu_code i)

let place_code t ~from k =
  let c = first_fit_code t ~from k in
  commit t ~cycle:c k;
  c
