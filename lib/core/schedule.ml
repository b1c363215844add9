module Program = Isched_ir.Program
module Machine = Isched_ir.Machine
module Instr = Isched_ir.Instr
module Fu = Isched_ir.Fu
module Dfg = Isched_dfg.Dfg

type t = {
  prog : Program.t;
  machine : Machine.t;
  cycle_of : int array;
  rows : int array array;
  length : int;
}

let of_cycles prog machine cycle_of =
  let n = Array.length prog.Program.body in
  if Array.length cycle_of <> n then invalid_arg "Schedule.of_cycles: length mismatch";
  let last = ref (-1) in
  for i = 0 to n - 1 do
    let c = cycle_of.(i) in
    if c < 0 then
      invalid_arg (Printf.sprintf "Schedule.of_cycles: instruction %d unscheduled" (i + 1));
    if c > !last then last := c
  done;
  let length = !last + 1 in
  (* Counting sort into exactly-sized rows, ascending within each row;
     no intermediate lists.  [cur.(c)] counts row [c], then serves as
     its fill cursor. *)
  let cur = Array.make length 0 in
  for i = 0 to n - 1 do
    cur.(cycle_of.(i)) <- cur.(cycle_of.(i)) + 1
  done;
  let rows = Array.make length [||] in
  for c = 0 to length - 1 do
    rows.(c) <- Array.make cur.(c) 0;
    cur.(c) <- 0
  done;
  for i = 0 to n - 1 do
    let c = cycle_of.(i) in
    rows.(c).(cur.(c)) <- i;
    cur.(c) <- cur.(c) + 1
  done;
  { prog; machine; cycle_of; rows; length }

let position t i = t.cycle_of.(i) + 1

(* Unit occupancy over the cycles [lo, hi] of the operations [issue]
   feeds to its callback as (issue cycle, instruction): the first unit
   kind and cycle, in feeding order, where [m] runs out of units. *)
let overload m ~lo ~hi issue =
  let used = Array.make_matrix Fu.count (hi - lo + 1) 0 in
  let first = ref None in
  issue (fun c0 ins ->
      match Instr.fu ins with
      | None -> ()
      | Some kind ->
        let k = Fu.index kind in
        let d = if m.Machine.pipelined then 1 else Fu.latency kind in
        for c = max lo c0 to min hi (c0 + d - 1) do
          used.(k).(c - lo) <- used.(k).(c - lo) + 1;
          if !first = None && used.(k).(c - lo) > Machine.fu_count m kind then
            first := Some (kind, c)
        done);
  !first

let validate t (g : Dfg.t) =
  let m = t.machine in
  let problem = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt in
  (* Arcs. *)
  for i = 0 to g.Dfg.n - 1 do
    Dfg.iter_succs g i (fun a ->
        let dst = Dfg.arc_node a in
        let lat = Dfg.arc_latency a in
        let gap = t.cycle_of.(dst) - t.cycle_of.(i) in
        if gap < lat then fail "arc %d -> %d needs %d cycles, got %d" (i + 1) (dst + 1) lat gap)
  done;
  (* Issue width. *)
  Array.iteri
    (fun c row ->
      if Array.length row > m.Machine.issue_width then
        fail "row %d issues %d > width %d" c (Array.length row) m.Machine.issue_width)
    t.rows;
  (* Function units: occupancy counting per cycle. *)
  (match
     overload m ~lo:0 ~hi:(t.length + 7) (fun f ->
         Array.iteri (fun i ins -> f t.cycle_of.(i) ins) t.prog.Program.body)
   with
  | Some (kind, c) -> fail "%s oversubscribed at cycle %d" (Fu.name kind) c
  | None -> ());
  match !problem with None -> Ok () | Some msg -> Error msg

(* The longest a unit stays busy on [m]: how far apart two operations
   can be and still compete for one unit. *)
let busy_span m =
  if m.Machine.pipelined then 1 else List.fold_left (fun d k -> max d (Fu.latency k)) 1 Fu.all

(* Removing empty rows earliest first, retrying from the top after every
   removal, equals one left-to-right pass: a removal only shrinks
   distances, and every operation covering a cycle then covers its
   image, so a row that cannot go never becomes removable later.  From
   a legal schedule, each candidate is checked locally against the rows
   already removed: every arc spanning it must keep a cycle of slack,
   and no unit may be oversubscribed where the operations issued before
   it meet those issued after it.  [shift.(r)] counts the rows removed
   below row [r]. *)
let compact t (g : Dfg.t) =
  let m = t.machine and len = t.length in
  if Array.for_all (fun row -> Array.length row > 0) t.rows || validate t g <> Ok () then t
  else begin
    let span = busy_span m in
    let shift = Array.make (len + 1) 0 in
    (* An arc from row [r] with slack [sl] allows [sl] removals between
       its ends: it blocks every row before its end once [shift] reaches
       its budget [sl + shift.(r)].  [ends.(b)] is the furthest end of
       the arcs with budget [b]; [blocked] the furthest end of the arcs
       whose budget is spent. *)
    let ends = Array.make (len + 1) (-1) in
    let blocked = ref (-1) in
    let units_fit e =
      (* The cycles [base, base + span - 2] the removal brings together,
         [base] being row [e]'s cycle now: the operations issued before
         it that are still busy there, and those after it, moved up. *)
      let base = e - shift.(e) in
      overload m ~lo:base ~hi:(base + span - 2) (fun f ->
          let issue c row = Array.iter (fun i -> f c t.prog.Program.body.(i)) row in
          let r = ref (e - 1) in
          while !r >= 0 && !r - shift.(!r) > base - span do
            issue (!r - shift.(!r)) t.rows.(!r);
            decr r
          done;
          for r = e + 1 to min (len - 1) (e + span - 1) do
            issue (r - shift.(e) - 1) t.rows.(r)
          done)
      = None
    in
    for e = 0 to len - 1 do
      shift.(e + 1) <- shift.(e);
      if Array.length t.rows.(e) > 0 then
        Array.iter
          (fun u ->
            Dfg.iter_succs g u (fun a ->
                let dst_row = t.cycle_of.(Dfg.arc_node a) in
                let budget = dst_row - e - Dfg.arc_latency a + shift.(e) in
                if budget = shift.(e) then blocked := max !blocked dst_row
                else ends.(budget) <- max ends.(budget) dst_row))
          t.rows.(e)
      else if !blocked < e && (span = 1 || units_fit e) then begin
        shift.(e + 1) <- shift.(e) + 1;
        blocked := max !blocked ends.(shift.(e + 1))
      end
    done;
    if shift.(len) = 0 then t
    else of_cycles t.prog m (Array.map (fun c -> c - shift.(c)) t.cycle_of)
  end

let pp ppf t =
  Array.iteri
    (fun c row ->
      let cells =
        Array.to_list (Array.map (fun i -> string_of_int (i + 1)) row)
      in
      let width = t.machine.Machine.issue_width in
      let padded = cells @ List.init (max 0 (width - List.length cells)) (fun _ -> "-") in
      Format.fprintf ppf "%3d: (%s)@." (c + 1) (String.concat ", " padded))
    t.rows

let pp_wide ppf t =
  Array.iteri
    (fun c row ->
      let cells =
        Array.to_list
          (Array.map
             (fun i ->
               Format.asprintf "%a"
                 (Instr.pp_full
                    ~signal_name:(Program.signal_label t.prog)
                    ~wait_name:(Program.wait_label t.prog))
                 t.prog.Program.body.(i))
             row)
      in
      Format.fprintf ppf "%3d: %s@." (c + 1)
        (if cells = [] then "(empty)" else String.concat "  ||  " cells))
    t.rows

let to_string t = Format.asprintf "%a" pp t
