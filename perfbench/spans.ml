(* The traced run's span log.  Spans are recorded around calls into the
   libraries' public functions, kept in growable arrays and reduced at
   the end: a span has a name, start, end, parent and item id, plus the
   minor-heap words allocated while it was open.  Recording is
   single-domain (the traced runs call the layers from one domain). *)

let enabled = ref false

type log = {
  mutable n : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable item : int array;
  mutable minor : float array;
}

let fresh () =
  let cap = 1 lsl 14 in
  {
    n = 0;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    item = Array.make cap 0;
    minor = Array.make cap 0.;
  }

let log = ref (fresh ())
let names : (string, int) Hashtbl.t = Hashtbl.create 64
let name_list = ref [||]
let stack = ref []
let current_item = ref 0

let reset () =
  log := fresh ();
  stack := [];
  current_item := 0

let name_id s =
  match Hashtbl.find_opt names s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length names in
    Hashtbl.add names s i;
    name_list := Array.append !name_list [| s |];
    i

let grow l =
  let cap = 2 * Array.length l.name in
  let g a z = Array.append a (Array.make (cap - Array.length a) z) in
  l.name <- g l.name 0;
  l.start <- g l.start 0;
  l.stop <- g l.stop 0;
  l.parent <- g l.parent 0;
  l.item <- g l.item 0;
  l.minor <- g l.minor 0.

let set_item i = current_item := i

(* [span name f] — [f ()], recorded as a span when tracing is on. *)
let span name f =
  if not !enabled then f ()
  else begin
    let l = !log in
    if l.n = Array.length l.name then grow l;
    let i = l.n in
    l.n <- i + 1;
    l.name.(i) <- name_id name;
    l.parent.(i) <- (match !stack with p :: _ -> p | [] -> -1);
    l.item.(i) <- !current_item;
    stack := i :: !stack;
    let w0 = Gc.minor_words () in
    l.start.(i) <- Common.now_ns ();
    let close () =
      l.stop.(i) <- Common.now_ns ();
      l.minor.(i) <- Gc.minor_words () -. w0;
      stack := List.tl !stack
    in
    match f () with
    | r ->
      close ();
      r
    | exception e ->
      close ();
      raise e
  end

type agg = { calls : int; total_ns : int; self_ns : int; self_minor : float }

(* Per-name totals; self time (and self allocation) is a span's own
   interval minus the part its child spans cover. *)
let aggregate () =
  let l = !log in
  let child_ns = Array.make l.n 0 and child_minor = Array.make l.n 0. in
  for i = 0 to l.n - 1 do
    let p = l.parent.(i) in
    if p >= 0 then begin
      child_ns.(p) <- child_ns.(p) + (l.stop.(i) - l.start.(i));
      child_minor.(p) <- child_minor.(p) +. l.minor.(i)
    end
  done;
  let tbl = Hashtbl.create 64 in
  for i = 0 to l.n - 1 do
    let nm = !name_list.(l.name.(i)) in
    let a =
      Option.value (Hashtbl.find_opt tbl nm)
        ~default:{ calls = 0; total_ns = 0; self_ns = 0; self_minor = 0. }
    in
    let d = l.stop.(i) - l.start.(i) in
    Hashtbl.replace tbl nm
      {
        calls = a.calls + 1;
        total_ns = a.total_ns + d;
        self_ns = a.self_ns + d - child_ns.(i);
        self_minor = a.self_minor +. l.minor.(i) -. child_minor.(i);
      }
  done;
  tbl

(* Sum of the top-level spans' durations: the part of the traced wall
   time that layer calls cover. *)
let covered_ns () =
  let l = !log in
  let s = ref 0 in
  for i = 0 to l.n - 1 do
    if l.parent.(i) < 0 then s := !s + (l.stop.(i) - l.start.(i))
  done;
  !s

let count () = !log.n

(* [write path] — the span log as tab-separated lines: name, start and
   end (ns, monotonic clock), parent index (-1 at top level), item id,
   minor words allocated. *)
let write path =
  let l = !log in
  let oc = open_out path in
  output_string oc "name\tstart_ns\tend_ns\tparent\titem\tminor_words\n";
  for i = 0 to l.n - 1 do
    Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\t%.0f\n" !name_list.(l.name.(i)) l.start.(i) l.stop.(i)
      l.parent.(i) l.item.(i) l.minor.(i)
  done;
  close_out oc
