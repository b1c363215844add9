(* Clock, statistics, host fingerprint and the result line shared by
   every workload. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_since t0)

(* Nearest-rank quantile of an unsorted sample; [q] in [0, 1]. *)
let quantile q xs =
  match Array.length xs with
  | 0 -> 0.
  | n ->
    let a = Array.copy xs in
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = quantile 0.5 xs

(* The time metrics of a run are the lower quartile of its passes (or
   blocks): a pass slowed by other guests on the host lands in the upper
   half and does not move it, while a regression slows every pass. *)
let lower_quartile xs = quantile 0.25 xs

(* Median cost of [reps] runs of [setup], which returns its result and
   its cost in seconds; each result but the last is handed to
   [teardown] before the next run.  Set-up is measured this way so that
   work moved into it shows. *)
let median_setup ~reps ?(teardown = ignore) setup =
  let costs = Array.make reps 0. in
  let last = ref None in
  for i = 0 to reps - 1 do
    Option.iter teardown !last;
    let r, c = setup () in
    last := Some r;
    costs.(i) <- c
  done;
  (Option.get !last, median costs)

(* --- CPU time ---

   On a shared virtual machine the wall clock also counts the time the
   hypervisor runs other guests (steal time); CPU time does not. *)

(* User + system seconds of this process, all domains. *)
let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Run time of every thread of process [pid], seconds, from
   /proc/PID/task/TID/schedstat (nanosecond resolution). *)
let cpu_of_pid pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0.
  | tids ->
    Array.fold_left
      (fun acc tid ->
        match open_in (Printf.sprintf "%s/%s/schedstat" dir tid) with
        | exception Sys_error _ -> acc
        | ic ->
          let ns = try Scanf.sscanf (input_line ic) "%d" Fun.id with _ -> 0 in
          close_in ic;
          acc +. (float_of_int ns /. 1e9))
      0. tids

(* Seconds the hypervisor has run other guests while this machine's
   vCPUs were runnable (steal time, all vCPUs), from /proc/stat, whose
   counters are in 1/100 s. *)
let steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    (try Scanf.sscanf line "cpu %_d %_d %_d %_d %_d %_d %_d %d" (fun t -> float_of_int t /. 100.)
     with _ -> 0.)

(* --- host speed ---

   The virtual machines this runs on share their hosts, and the speed
   of a vCPU changes for minutes at a time as other guests come and go:
   runs a few minutes apart measured the same ablations-s1 pass at 0.24
   and 0.34 CPU seconds, and the fixed calibration loop below at 590 and
   350 iterations/us.  Every pass of a run is slower then.  So a run
   also times a fixed reference computation between its passes, twice
   for every second of the run, and scales its time metrics to a host
   on which the reference takes [nominal_reference_s].  A set-up
   that can be repeated is timed beside each reference timing, so that
   its samples too are spread over the run; timed only at the start of
   the run, its median moved by 30% between sets of runs.  The
   reference uses the standard library alone (integer arithmetic, then
   hashing, list sorting and a balanced-map build over a few MB,
   allocating as the scheduler does) under fixed GC settings, so no
   change to the code under test moves it.  One timing varies by a
   fifth from the next; the lower quartile of a run's timings is
   steady. *)

let nominal_reference_s = 0.045
let probe_interval_ns = 500_000_000

module Int_map = Map.Make (Int)

let reference () =
  let x = ref 1 in
  for i = 1 to 4_000_000 do
    x := (!x * 1103515245) + 12345 + (i land 0xFFFF)
  done;
  let h = Hashtbl.create 1024 in
  for i = 1 to 25_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    Hashtbl.replace h (!x land 0x3FFFF) (i, !x)
  done;
  let l = Hashtbl.fold (fun k (i, v) acc -> (v, k, i) :: acc) h [] in
  let l = List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) l in
  let m = List.fold_left (fun m (v, k, _) -> Int_map.add k v m) Int_map.empty l in
  ignore (Sys.opaque_identity (Int_map.cardinal m))

let reference_times = ref []
let setup_times = ref []
let last_probe = ref None

(* Time the reference once for every [probe_interval_ns] since the last
   probe (once on the first call), each time on a compacted heap, and
   [setup] as often, under the program's own GC settings. *)
let probe_host ?setup () =
  let due =
    match !last_probe with None -> 1 | Some t -> (now_ns () - t) / probe_interval_ns
  in
  if due > 0 then begin
    let saved = Gc.get () in
    Gc.set { saved with Gc.minor_heap_size = 262_144; space_overhead = 120 };
    for _ = 1 to due do
      Gc.compact ();
      reference_times := snd (time reference) :: !reference_times
    done;
    Gc.set saved;
    Option.iter
      (fun f -> for _ = 1 to due do setup_times := snd (time f) :: !setup_times done)
      setup;
    last_probe := Some (now_ns ())
  end

(* The factor that scales a time measured in this run to the nominal
   host; the raw figures stay on the human-readable lines. *)
let host_scale () =
  let r = lower_quartile (Array.of_list !reference_times) in
  Printf.printf "host speed: reference %.2f ms (lower quartile of %d timings); times scaled by %.4f\n%!"
    (r *. 1e3) (List.length !reference_times) (nominal_reference_s /. r);
  nominal_reference_s /. r

(* --- process memory --- *)

let vm_hwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else go ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) go

let peak_rss_mb ?(pid = "self") () = float_of_int (vm_hwm_kb pid) /. 1024.

(* --- host fingerprint --- *)

(* A fixed integer loop; its score (iterations per microsecond) tells
   hosts apart when the core count and compiler agree. *)
let calibration_score () =
  let iters = 20_000_000 in
  let run () =
    let x = ref 1 in
    for i = 1 to iters do
      x := (!x * 1103515245) + 12345 + i land 0xFFFF
    done;
    Sys.opaque_identity !x
  in
  let times = Array.init 5 (fun _ -> snd (time run)) in
  float_of_int iters /. (median times *. 1e6)

let fingerprint () =
  Printf.sprintf "{\"nproc\": %d, \"ocaml\": %S, \"calibration_iters_per_us\": %.1f}"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (calibration_score ())

(* --- output --- *)

(* Shortest decimal rendering that reads back as the same float. *)
let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (num x.value) x.unit_)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed body

(* Failed checks are collected, printed and counted; the run fails if
   any is recorded. *)
let failures : string list ref = ref []

let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt
let check cond fmt = Printf.ksprintf (fun s -> if not cond then failures := s :: !failures) fmt
