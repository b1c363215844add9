(* Workload serve-mix: a separate [ischedc serve] daemon (default cache
   of 1024 entries, 2 workers) under a closed loop over one client
   connection.  Per block of 1,000 requests: 900 name corpus loops drawn
   Zipf(1.0) over the 75 loops x 4 paper configs (a hot set that fits
   the cache) and 100 fresh generated loops sent as source text, never
   repeated, half of them with sync_elim.  The seed drives the draws and
   picks the fresh loops. *)

module Protocol = Isched_serve.Protocol
module Server = Isched_serve.Server
module Json = Isched_obs.Json
module Suite = Isched_perfect.Suite
module Profile = Isched_perfect.Profile
module Pipeline = Isched_harness.Pipeline
module Machine = Isched_ir.Machine
module Ast = Isched_frontend.Ast

let block = 1000
let fresh_per_block = 100
let workers = 2
let state_dir = ".perfbench"

(* --- the daemon --- *)

type daemon = { pid : int; socket : string }

let running : daemon option ref = ref None

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> (fd, Protocol.reader fd)
  | exception e ->
    Unix.close fd;
    raise e

let roundtrip (fd, rd) payload =
  Protocol.write_frame fd payload;
  match Protocol.read_frame_buffered rd with
  | Protocol.Frame s -> s
  | _ -> failwith "serve-mix: connection closed by the daemon"

let request conn req =
  match Protocol.decode_response (roundtrip conn (Protocol.encode_request req)) with
  | Ok r -> r
  | Error (_, m) -> failwith ("serve-mix: undecodable response: " ^ m)

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  (try wait () with Unix.Unix_error _ -> ());
  (try Sys.remove d.socket with Sys_error _ -> ());
  running := None

let () = at_exit (fun () -> Option.iter stop !running)

let spawn ~exe ~extra =
  if not (Sys.file_exists state_dir) then Sys.mkdir state_dir 0o755;
  let socket = Printf.sprintf "%s/serve-%d.sock" state_dir (Unix.getpid ()) in
  (try Sys.remove socket with Sys_error _ -> ());
  let log =
    Unix.openfile (state_dir ^ "/daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv =
    Array.append
      [| exe; "serve"; "--socket"; socket; "--workers"; string_of_int workers |]
      (Array.of_list extra)
  in
  let pid = Unix.create_process exe argv Unix.stdin log Unix.stderr in
  Unix.close log;
  let d = { pid; socket } in
  running := Some d;
  let deadline = Unix.gettimeofday () +. 30. in
  let rec ready () =
    match connect socket with
    | conn -> (
      match request conn Protocol.Ping with
      | Protocol.Pong -> conn
      | _ -> failwith "serve-mix: daemon answered ping with something else")
    | exception Unix.Unix_error _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.002;
      ready ()
  in
  (d, ready ())

(* --- the request mix --- *)

type key = { loop : Ast.loop; cname : string; m : Machine.t }

let hot_keys () =
  List.concat_map
    (fun (l : Ast.loop) -> List.map (fun (cname, m) -> { loop = l; cname; m }) Machine.paper_configs)
    (Suite.all_loops ())

let issue_nfu (m : Machine.t) = (m.Machine.issue_width, m.Machine.fu_counts.(0))

type req = {
  source : Protocol.source;
  key : key;
  sync_elim : bool option;
  text_loops : Ast.loop list;  (** parsed source of a fresh request *)
  fresh : bool;
}

let to_request ?(scheduler = Protocol.Sched_new) r =
  let issue, nfu = issue_nfu r.key.m in
  Protocol.schedule_request ~scheduler ~issue ~nfu ?sync_elim:r.sync_elim r.source

(* A request naming a corpus loop. *)
let named key =
  { source = Protocol.Corpus_loop key.loop.Ast.name; key; sync_elim = None; text_loops = []; fresh = false }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

type gen = {
  rng : Random.State.t;
  keys : key array;  (** in popularity order *)
  cdf : float array;  (** Zipf(1.0) over [keys] *)
  seen : (string, unit) Hashtbl.t;
  mutable next_fresh : int;
  fresh_base : int;
}

let make_gen ~seed =
  let rng = Random.State.make [| seed; 0x5e12e |] in
  let keys = Array.of_list (hot_keys ()) in
  (* A seeded popularity order. *)
  shuffle rng keys;
  let w = Array.mapi (fun i _ -> 1. /. float_of_int (i + 1)) keys in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  let cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w in
  { rng; keys; cdf; seen = Hashtbl.create 4096; next_fresh = 0; fresh_base = 1_000_000 * (seed + 1) }

let draw_hot g =
  let u = Random.State.float g.rng 1. in
  let lo = ref 0 and hi = ref (Array.length g.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if g.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  named g.keys.(!lo)

(* A generated loop far past every corpus window, rendered as source;
   a text already sent is skipped, so a fresh request never repeats. *)
let rec draw_fresh g =
  let k = g.next_fresh in
  g.next_fresh <- k + 1;
  let p = List.nth Profile.all (k mod List.length Profile.all) in
  let l = Isched_perfect.Genloop.nth p (g.fresh_base + (k / List.length Profile.all)) in
  let text = Ast.loop_to_string l in
  if Hashtbl.mem g.seen text then draw_fresh g
  else begin
    Hashtbl.add g.seen text ();
    let cname, m = List.nth Machine.paper_configs (Random.State.int g.rng 4) in
    let text_loops = Isched_frontend.Parser.parse ~name:"request" text in
    {
      source = Protocol.Text text;
      key = { loop = List.hd text_loops; cname; m };
      sync_elim = Some (k mod 2 = 0);
      text_loops;
      fresh = true;
    }
  end

let make_block g =
  let a =
    Array.init block (fun i -> if i < fresh_per_block then draw_fresh g else draw_hot g)
  in
  shuffle g.rng a;
  a

(* --- correctness --- *)

(* The fresh in-process pipeline result for one loop of a request. *)
let expected r (l : Ast.loop) =
  let options = { Pipeline.default_options with sync_elim = Option.value r.sync_elim ~default:false } in
  match Pipeline.prepare_uncached options l with
  | Pipeline.Doall _ -> ([||], 0, 0)
  | Pipeline.Doacross _ as p ->
    let s = Pipeline.schedule ~options p r.key.m Pipeline.New_scheduling in
    ( s.Isched_core.Schedule.rows,
      (Isched_sim.Timing.run s).Isched_sim.Timing.finish,
      Isched_core.Lbd_model.exact_time s )

let loops_of = function
  | Protocol.Scheduled { loops; _ } -> Some loops
  | _ -> None

let check_response r resp =
  match loops_of resp with
  | None -> Common.fail "serve-mix: %s: not a schedule response" r.key.loop.Ast.name
  | Some replies ->
    let ls = if r.fresh then r.text_loops else [ r.key.loop ] in
    if List.length replies <> List.length ls then
      Common.fail "serve-mix: %s: %d loop replies for %d loops" r.key.loop.Ast.name
        (List.length replies) (List.length ls)
    else
      List.iter2
        (fun (reply : Protocol.loop_reply) l ->
          let rows, pt, at = expected r l in
          Common.check
            (reply.Protocol.rows = rows && reply.Protocol.parallel_time = pt
            && reply.Protocol.analytic_time = at)
            "serve-mix: %s on %s: served (%d, %d) differs from the pipeline (%d, %d)"
            r.key.loop.Ast.name r.key.cname reply.Protocol.parallel_time reply.Protocol.analytic_time pt at)
        replies ls

let decode r payload =
  match Protocol.decode_response payload with
  | Ok (Protocol.Scheduled { cache_hit; _ } as resp) -> Some (cache_hit, resp)
  | Ok (Protocol.Error { code; message }) ->
    Common.fail "serve-mix: %s: %s: %s" r.key.loop.Ast.name (Protocol.error_code_name code) message;
    None
  | Ok _ ->
    Common.fail "serve-mix: %s: unexpected response kind" r.key.loop.Ast.name;
    None
  | Error (_, m) ->
    Common.fail "serve-mix: %s: undecodable response: %s" r.key.loop.Ast.name m;
    None

(* --- measurement --- *)

type sample = { latency_ns : int; hit : bool }

type run_state = {
  conn : Unix.file_descr * Protocol.reader;
  daemon_pid : int;
  gen : gen;
  mutable requests : int;
  mutable samples : sample list;
  mutable blocks : float list;
  mutable block_cpu : float list;  (** daemon CPU seconds per block *)
  mutable steal : float;  (** steal seconds during the blocks *)
  mutable to_check : (req * Protocol.response) list;
}

(* One block, timed request by request; responses are decoded after the
   block, outside the timed window. *)
let run_block st =
  Common.probe_host ();
  let reqs = make_block st.gen in
  let payloads = Array.make block "" and lat = Array.make block 0 in
  let c0 = Common.cpu_of_pid st.daemon_pid in
  let s0 = Common.steal_s () in
  let t0 = Common.now_ns () in
  Array.iteri
    (fun i r ->
      let s = Common.now_ns () in
      payloads.(i) <- roundtrip st.conn (Protocol.encode_request (to_request r));
      lat.(i) <- Common.now_ns () - s)
    reqs;
  st.blocks <- (float_of_int (Common.now_ns () - t0) /. 1e9) :: st.blocks;
  st.block_cpu <- (Common.cpu_of_pid st.daemon_pid -. c0) :: st.block_cpu;
  st.steal <- st.steal +. (Common.steal_s () -. s0);
  Array.iteri
    (fun i r ->
      st.requests <- st.requests + 1;
      match decode r payloads.(i) with
      | None -> ()
      | Some (hit, resp) ->
        st.samples <- { latency_ns = lat.(i); hit } :: st.samples;
        if Random.State.int st.gen.rng 200 = 0 then st.to_check <- (r, resp) :: st.to_check)
    reqs

let warm conn keys =
  Array.iter
    (fun key ->
      ignore (request conn (to_request (named key))))
    keys

(* Set-up cost: the CPU seconds of the client and of the daemon from
   spawn through the warmed cache. *)
let setup ~exe ~extra () =
  let c0 = Common.cpu_self () in
  let d, conn = spawn ~exe ~extra in
  warm conn (Array.of_list (hot_keys ()));
  ((d, conn), Common.cpu_self () -. c0 +. Common.cpu_of_pid d.pid)

let teardown (d, (fd, _)) =
  Unix.close fd;
  stop d

let percentile_us q xs = Common.quantile q (Array.of_list xs) /. 1e3

let split samples =
  let hits = List.filter_map (fun s -> if s.hit then Some (float_of_int s.latency_ns) else None) samples
  and misses = List.filter_map (fun s -> if s.hit then None else Some (float_of_int s.latency_ns)) samples in
  (hits, misses)

(* The served schedules of the whole hot set under both schedulers:
   the run time of the code the daemon hands out. *)
let served_cycles conn =
  let total scheduler =
    List.fold_left
      (fun acc key ->
        match loops_of (request conn (to_request ~scheduler (named key))) with
        | Some replies -> List.fold_left (fun a (x : Protocol.loop_reply) -> a + x.Protocol.parallel_time) acc replies
        | None ->
          Common.fail "serve-mix: %s: no schedule for the cycle probe" key.loop.Ast.name;
          acc)
      0 (hot_keys ())
  in
  (total Protocol.Sched_list, total Protocol.Sched_new)

let counter stats name =
  match Json.member "counters" stats with
  | Some c -> (match Option.bind (Json.member name c) Json.to_float with Some f -> f | None -> 0.)
  | None -> 0.

let stats conn =
  match request conn Protocol.Stats with
  | Protocol.Stats_reply v -> v
  | _ -> failwith "serve-mix: stats request failed"

let run_blocks st ~seconds =
  let t0 = Common.now_ns () in
  run_block st;
  while Common.secs_since t0 < seconds || List.length st.blocks < 10 do
    run_block st
  done

let check_all st =
  List.iter (fun (r, resp) -> check_response r resp) st.to_check;
  List.length st.to_check

(* --- the traced phase --- *)

type timing = { enc : float; rt : float; dec : float; handle : float }

let mean = function [] -> 0. | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stage_names = [ "decode"; "cache_probe"; "compute"; "validate"; "encode"; "write" ]

(* The daemon's own per-stage view: with --slow-ms 0 every request lands
   in its slow-log, of which a Stats reply carries the newest 16. *)
let daemon_entries v tbl =
  match Option.bind (Json.member "slow" v) (Json.member "entries") with
  | Some (Json.Arr es) ->
    List.iter
      (fun e ->
        match (Option.bind (Json.member "id" e) Json.to_float, Option.bind (Json.member "verdict" e) Json.to_str) with
        | Some id, Some (("hit" | "miss") as verdict) ->
          let stage n =
            Option.value ~default:0.
              (Option.bind (Option.bind (Json.member "stages" e) (Json.member n)) Json.to_float)
          in
          Hashtbl.replace tbl id (verdict = "hit", List.map stage stage_names)
        | _ -> ())
      es
  | _ -> ()

(* Client encode, round trip and decode timed apart; the same request
   replayed through an in-process Server.handle; the fresh loops' miss
   path recomposed from the layers' public functions under spans. *)
let traced_phase st ~seconds =
  let local =
    Server.create { (Server.default_config ~socket_path:(state_dir ^ "/in-process.sock")) with Server.workers }
  in
  Array.iter
    (fun key ->
      ignore (Server.handle local (to_request (named key))))
    st.gen.keys;
  let hits = ref [] and misses = ref [] and fresh = ref [] and daemon = Hashtbl.create 4096 in
  let n = ref 0 and w0 = Gc.minor_words () in
  let t0 = Common.now_ns () in
  while Common.secs_since t0 < seconds || !n < 2 * block do
    Array.iter
      (fun r ->
        incr n;
        let req = to_request r in
        let a = Common.now_ns () in
        let payload = Protocol.encode_request req in
        let b = Common.now_ns () in
        let raw = roundtrip st.conn payload in
        let c = Common.now_ns () in
        let resp = Protocol.decode_response raw in
        let d = Common.now_ns () in
        let local_resp, h = Common.time (fun () -> Server.handle local req) in
        let ns x = float_of_int x /. 1e3 in
        let tm = { enc = ns (b - a); rt = ns (c - b); dec = ns (d - c); handle = h *. 1e6 } in
        (match (resp, local_resp) with
        | Ok (Protocol.Scheduled { cache_hit; loops }), Protocol.Scheduled { loops = local_loops; _ } ->
          Common.check (loops = local_loops) "serve-mix: daemon and in-process Server.handle disagree on %s"
            r.key.loop.Ast.name;
          if cache_hit then hits := tm :: !hits else misses := tm :: !misses
        | _ -> Common.fail "serve-mix: traced request %s failed" r.key.loop.Ast.name);
        if r.fresh then fresh := r :: !fresh;
        if !n mod 15 = 0 then daemon_entries (stats st.conn) daemon)
      (make_block st.gen)
  done;
  let phase_s = Common.secs_since t0 in
  let minor = Gc.minor_words () -. w0 in
  (* The miss path, recomposed exactly as the daemon computes a fresh
     loop: parse + check, Pipeline.prepare_uncached's layers, the new
     scheduler (its never-degrade baseline passed in), timing and the
     LBD model. *)
  let module R = Isched_transform.Restructure in
  let span = Spans.span in
  let counter name = Isched_obs.Counters.value (Isched_obs.Counters.counter name) in
  let waits0 = counter "sync.elim.waits_removed" and arcs0 = counter "dfg.arcs" in
  let doacross = ref 0 and instrs = ref 0 and sync_ops = ref 0 and timings = ref 0 in
  Spans.reset ();
  Spans.enabled := true;
  List.iteri
    (fun i r ->
      Spans.set_item i;
      match r.source with
      | Protocol.Text text ->
        let loops =
          span "frontend.parse" (fun () ->
              let ls = Isched_frontend.Parser.parse ~name:"request" text in
              List.iter Isched_frontend.Sema.check_exn ls;
              ls)
        in
        List.iter
          (fun l ->
            let l' = (span "transform.restructure" (fun () -> R.run l)).R.loop in
            let carried = span "deps.carried" (fun () -> Isched_deps.Dep.carried_deps l') in
            if carried <> [] then begin
              let prog = span "codegen.compile" (fun () -> Isched_codegen.Codegen.compile ~carried l') in
              let body = prog.Isched_ir.Program.body in
              incr doacross;
              instrs := !instrs + Array.length body;
              Array.iter (fun i -> if Isched_ir.Instr.is_sync i then incr sync_ops) body;
              let graph = span "dfg.build" (fun () -> Isched_dfg.Dfg.build prog) in
              let graph =
                if r.sync_elim = Some true then
                  (span "sync.elim" (fun () -> Isched_sync.Elim.run prog graph)).Isched_sync.Elim.graph
                else graph
              in
              let s_list = span "core.list_sched" (fun () -> Isched_core.List_sched.run graph r.key.m) in
              let s = span "core.sync_sched" (fun () -> Isched_core.Sync_sched.run ~baseline:s_list graph r.key.m) in
              ignore (span "sim.timing" (fun () -> Isched_sim.Timing.run s));
              incr timings;
              ignore (span "core.lbd_model" (fun () -> Isched_core.Lbd_model.exact_time s))
            end)
          loops
      | Protocol.Corpus_loop _ -> ())
    !fresh;
  Spans.enabled := false;
  Layers.record_spans (Spans.aggregate ());
  Layers.set "sync.elim.waits_removed" (float_of_int (counter "sync.elim.waits_removed" - waits0));
  Layers.set "dfg.arcs" (float_of_int (counter "dfg.arcs" - arcs0));
  Layers.set "deps.doacross_loops" (float_of_int !doacross);
  Layers.set "codegen.instrs" (float_of_int !instrs);
  Layers.set "codegen.sync_ops" (float_of_int !sync_ops);
  Layers.set "sim.timing_calls" (float_of_int !timings);
  (* The hit budget: client rows and the daemon's own stages must add up
     to the client total; what is left is socket and kernel time. *)
  let dh = Hashtbl.fold (fun _ (hit, st) acc -> if hit then st :: acc else acc) daemon [] in
  let dm = Hashtbl.fold (fun _ (hit, st) acc -> if hit then acc else st :: acc) daemon [] in
  let stage_means rows = List.mapi (fun i _ -> mean (List.map (fun r -> List.nth r i /. 1e3) rows)) stage_names in
  let budget label ts drows =
    let enc = mean (List.map (fun t -> t.enc) ts) and rt = mean (List.map (fun t -> t.rt) ts)
    and dec = mean (List.map (fun t -> t.dec) ts) and handle = mean (List.map (fun t -> t.handle) ts) in
    let stages = stage_means drows in
    let daemon_total = List.fold_left ( +. ) 0. stages in
    let socket = rt -. daemon_total in
    Printf.printf "serve-mix %s latency budget (means; %d requests, daemon view from %d sampled %s requests), us:\n" label
      (List.length ts) (List.length drows) label;
    Printf.printf "  %-34s %9.2f\n" "client encode" enc;
    List.iter2 (fun n v -> Printf.printf "  %-34s %9.2f\n" ("daemon " ^ n) v) stage_names stages;
    Printf.printf "  %-34s %9.2f\n" "socket/kernel (remainder)" socket;
    Printf.printf "  %-34s %9.2f\n" "client decode" dec;
    Printf.printf "  %-34s %9.2f\n" "= client total" (enc +. rt +. dec);
    Printf.printf "  %-34s %9.2f  (round trip %.2f)\n%!" "Server.handle in process" handle rt;
    (enc, rt, dec, handle, stages, socket)
  in
  let enc, rt, dec, handle_hit, stages, socket = budget "hit" !hits dh in
  let _, _, _, handle_miss, _, _ = budget "miss" !misses dm in
  Layers.set "serve.client.encode_us" enc;
  Layers.set "serve.client.roundtrip_us" rt;
  Layers.set "serve.client.decode_us" dec;
  Layers.set "serve.handle_hit_us" handle_hit;
  Layers.set "serve.handle_miss_us" handle_miss;
  Layers.set "serve.socket_us" socket;
  List.iter2
    (fun n v -> if n <> "validate" then Layers.set ("serve.daemon." ^ n ^ "_us") v)
    stage_names stages;
  Layers.set "serve.minor_mw" (minor /. 1e6);
  let client_us = List.fold_left (fun a t -> a +. t.enc +. t.rt +. t.dec +. t.handle) 0. (!hits @ !misses) in
  Layers.set "trace.coverage_ratio" (client_us /. 1e6 /. phase_s);
  Layers.set "trace.spans" (float_of_int (Spans.count ()));
  (!n, rt +. enc)

let run ~exe ~seed ~seconds ~trace =
  let extra = if trace then [ "--slow-ms"; "0" ] else [] in
  let (d, conn), setup_s = Common.median_setup ~reps:3 ~teardown (setup ~exe ~extra) in
  let st =
    { conn; daemon_pid = d.pid; gen = make_gen ~seed; requests = 0; samples = []; blocks = [];
      block_cpu = []; steal = 0.; to_check = [] }
  in
  let stats0 = stats conn in
  run_blocks st ~seconds:(if trace then seconds /. 3. else seconds);
  let scale = Common.host_scale () in
  let rss = Common.peak_rss_mb ~pid:(string_of_int d.pid) () in
  let stats1 = stats conn in
  let hits, misses = split st.samples in
  let wall_s = Common.lower_quartile (Array.of_list st.blocks) in
  let cpu_s = Common.lower_quartile (Array.of_list st.block_cpu) in
  let busy = List.fold_left ( +. ) 0. st.blocks in
  (* The closed loop has one vCPU running at a time, client or daemon,
     and every second stolen from it delays the loop: [wall_s] is scaled
     by the share of the block time that was not stolen.  Under 31%
     steal, block wall time tripled while daemon CPU time rose by 40%. *)
  let unstolen = Float.max 0.1 (1. -. (st.steal /. busy)) in
  let rps = float_of_int (List.length st.blocks * block) /. busy in
  Printf.printf
    "serve-mix: %d blocks of %d requests, block wall %.4f s, daemon CPU %.4f s (lower quartiles), %.1f%% of block time stolen, %.0f req/s; hit p50 %.1f us p99 %.1f us (n=%d); miss p50 %.1f us p99 %.1f us (n=%d); daemon peak RSS %.1f MB\n%!"
    (List.length st.blocks) block wall_s cpu_s (100. *. st.steal /. busy) rps (percentile_us 0.5 hits) (percentile_us 0.99 hits) (List.length hits)
    (percentile_us 0.5 misses) (percentile_us 0.99 misses) (List.length misses) rss;
  let attempted_trace =
    if not trace then 0
    else begin
      let n, traced_hit_us = traced_phase st ~seconds:(seconds /. 3.) in
      Layers.set "trace.overhead_ratio" (traced_hit_us /. mean (List.map (fun x -> x /. 1e3) hits));
      n
    end
  in
  let list_cycles, new_cycles = served_cycles conn in
  let checked = check_all st in
  let delta name = counter stats1 name -. counter stats0 name in
  Printf.printf "serve-mix: daemon cache %.0f hits, %.0f misses, %.0f evictions, %.0f coalesced; served cycles list %d new %d; %d responses checked against the pipeline\n%!"
    (delta "serve.cache.hit") (delta "serve.cache.miss") (delta "serve.cache.evict")
    (delta "serve.cache.coalesced") list_cycles new_cycles checked;
  teardown (d, conn);
  let attempted = st.requests + checked + attempted_trace in
  if not trace then
    ( attempted,
      [
        Common.m "setup_s" "s" (setup_s *. scale);
        Common.m "wall_s" "s" (wall_s *. unstolen *. scale);
        Common.m "cpu_s" "s" (cpu_s *. scale);
        Common.m "peak_rss_mb" "MB" rss;
        Common.m "sim_cycles_list" "cycles" (float_of_int list_cycles);
        Common.m "sim_cycles_new" "cycles" (float_of_int new_cycles);
      ] )
  else begin
    let hs, ms = (delta "serve.cache.hit", delta "serve.cache.miss") in
    Layers.set "serve.cache.hit_ratio" (hs /. Float.max 1. (hs +. ms));
    Layers.set "serve.cache.evictions" (delta "serve.cache.evict");
    Layers.set "serve.cache.coalesced" (delta "serve.cache.coalesced");
    Layers.set "serve.hit_p50_us" (percentile_us 0.5 hits);
    Layers.set "serve.hit_p99_us" (percentile_us 0.99 hits);
    Layers.set "serve.hit_samples" (float_of_int (List.length hits));
    Layers.set "serve.miss_p50_us" (percentile_us 0.5 misses);
    Layers.set "serve.miss_p99_us" (percentile_us 0.99 misses);
    Layers.set "serve.miss_samples" (float_of_int (List.length misses));
    Layers.set "serve.throughput_rps" rps;
    (attempted, Layers.metrics ())
  end
