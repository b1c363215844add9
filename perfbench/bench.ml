(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 --ischedc PATH

   Workloads: tables-s100, ablations-s1, serve-mix (README.md says what
   each loads and bypasses).  With --trace 0 the result line carries the
   end-to-end metrics; with --trace 1 a separate traced run gives the
   per-layer metrics.  The last line of standard output is the JSON
   result; the host fingerprint is printed on the line before it. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload tables-s100|ablations-s1|serve-mix --seed N --seconds S \
     --trace 0|1 [--ischedc PATH]";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 0. and trace = ref false in
  let ischedc = ref "_build/default/bin/ischedc.exe" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest ->
      (match int_of_string_opt n with Some n when n >= 0 -> seed := n | _ -> usage ());
      parse rest
    | "--seconds" :: n :: rest ->
      (match float_of_string_opt n with Some s when s > 0. -> seconds := s | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | "--ischedc" :: p :: rest -> ischedc := p; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seconds <= 0. then usage ();
  let seed = !seed and seconds = !seconds and trace = !trace in
  let fingerprint = Common.fingerprint () in
  let attempted, metrics =
    match !workload with
    | "tables-s100" -> Tables_s100.run ~seed ~seconds ~trace
    | "ablations-s1" -> Ablations_s1.run ~seed ~seconds ~trace
    | "serve-mix" -> Serve_mix.run ~exe:!ischedc ~seed ~seconds ~trace
    | _ -> usage ()
  in
  let failures = List.rev !Common.failures in
  List.iter (fun f -> prerr_endline ("FAILED: " ^ f)) failures;
  if trace then begin
    if not (Sys.file_exists Serve_mix.state_dir) then Sys.mkdir Serve_mix.state_dir 0o755;
    let path = Printf.sprintf "%s/spans-%s.tsv" Serve_mix.state_dir !workload in
    Spans.write path;
    Printf.printf "wrote %d spans to %s\n" (Spans.count ()) path
  end;
  if trace then
    List.iter
      (fun (x : Common.metric) -> Printf.printf "  %-32s %14s %s\n" x.Common.name (Common.num x.Common.value) x.Common.unit_)
      metrics;
  Printf.printf "host: %s\n" fingerprint;
  let failed = List.length failures in
  print_endline
    (Common.result_line ~correct:(failed = 0) ~attempted:(max attempted 1) ~failed metrics);
  exit (if failed = 0 then 0 else 1)
