type t = { issue_width : int; fu_counts : int array; pipelined : bool }

let make ?(pipelined = false) ~issue ~nfu () =
  { issue_width = issue; fu_counts = Array.make Fu.count nfu; pipelined }

let fu_count m k = m.fu_counts.(Fu.index k)

let with_fu m k n =
  let fu_counts = Array.copy m.fu_counts in
  fu_counts.(Fu.index k) <- n;
  { m with fu_counts }

let name m =
  let counts = Array.to_list m.fu_counts in
  let uniform =
    match counts with [] -> None | c :: rest -> if List.for_all (( = ) c) rest then Some c else None
  in
  match uniform with
  | Some c -> Printf.sprintf "%d-issue(#FU=%d)" m.issue_width c
  | None ->
    let per_unit =
      List.map (fun k -> Printf.sprintf "%s=%d" (Fu.name k) (fu_count m k)) Fu.all
    in
    Printf.sprintf "%d-issue(%s)" m.issue_width (String.concat "," per_unit)

let paper_configs =
  [
    ("2-issue(#FU=1)", make ~issue:2 ~nfu:1 ());
    ("2-issue(#FU=2)", make ~issue:2 ~nfu:2 ());
    ("4-issue(#FU=1)", make ~issue:4 ~nfu:1 ());
    ("4-issue(#FU=2)", make ~issue:4 ~nfu:2 ());
  ]

let max_count = 255

let validate m =
  if m.issue_width <= 0 then invalid_arg "Machine.validate: issue width must be positive";
  if m.issue_width > max_count then
    invalid_arg (Printf.sprintf "Machine.validate: issue width must be at most %d" max_count);
  Array.iteri
    (fun i c ->
      if c <= 0 || c > max_count then
        invalid_arg
          (Printf.sprintf "Machine.validate: %s count must be %s" (Fu.name (Fu.of_index i))
             (if c <= 0 then "positive" else Printf.sprintf "at most %d" max_count)))
    m.fu_counts

let pp ppf m = Format.pp_print_string ppf (name m)
