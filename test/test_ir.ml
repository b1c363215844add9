(* Tests for Isched_ir: function units, operands, instructions, machine
   configurations and program validation. *)

module Fu = Isched_ir.Fu
module Operand = Isched_ir.Operand
module Instr = Isched_ir.Instr
module Machine = Isched_ir.Machine
module Program = Isched_ir.Program

let check = Alcotest.check

(* --- Fu --- *)

let test_fu_latencies () =
  check Alcotest.int "mul = 3" 3 (Fu.latency Fu.Multiplier);
  check Alcotest.int "div = 6" 6 (Fu.latency Fu.Divider);
  List.iter
    (fun k -> check Alcotest.int (Fu.name k ^ " = 1") 1 (Fu.latency k))
    [ Fu.Load_store; Fu.Integer; Fu.Float; Fu.Shifter ]

let test_fu_index_roundtrip () =
  List.iter
    (fun k -> Alcotest.(check bool) "roundtrip" true (Fu.equal k (Fu.of_index (Fu.index k))))
    Fu.all;
  check Alcotest.int "count" (List.length Fu.all) Fu.count

let test_fu_of_index_invalid () =
  Alcotest.check_raises "of_index 6" (Invalid_argument "Fu.of_index: 6") (fun () ->
      ignore (Fu.of_index 6))

(* --- Operand --- *)

let test_operand_printing () =
  check Alcotest.string "reg" "t3" (Operand.to_string (Operand.Reg 3));
  check Alcotest.string "imm" "-2" (Operand.to_string (Operand.Imm (-2)));
  check Alcotest.string "fimm" "2.5" (Operand.to_string (Operand.Fimm 2.5));
  check Alcotest.string "ivar" "I" (Operand.to_string Operand.Ivar)

let test_operand_equal () =
  Alcotest.(check bool) "reg eq" true (Operand.equal (Operand.Reg 1) (Operand.Reg 1));
  Alcotest.(check bool) "reg ne" false (Operand.equal (Operand.Reg 1) (Operand.Reg 2));
  Alcotest.(check bool) "kinds differ" false (Operand.equal (Operand.Imm 0) Operand.Ivar);
  check Alcotest.(option int) "reg extract" (Some 4) (Operand.reg (Operand.Reg 4));
  check Alcotest.(option int) "imm has no reg" None (Operand.reg (Operand.Imm 4))

(* --- Instr --- *)

let bin op = Instr.Bin { op; dst = 0; a = Operand.Reg 1; b = Operand.Reg 2 }

let test_instr_fu_mapping () =
  let fu i = Instr.fu i in
  check Alcotest.(option (testable Fu.pp Fu.equal)) "add -> int" (Some Fu.Integer) (fu (bin Instr.Add));
  check Alcotest.(option (testable Fu.pp Fu.equal)) "fadd -> fp" (Some Fu.Float) (fu (bin Instr.FAdd));
  check Alcotest.(option (testable Fu.pp Fu.equal)) "mul -> mult" (Some Fu.Multiplier) (fu (bin Instr.Mul));
  check Alcotest.(option (testable Fu.pp Fu.equal)) "fdiv -> div" (Some Fu.Divider) (fu (bin Instr.FDiv));
  check Alcotest.(option (testable Fu.pp Fu.equal)) "shl -> shift" (Some Fu.Shifter) (fu (bin Instr.Shl));
  check Alcotest.(option (testable Fu.pp Fu.equal)) "cmp -> int" (Some Fu.Integer) (fu (bin Instr.CmpLt));
  check
    Alcotest.(option (testable Fu.pp Fu.equal))
    "load -> ld/st" (Some Fu.Load_store)
    (fu (Instr.Load { dst = 0; base = "A"; addr = Operand.Reg 1 }));
  check Alcotest.(option (testable Fu.pp Fu.equal)) "send -> none" None (fu (Instr.Send { signal = 0 }));
  check Alcotest.(option (testable Fu.pp Fu.equal)) "wait -> none" None (fu (Instr.Wait { wait = 0 }))

let test_instr_latency () =
  check Alcotest.int "mul latency" 3 (Instr.latency (bin Instr.Mul));
  check Alcotest.int "div latency" 6 (Instr.latency (bin Instr.Div));
  check Alcotest.int "add latency" 1 (Instr.latency (bin Instr.Add));
  check Alcotest.int "sync latency" 1 (Instr.latency (Instr.Send { signal = 0 }))

let test_instr_def_uses () =
  check Alcotest.(option int) "bin defines dst" (Some 0) (Instr.def (bin Instr.Add));
  check Alcotest.(list int) "bin uses" [ 1; 2 ] (Instr.uses (bin Instr.Add));
  let store = Instr.Store { base = "A"; addr = Operand.Reg 3; src = Operand.Reg 4 } in
  check Alcotest.(option int) "store defines nothing" None (Instr.def store);
  check Alcotest.(list int) "store uses addr+src" [ 3; 4 ] (Instr.uses store);
  let sel =
    Instr.Select { dst = 9; cond = Operand.Reg 1; if_true = Operand.Reg 2; if_false = Operand.Imm 0 }
  in
  check Alcotest.(option int) "select defines" (Some 9) (Instr.def sel);
  check Alcotest.(list int) "select uses regs only" [ 1; 2 ] (Instr.uses sel);
  check Alcotest.(list int) "imm operands use nothing" []
    (Instr.uses (Instr.Bin { op = Instr.Add; dst = 0; a = Operand.Imm 1; b = Operand.Ivar }))

let test_instr_predicates () =
  Alcotest.(check bool) "send is sync" true (Instr.is_sync (Instr.Send { signal = 0 }));
  Alcotest.(check bool) "add not sync" false (Instr.is_sync (bin Instr.Add));
  Alcotest.(check bool) "load is mem" true
    (Instr.is_mem (Instr.Load_scalar { dst = 0; name = "s" }));
  Alcotest.(check bool) "add not mem" false (Instr.is_mem (bin Instr.Add))

let test_instr_printing () =
  check Alcotest.string "bin" "t0 := t1 + t2" (Instr.to_string (bin Instr.Add));
  check Alcotest.string "load" "t0 := A[t1]"
    (Instr.to_string (Instr.Load { dst = 0; base = "A"; addr = Operand.Reg 1 }));
  check Alcotest.string "store" "A[t1] := 5"
    (Instr.to_string (Instr.Store { base = "A"; addr = Operand.Reg 1; src = Operand.Imm 5 }))

(* --- Machine --- *)

let test_machine_paper_configs () =
  check Alcotest.int "four configs" 4 (List.length Machine.paper_configs);
  let names = List.map fst Machine.paper_configs in
  check
    Alcotest.(list string)
    "paper order"
    [ "2-issue(#FU=1)"; "2-issue(#FU=2)"; "4-issue(#FU=1)"; "4-issue(#FU=2)" ]
    names;
  List.iter
    (fun (name, m) -> check Alcotest.string "name round trip" name (Machine.name m))
    Machine.paper_configs

let test_machine_counts () =
  let m = Machine.make ~issue:2 ~nfu:2 () in
  List.iter (fun k -> check Alcotest.int "uniform count" 2 (Machine.fu_count m k)) Fu.all;
  let m' = Machine.with_fu m Fu.Divider 1 in
  check Alcotest.int "override" 1 (Machine.fu_count m' Fu.Divider);
  check Alcotest.int "others kept" 2 (Machine.fu_count m' Fu.Multiplier);
  check Alcotest.int "original untouched" 2 (Machine.fu_count m Fu.Divider)

let test_machine_validate () =
  Alcotest.check_raises "zero issue"
    (Invalid_argument "Machine.validate: issue width must be positive") (fun () ->
      Machine.validate (Machine.make ~issue:0 ~nfu:1 ()));
  Alcotest.check_raises "zero units"
    (Invalid_argument "Machine.validate: ld/st count must be positive") (fun () ->
      Machine.validate (Machine.make ~issue:2 ~nfu:0 ()))

let test_machine_validate_caps () =
  (* Occupancy is tracked in byte lanes, so 255 is the widest machine. *)
  Machine.validate (Machine.make ~issue:255 ~nfu:255 ());
  Alcotest.check_raises "issue 256"
    (Invalid_argument "Machine.validate: issue width must be at most 255") (fun () ->
      Machine.validate (Machine.make ~issue:256 ~nfu:1 ()));
  Alcotest.check_raises "256 dividers"
    (Invalid_argument "Machine.validate: div count must be at most 255") (fun () ->
      Machine.validate (Machine.with_fu (Machine.make ~issue:4 ~nfu:1 ()) Fu.Divider 256))

(* --- Program validation --- *)

let fig1_program () = Isched_harness.Worked_example.fig2_program ()

let test_program_validates () =
  let p = fig1_program () in
  Program.validate p;
  check Alcotest.int "28 instructions" 28 (Array.length p.Program.body);
  check Alcotest.int "one signal" 1 (Array.length p.Program.signals);
  check Alcotest.int "two waits" 2 (Array.length p.Program.waits);
  check Alcotest.int "no LFD" 0 (Program.n_lfd p);
  check Alcotest.int "two LBD" 2 (Program.n_lbd p)

let test_program_labels () =
  let p = fig1_program () in
  check Alcotest.string "signal label" "S3" (Program.signal_label p 0);
  check Alcotest.string "wait label" "S3, I-2" (Program.wait_label p 0);
  check Alcotest.string "wait label d=1" "S3, I-1" (Program.wait_label p 1)

let test_program_name_sets () =
  let p = fig1_program () in
  check Alcotest.(list string) "arrays" [ "A"; "B"; "C"; "E"; "G" ] (Program.arrays p);
  check Alcotest.(list string) "no scalars" [] (Program.scalars p)

let test_program_waits_of_signal () =
  let p = fig1_program () in
  check Alcotest.int "both waits on the one signal" 2 (List.length (Program.waits_of_signal p 0))

let test_program_rejects_double_def () =
  let p = fig1_program () in
  let body = Array.copy p.Program.body in
  (* Make instruction 2 redefine the register defined by instruction 1. *)
  (match (body.(1), body.(2)) with
  | Instr.Bin b1, Instr.Bin b2 -> body.(2) <- Instr.Bin { b2 with dst = b1.dst }
  | _ -> Alcotest.fail "unexpected body shape");
  Alcotest.(check bool) "double definition rejected" true
    (try
       Program.validate { p with Program.body };
       false
     with Invalid_argument _ -> true)

let test_program_rejects_send_before_src () =
  let p = fig1_program () in
  let signals =
    Array.map (fun (s : Program.signal_info) -> { s with Program.src_instr = s.Program.send_instr }) p.Program.signals
  in
  Alcotest.(check bool) "send before source rejected" true
    (try
       Program.validate { p with Program.signals };
       false
     with Invalid_argument _ -> true)

let test_program_rejects_bad_distance () =
  let p = fig1_program () in
  let waits =
    Array.map (fun (w : Program.wait_info) -> { w with Program.distance = 0 }) p.Program.waits
  in
  Alcotest.(check bool) "distance 0 rejected" true
    (try
       Program.validate { p with Program.waits };
       false
     with Invalid_argument _ -> true)

let test_program_pp_fig2 () =
  let p = fig1_program () in
  let s = Program.to_string p in
  let has affix =
    let n = String.length s and m = String.length affix in
    let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "wait printed" true (has "Wait_Signal(S3, I-2)");
  Alcotest.(check bool) "send printed" true (has "Send_Signal(S3)");
  Alcotest.(check bool) "numbered from 1" true (has "  1: ")

let suite =
  [
    ("fu: latencies match the paper", `Quick, test_fu_latencies);
    ("fu: index roundtrip", `Quick, test_fu_index_roundtrip);
    ("fu: of_index rejects out of range", `Quick, test_fu_of_index_invalid);
    ("operand: printing", `Quick, test_operand_printing);
    ("operand: equality and projection", `Quick, test_operand_equal);
    ("instr: function-unit mapping", `Quick, test_instr_fu_mapping);
    ("instr: latency", `Quick, test_instr_latency);
    ("instr: defs and uses", `Quick, test_instr_def_uses);
    ("instr: predicates", `Quick, test_instr_predicates);
    ("instr: printing", `Quick, test_instr_printing);
    ("machine: the four paper configs", `Quick, test_machine_paper_configs);
    ("machine: unit counts and overrides", `Quick, test_machine_counts);
    ("machine: validation", `Quick, test_machine_validate);
    ("program: Fig. 2 program validates", `Quick, test_program_validates);
    ("program: sync labels", `Quick, test_program_labels);
    ("program: array/scalar name sets", `Quick, test_program_name_sets);
    ("program: waits grouped by signal", `Quick, test_program_waits_of_signal);
    ("program: rejects double definition", `Quick, test_program_rejects_double_def);
    ("program: rejects send before source", `Quick, test_program_rejects_send_before_src);
    ("program: rejects distance < 1", `Quick, test_program_rejects_bad_distance);
    ("program: Fig. 2 pretty-printing", `Quick, test_program_pp_fig2);
    ("machine: validation caps widths and counts at 255", `Quick, test_machine_validate_caps);
  ]
