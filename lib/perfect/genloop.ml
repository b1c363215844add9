module Ast = Isched_frontend.Ast
module Prng = Isched_util.Prng

let carriers = [| "A"; "U"; "V"; "X"; "F" |]
let readonly = [| "E"; "C"; "R"; "Q"; "D" |]
let noise_outs = [| "P"; "G"; "H"; "M"; "T" |]

let num n = Ast.Num (float_of_int n)
let aref name sub = Ast.Aref (name, sub)
let i_plus c = if c = 0 then Ast.Ivar else Ast.Bin ((if c > 0 then Ast.Add else Ast.Sub), Ast.Ivar, num (abs c))

let ro_term rng =
  let a = Prng.choose rng readonly in
  aref a (i_plus (Prng.int_in rng (-2) 3))

let value_op rng = if Prng.bool rng 0.35 then Ast.Mul else if Prng.bool rng 0.2 then Ast.Sub else Ast.Add

(* A small dependence-free arithmetic expression over read-only arrays. *)
let rec ro_expr rng depth =
  if depth <= 0 || Prng.bool rng 0.45 then ro_term rng
  else Ast.Bin (value_op rng, ro_expr rng (depth - 1), ro_term rng)

let distance rng (p : Profile.t) = Prng.weighted rng p.Profile.distance_weights

let maybe_guard rng (p : Profile.t) stmt =
  if Prng.bool rng p.Profile.guard_frac then
    { stmt with Ast.guard = Some { Ast.rel = Ast.Gt; lhs = ro_term rng; rhs = num 0 } }
  else stmt

let mk lhs rhs = { Ast.label = ""; guard = None; lhs; rhs }

(* --- motifs: each returns statements in order --- *)

(* C[I] = C[I-d] op e : single-statement recurrence, minimal sync path. *)
let motif_tight rng p =
  let c = Prng.choose rng carriers in
  let d = distance rng p in
  [ mk (Ast.Larr (c, Ast.Ivar)) (Ast.Bin (value_op rng, aref c (i_plus (-d)), ro_term rng)) ]

(* The paper's Fig. 1 shape, generalized: a recurrence on a carrier
   array whose own chain is short (that is the unavoidable sync path),
   preceded textually by consumer statements that read older carrier
   elements but do not feed the recurrence.  The consumers are lexically
   backward dependences that the new scheduler converts to forward ones
   (their components are Wat graphs), while list scheduling pays
   (n/d) x span for every one of them. *)
let motif_chain rng p ~wid =
  let c = Prng.choose rng carriers in
  let d = distance rng p in
  let w k = "W" ^ string_of_int wid ^ "_" ^ string_of_int k in
  let consumers =
    List.init
      (Prng.int_in rng 2 4)
      (fun k ->
        let dk = distance rng p in
        mk
          (Ast.Larr ("O" ^ string_of_int wid ^ "_" ^ string_of_int k, Ast.Ivar))
          (Ast.Bin (value_op rng, aref c (i_plus (-dk)), ro_expr rng 1)))
  in
  (* Keep the unavoidable path cheap: the recurrence operation is an
     add most of the time (a multiply would put 3-cycle links on the
     path). *)
  let rec_op rng = if Prng.bool rng 0.2 then Ast.Mul else Ast.Add in
  let chain =
    if Prng.bool rng p.Profile.convertible_frac then
      (* Time-lagged field update: the write does not read the carrier,
         so no wait-to-send path exists and every pair converts. *)
      [ mk (Ast.Larr (c, Ast.Ivar)) (ro_expr rng 2) ]
    else if Prng.int_in rng 1 p.Profile.chain_len_max <= 1 then
      [ mk (Ast.Larr (c, Ast.Ivar)) (Ast.Bin (rec_op rng, aref c (i_plus (-d)), ro_term rng)) ]
    else
      [
        mk (Ast.Larr (w 1, Ast.Ivar)) (Ast.Bin (rec_op rng, aref c (i_plus (-d)), ro_term rng));
        mk (Ast.Larr (c, Ast.Ivar)) (Ast.Bin (rec_op rng, aref (w 1) Ast.Ivar, ro_term rng));
      ]
  in
  consumers @ chain

(* Source statement textually before its sink: already LFD. *)
let motif_lfd rng p =
  let c = Prng.choose rng carriers in
  let d = distance rng p in
  let out = Prng.choose rng noise_outs in
  [
    mk (Ast.Larr (c, Ast.Ivar)) (ro_expr rng 2);
    mk (Ast.Larr (out, i_plus 0)) (Ast.Bin (value_op rng, aref c (i_plus (-d)), ro_term rng));
  ]

(* s = s + e : removed by reduction replacement unless guarded. *)
let motif_reduction rng _p = [ mk (Ast.Lscalar "s") (Ast.Bin (Ast.Add, Ast.Scalar "s", ro_term rng)) ]

(* k = k + c with a value use. *)
let motif_iv rng _p =
  let step = Prng.int_in rng 1 3 in
  [
    mk (Ast.Lscalar "k") (Ast.Bin (Ast.Add, Ast.Scalar "k", num step));
    mk (Ast.Larr (Prng.choose rng noise_outs, Ast.Ivar))
      (Ast.Bin (Ast.Mul, Ast.Scalar "k", ro_term rng));
  ]

(* X[IDX[I]] = e : unanalyzable subscript, the "others" category. *)
let motif_indirect rng _p =
  let c = Prng.choose rng carriers in
  [ mk (Ast.Larr (c, aref "IDX" Ast.Ivar)) (ro_expr rng 1) ]

let motif_noise rng k =
  mk
    (Ast.Larr ("N" ^ string_of_int k, i_plus (Prng.int_in rng (-1) 1)))
    (ro_expr rng 2)

(* A DOALL body: independent writes only. *)
let doall_body rng p =
  let n = Prng.int_in rng p.Profile.stmts_min p.Profile.stmts_max in
  List.init n (fun k -> maybe_guard rng p (motif_noise rng k))

let doacross_body rng p ~loop_idx =
  let motifs = ref [] in
  let add m = motifs := !motifs @ m in
  (* Primary dependence motif. *)
  (if Prng.bool rng p.Profile.lfd_frac then add (motif_lfd rng p)
   else if Prng.bool rng p.Profile.tight_recurrence_frac then add (motif_tight rng p)
   else add (motif_chain rng p ~wid:loop_idx));
  (* Optional secondary motifs. *)
  if Prng.bool rng p.Profile.reduction_frac then add (motif_reduction rng p);
  if Prng.bool rng p.Profile.iv_frac then add (motif_iv rng p);
  if Prng.bool rng p.Profile.indirect_frac then add (motif_indirect rng p);
  (* Guards on motif statements (control dependence category). *)
  let motifs = List.map (maybe_guard rng p) !motifs in
  (* Filler. *)
  let n_noise = Prng.int_in rng (p.Profile.noise_max / 2) p.Profile.noise_max in
  let noise = List.init n_noise (fun k -> motif_noise rng (100 + k)) in
  (* Interleave noise after the first motif statement, keeping motif
     order (sinks stay before sources: the LBD survives). *)
  match motifs with
  | [] -> noise
  | first :: rest -> (first :: noise) @ rest

let relabel body = List.mapi (fun i s -> { s with Ast.label = "S" ^ string_of_int (i + 1) }) body

(* One loop of the (conceptually infinite) generated stream.  The
   per-loop generator is addressed by [Prng.split_nth], so [nth] is a
   pure function of (profile, idx): a scaled corpus is an exact
   superset of the unscaled one, and shards can be produced in any
   order on any domain with identical results. *)
let nth (p : Profile.t) idx =
  let lrng = Prng.split_nth (Prng.create p.Profile.seed) idx in
  let doall = Prng.bool lrng p.Profile.doall_frac in
  let body =
    if doall then doall_body lrng p else doacross_body lrng p ~loop_idx:(idx + 1)
  in
  let loop =
    Ast.make_loop
      ~kind:(if doall then Ast.Do else Ast.Doacross)
      ~index:"I" ~lo:1 ~hi:p.Profile.n_iters ~body:(relabel body)
      ~name:(p.Profile.name ^ ".G" ^ string_of_int (idx + 1))
  in
  Isched_frontend.Sema.check_exn loop;
  loop

let generate_range (p : Profile.t) ~lo ~hi =
  if lo < 0 || hi < lo then invalid_arg "Genloop.generate_range";
  List.init (hi - lo) (fun k -> nth p (lo + k))

let generate ?(scale = 1) (p : Profile.t) =
  if scale < 1 then invalid_arg "Genloop.generate: scale must be >= 1";
  generate_range p ~lo:0 ~hi:(p.Profile.n_generated * scale)
