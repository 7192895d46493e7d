(* Unit and property tests for the SMT substrate: bitvectors, terms,
   intervals, the SAT solver and the solver pipeline. *)

module Bv = Smt.Bv
module Expr = Smt.Expr
module Interval = Smt.Interval
module Sat = Smt.Sat
module Solver = Smt.Solver
module Model = Smt.Model

let bv w v = Bv.make ~width:w v
let check_bv msg expected actual =
  Alcotest.(check string) msg (Bv.to_string expected) (Bv.to_string actual)

(* ------------------------------------------------------------------ *)
(* Bv unit tests                                                       *)

let test_bv_make_masks () =
  check_bv "truncated to width" (bv 8 0x34L) (bv 8 0x1234L);
  Alcotest.(check int) "width" 8 (Bv.width (bv 8 0xFFL));
  Alcotest.(check int64) "value" 0xFFL (Bv.to_int64 (Bv.ones 8))

let test_bv_signed () =
  Alcotest.(check int64) "sign extend" (-1L) (Bv.to_signed_int64 (Bv.ones 8));
  Alcotest.(check int64) "positive" 0x7FL (Bv.to_signed_int64 (bv 8 0x7FL));
  Alcotest.(check int64) "64-bit identity" (-1L) (Bv.to_signed_int64 (Bv.ones 64))

let test_bv_wrap_arithmetic () =
  check_bv "add wraps" (bv 8 1L) (Bv.add (bv 8 0xFFL) (bv 8 2L));
  check_bv "sub wraps" (bv 8 0xFFL) (Bv.sub (bv 8 1L) (bv 8 2L));
  check_bv "mul wraps" (bv 8 0xB5L) (Bv.mul (bv 8 0x15L) (bv 8 0x21L));
  check_bv "neg" (bv 8 0xFFL) (Bv.neg (bv 8 1L))

let test_bv_div_conventions () =
  (* SMT-LIB: x udiv 0 = ones, x urem 0 = x. *)
  check_bv "udiv by zero" (Bv.ones 8) (Bv.udiv (bv 8 7L) (Bv.zero 8));
  check_bv "urem by zero" (bv 8 7L) (Bv.urem (bv 8 7L) (Bv.zero 8));
  check_bv "udiv" (bv 8 3L) (Bv.udiv (bv 8 13L) (bv 8 4L));
  check_bv "urem" (bv 8 1L) (Bv.urem (bv 8 13L) (bv 8 4L));
  (* Signed: -7 / 2 = -3 (truncating), -7 rem 2 = -1. *)
  check_bv "sdiv trunc" (bv 8 0xFDL) (Bv.sdiv (bv 8 0xF9L) (bv 8 2L));
  check_bv "srem sign" (bv 8 0xFFL) (Bv.srem (bv 8 0xF9L) (bv 8 2L));
  (* min_int / -1 wraps to min_int; rem 0. *)
  check_bv "sdiv overflow" (bv 8 0x80L) (Bv.sdiv (bv 8 0x80L) (bv 8 0xFFL));
  check_bv "srem overflow" (Bv.zero 8) (Bv.srem (bv 8 0x80L) (bv 8 0xFFL));
  check_bv "sdiv by zero, positive" (Bv.ones 8) (Bv.sdiv (bv 8 7L) (Bv.zero 8));
  check_bv "sdiv by zero, negative" (Bv.one 8) (Bv.sdiv (bv 8 0xF9L) (Bv.zero 8))

let test_bv_shifts () =
  check_bv "shl" (bv 8 0xF0L) (Bv.shl (bv 8 0x0FL) (bv 8 4L));
  check_bv "shl overflow" (Bv.zero 8) (Bv.shl (bv 8 0xFFL) (bv 8 8L));
  check_bv "lshr" (bv 8 0x0FL) (Bv.lshr (bv 8 0xF0L) (bv 8 4L));
  check_bv "ashr negative" (Bv.ones 8) (Bv.ashr (bv 8 0x80L) (bv 8 7L));
  check_bv "ashr saturates" (Bv.ones 8) (Bv.ashr (bv 8 0x80L) (bv 8 100L));
  check_bv "lshr saturates" (Bv.zero 8) (Bv.lshr (bv 8 0xFFL) (bv 8 100L))

let test_bv_structure () =
  check_bv "extract" (bv 4 0xAL) (Bv.extract ~hi:7 ~lo:4 (bv 8 0xA5L));
  check_bv "concat" (bv 16 0xA5B6L) (Bv.concat (bv 8 0xA5L) (bv 8 0xB6L));
  check_bv "zext" (bv 16 0xFFL) (Bv.zext 8 (Bv.ones 8));
  check_bv "sext" (bv 16 0xFFFFL) (Bv.sext 8 (Bv.ones 8));
  Alcotest.(check bool) "bit set" true (Bv.bit (bv 8 0x10L) 4);
  Alcotest.(check bool) "bit clear" false (Bv.bit (bv 8 0x10L) 3)

let test_bv_compare () =
  Alcotest.(check bool) "ult unsigned" true (Bv.ult (bv 8 1L) (bv 8 0xFFL));
  Alcotest.(check bool) "slt signed" true (Bv.slt (bv 8 0xFFL) (bv 8 1L));
  Alcotest.(check bool) "ule refl" true (Bv.ule (bv 8 9L) (bv 8 9L));
  Alcotest.(check bool) "sle" true (Bv.sle (bv 8 0x80L) (bv 8 0x7FL))

let test_bv_invalid () =
  Alcotest.check_raises "width 0" (Invalid_argument "Bv: width must be in 1..64")
    (fun () -> ignore (Bv.zero 0));
  Alcotest.check_raises "width 65" (Invalid_argument "Bv: width must be in 1..64")
    (fun () -> ignore (Bv.zero 65));
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Bv.add: width mismatch (8 vs 16)") (fun () ->
        ignore (Bv.add (Bv.zero 8) (Bv.zero 16)))

(* ------------------------------------------------------------------ *)
(* Bv properties                                                       *)

let arb_bv w =
  QCheck.map
    (fun v -> Bv.make ~width:w (Int64.of_int v))
    QCheck.(int_bound 0xFFFF)

let prop name ?(count = 300) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let bv_props =
  let w = 13 in
  [
    prop "add commutative" (QCheck.pair (arb_bv w) (arb_bv w)) (fun (a, b) ->
        Bv.equal (Bv.add a b) (Bv.add b a));
    prop "add associative"
      (QCheck.triple (arb_bv w) (arb_bv w) (arb_bv w))
      (fun (a, b, c) ->
         Bv.equal (Bv.add (Bv.add a b) c) (Bv.add a (Bv.add b c)));
    prop "sub is add neg" (QCheck.pair (arb_bv w) (arb_bv w)) (fun (a, b) ->
        Bv.equal (Bv.sub a b) (Bv.add a (Bv.neg b)));
    prop "udiv/urem reconstruct" (QCheck.pair (arb_bv w) (arb_bv w))
      (fun (a, b) ->
         QCheck.assume (not (Bv.is_zero b));
         Bv.equal a (Bv.add (Bv.mul (Bv.udiv a b) b) (Bv.urem a b)));
    prop "concat/extract roundtrip" (QCheck.pair (arb_bv w) (arb_bv w))
      (fun (a, b) ->
         let c = Bv.concat a b in
         Bv.equal a (Bv.extract ~hi:(2 * w - 1) ~lo:w c)
         && Bv.equal b (Bv.extract ~hi:(w - 1) ~lo:0 c));
    prop "lognot involutive" (arb_bv w) (fun a ->
        Bv.equal a (Bv.lognot (Bv.lognot a)));
    prop "de morgan" (QCheck.pair (arb_bv w) (arb_bv w)) (fun (a, b) ->
        Bv.equal
          (Bv.lognot (Bv.logand a b))
          (Bv.logor (Bv.lognot a) (Bv.lognot b)));
    prop "ult total" (QCheck.pair (arb_bv w) (arb_bv w)) (fun (a, b) ->
        Bv.ult a b || Bv.ult b a || Bv.equal a b);
    prop "sext preserves signed value" (arb_bv w) (fun a ->
        Int64.equal (Bv.to_signed_int64 a) (Bv.to_signed_int64 (Bv.sext 7 a)));
  ]

(* ------------------------------------------------------------------ *)
(* Expr: smart constructors and evaluation                             *)

let e_int v = Expr.int ~width:32 v

let test_expr_hash_consing () =
  let x = Expr.fresh_var "x" 32 in
  let a = Expr.add x (e_int 5) in
  let b = Expr.add x (e_int 5) in
  Alcotest.(check bool) "physically equal" true (Expr.equal a b);
  let c = Expr.add (e_int 5) x in
  Alcotest.(check bool) "commuted shares" true (Expr.equal a c)

let test_expr_folding () =
  Alcotest.(check bool) "const add" true
    (Expr.equal (Expr.add (e_int 2) (e_int 3)) (e_int 5));
  let x = Expr.fresh_var "x" 32 in
  Alcotest.(check bool) "x+0 = x" true (Expr.equal (Expr.add x (e_int 0)) x);
  Alcotest.(check bool) "x*1 = x" true (Expr.equal (Expr.mul x (e_int 1)) x);
  Alcotest.(check bool) "x*0 = 0" true
    (Expr.equal (Expr.mul x (e_int 0)) (e_int 0));
  Alcotest.(check bool) "x-x = 0" true
    (Expr.equal (Expr.sub x x) (e_int 0));
  Alcotest.(check bool) "x&x = x" true (Expr.equal (Expr.band x x) x);
  Alcotest.(check bool) "x^x = 0" true
    (Expr.equal (Expr.bxor x x) (e_int 0));
  Alcotest.(check bool) "eq refl" true (Expr.equal (Expr.eq x x) Expr.tru);
  Alcotest.(check bool) "x < x false" true (Expr.equal (Expr.ult x x) Expr.fls);
  Alcotest.(check bool) "x <= ones" true
    (Expr.equal (Expr.ule x (e_int (-1))) Expr.tru);
  Alcotest.(check bool) "not not" true (Expr.equal (Expr.not_ (Expr.not_ (Expr.eq x (e_int 1)))) (Expr.eq x (e_int 1)));
  Alcotest.(check bool) "ite same" true (Expr.equal (Expr.ite (Expr.eq x x) x x) x);
  Alcotest.(check bool) "zext id" true (Expr.equal (Expr.zext 32 x) x)

let test_expr_extract_rewrites () =
  let x = Expr.fresh_var "x" 32 in
  let ext = Expr.extract ~hi:15 ~lo:8 (Expr.extract ~hi:23 ~lo:0 x) in
  Alcotest.(check bool) "nested extract" true
    (Expr.equal ext (Expr.extract ~hi:15 ~lo:8 x));
  let z = Expr.zext 64 x in
  Alcotest.(check bool) "extract of zext low part" true
    (Expr.equal (Expr.extract ~hi:7 ~lo:0 z) (Expr.extract ~hi:7 ~lo:0 x));
  Alcotest.(check bool) "extract of zext high part is zero" true
    (Expr.equal (Expr.extract ~hi:63 ~lo:32 z) (Expr.int ~width:32 0))

(* Pruning drops exactly the terms over variables allocated after the
   mark; everything older, and every newer term over older variables,
   keeps its identity. *)
let test_expr_prune_since () =
  let x = Expr.fresh_var "prune_old" 8 in
  let build v = Expr.add (Expr.mul v v) (Expr.int ~width:8 3) in
  let older = build x in
  let mark = Expr.mark () in
  let y = Expr.fresh_var "prune_new" 8 in
  let mixed = Expr.add older y in
  let newer_over_x = Expr.bxor x (Expr.int ~width:8 5) in
  let before = Expr.term_count () in
  Expr.prune_since mark;
  Alcotest.(check int) "the new variable and the mixed term dropped"
    (before - 2) (Expr.term_count ());
  Alcotest.(check bool) "older term rebuilt physically equal" true
    (build x == older);
  Alcotest.(check bool) "newer term over an older variable kept" true
    (Expr.bxor x (Expr.int ~width:8 5) == newer_over_x);
  Alcotest.(check bool) "term over a newer variable dropped" true
    (Expr.add older y != mixed)

let test_expr_vars () =
  let x = Expr.fresh_var "x" 8 and y = Expr.fresh_var "y" 8 in
  let e = Expr.add (Expr.mul x y) x in
  let names = List.map (fun (v : Expr.var) -> v.Expr.var_name) (Expr.vars e) in
  Alcotest.(check (list string)) "distinct vars in order" [ "x"; "y" ] names

let test_expr_eval () =
  let x = Expr.fresh_var "x" 8 in
  let lookup _ = Bv.make ~width:8 10L in
  let e = Expr.add (Expr.mul x x) (Expr.int ~width:8 1) in
  check_bv "eval 10*10+1 mod 256" (bv 8 101L) (Expr.eval lookup e);
  Alcotest.(check bool) "eval_bool" true
    (Expr.eval_bool lookup (Expr.ult x (Expr.int ~width:8 11)))

(* Random expression ASTs: build both a semantic closure and a term, and
   compare under random assignments — the simplifier must be sound. *)
type ast =
  | Leaf of int (* var index *)
  | Const of int64
  | Node of int * ast * ast

let rec gen_ast depth st =
  if depth = 0 || Random.State.int st 3 = 0 then
    if Random.State.bool st then Leaf (Random.State.int st 3)
    else Const (Random.State.int64 st 256L)
  else
    Node
      ( Random.State.int st 9,
        gen_ast (depth - 1) st,
        gen_ast (depth - 1) st )

let ops =
  [|
    (Expr.add, Bv.add); (Expr.sub, Bv.sub); (Expr.mul, Bv.mul);
    (Expr.band, Bv.logand); (Expr.bor, Bv.logor); (Expr.bxor, Bv.logxor);
    (Expr.shl, Bv.shl); (Expr.lshr, Bv.lshr); (Expr.ashr, Bv.ashr);
  |]

let rec ast_to_expr vars = function
  | Leaf i -> vars.(i)
  | Const v -> Expr.const (Bv.make ~width:8 v)
  | Node (op, a, b) ->
    (fst ops.(op)) (ast_to_expr vars a) (ast_to_expr vars b)

let rec ast_eval env = function
  | Leaf i -> env.(i)
  | Const v -> Bv.make ~width:8 v
  | Node (op, a, b) -> (snd ops.(op)) (ast_eval env a) (ast_eval env b)

let test_simplifier_soundness () =
  let st = Random.State.make [| 7 |] in
  let vars = Array.init 3 (fun i -> Expr.fresh_var (Printf.sprintf "v%d" i) 8) in
  for _ = 1 to 500 do
    let ast = gen_ast 4 st in
    let term = ast_to_expr vars ast in
    let env = Array.init 3 (fun _ -> Bv.make ~width:8 (Random.State.int64 st 256L)) in
    let lookup (v : Expr.var) =
      (* var names are v0..v2 *)
      env.(int_of_string (String.sub v.Expr.var_name 1 1))
    in
    let expected = ast_eval env ast in
    let actual = Expr.eval lookup term in
    if not (Bv.equal expected actual) then
      Alcotest.failf "simplifier unsound on %s: %s <> %s"
        (Expr.to_string term) (Bv.to_string expected) (Bv.to_string actual)
  done

(* ------------------------------------------------------------------ *)
(* Interval                                                            *)

let test_interval_unsat () =
  let x = Expr.fresh_var "x" 32 in
  let env = Interval.make_env () in
  let verdict =
    Interval.propagate env
      [ Expr.ult x (e_int 51); Expr.ugt x (e_int 100) ]
  in
  Alcotest.(check bool) "range conflict" true
    (verdict = Interval.Definitely_unsat)

let test_interval_refine () =
  let x = Expr.fresh_var "x" 32 in
  let env = Interval.make_env () in
  let verdict =
    Interval.propagate env [ Expr.ult x (e_int 10); Expr.ugt x (e_int 2) ]
  in
  Alcotest.(check bool) "feasible" true (verdict = Interval.Unknown);
  (match Expr.vars (Expr.add x (e_int 0)) with
   | [ v ] ->
     let itv = Interval.env_interval env v in
     Alcotest.(check int64) "lo" 3L itv.Interval.lo;
     Alcotest.(check int64) "hi" 9L itv.Interval.hi
   | _ -> Alcotest.fail "expected one var")

let test_interval_bounds_sound () =
  let st = Random.State.make [| 11 |] in
  let x = Expr.fresh_var "bx" 8 and y = Expr.fresh_var "by" 8 in
  for _ = 1 to 300 do
    let ast = gen_ast 3 st in
    let term = ast_to_expr [| x; y; x |] ast in
    let vx = Bv.make ~width:8 (Random.State.int64 st 256L) in
    let vy = Bv.make ~width:8 (Random.State.int64 st 256L) in
    let lookup (v : Expr.var) = if v.Expr.var_name = "bx" then vx else vy in
    let value = Expr.eval lookup term in
    let env = Interval.make_env () in
    let itv = Interval.bounds env term in
    if not (Interval.mem value itv) then
      Alcotest.failf "interval unsound: %s not in %s for %s"
        (Bv.to_string value)
        (Format.asprintf "%a" Interval.pp itv)
        (Expr.to_string term)
  done

(* ------------------------------------------------------------------ *)
(* SAT solver                                                          *)

let test_sat_simple () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Sat.add_clause s [ -a; b ];
  Alcotest.(check bool) "sat" true (Sat.solve s = Sat.Sat);
  Alcotest.(check bool) "b true" true (Sat.value s b)

let test_sat_unsat () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Sat.add_clause s [ a; -b ];
  Sat.add_clause s [ -a; b ];
  Sat.add_clause s [ -a; -b ];
  Alcotest.(check bool) "unsat" true (Sat.solve s = Sat.Unsat)

let test_sat_empty_clause () =
  let s = Sat.create () in
  ignore (Sat.new_var s);
  Sat.add_clause s [];
  Alcotest.(check bool) "unsat" true (Sat.solve s = Sat.Unsat)

let test_sat_tautology_dropped () =
  let s = Sat.create () in
  let a = Sat.new_var s in
  Sat.add_clause s [ a; -a ];
  Alcotest.(check bool) "sat" true (Sat.solve s = Sat.Sat)

(* [add_clause] intake: every simplification is observable through
   [num_clauses] (clauses kept) and the answers that follow. *)
let test_sat_add_clause_intake () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s and c = Sat.new_var s in
  Sat.add_clause s [ a; -a; b ];
  Alcotest.(check int) "tautology dropped" 0 (Sat.num_clauses s);
  Sat.add_clause s [ b; a; b; a ];
  Alcotest.(check int) "duplicates kept once" 1 (Sat.num_clauses s);
  Alcotest.(check bool) "deduplicated clause binds" true
    (Sat.solve ~assumptions:[ -a; -b ] s = Sat.Unsat);
  Sat.add_clause s [ -c ];
  Sat.add_clause s [ c; a; c ];
  Alcotest.(check int) "level-0-false literal filtered to a unit" 3
    (Sat.num_clauses s);
  Alcotest.(check bool) "filtered unit holds" true
    (Sat.solve ~assumptions:[ -a ] s = Sat.Unsat);
  Sat.add_clause s [ a; b; c ];
  Alcotest.(check int) "clause satisfied at level 0 dropped" 3
    (Sat.num_clauses s);
  Alcotest.(check bool) "still sat" true (Sat.solve s = Sat.Sat);
  Sat.add_clause s [];
  Alcotest.(check bool) "empty clause latches unsat" true
    (Sat.solve s = Sat.Unsat);
  Sat.add_clause s [ b ];
  Alcotest.(check bool) "latched for good" true (Sat.solve s = Sat.Unsat)

(* After a [Sat] answer the trail holds decisions; intake must judge
   literals against level 0 only. *)
let test_sat_add_clause_after_sat () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s and c = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Alcotest.(check bool) "sat" true (Sat.solve s = Sat.Sat);
  let t = if Sat.value s a then a else b in
  (* [t] is true only above level 0: the clause is neither satisfied
     nor shortened. *)
  Sat.add_clause s [ t; c ];
  Alcotest.(check int) "clause kept" 2 (Sat.num_clauses s);
  Sat.add_clause s [ -t ];
  Alcotest.(check bool) "other literal carries [a; b]" true
    (Sat.solve s = Sat.Sat && Sat.value s (if t = a then b else a));
  Alcotest.(check bool) "[t; c] was kept whole" true
    (Sat.solve ~assumptions:[ -c ] s = Sat.Unsat);
  Alcotest.(check bool) "not latched" true (Sat.solve s = Sat.Sat)

(* Random 3-SAT cross-checked against brute force. *)
let brute_force_sat nvars clauses =
  let rec go assignment v =
    if v > nvars then
      List.for_all
        (fun clause ->
           List.exists
             (fun l ->
                let value = List.nth assignment (abs l - 1) in
                if l > 0 then value else not value)
             clause)
        clauses
    else go (assignment @ [ true ]) (v + 1) || go (assignment @ [ false ]) (v + 1)
  in
  go [] 1

let test_sat_random_vs_brute () =
  let st = Random.State.make [| 3 |] in
  for _ = 1 to 150 do
    let nvars = 2 + Random.State.int st 8 in
    let nclauses = 1 + Random.State.int st 30 in
    let clauses =
      List.init nclauses (fun _ ->
          List.init 3 (fun _ ->
              let v = 1 + Random.State.int st nvars in
              if Random.State.bool st then v else -v))
    in
    let s = Sat.create () in
    for _ = 1 to nvars do
      ignore (Sat.new_var s)
    done;
    List.iter (Sat.add_clause s) clauses;
    let got = Sat.solve s = Sat.Sat in
    let expected = brute_force_sat nvars clauses in
    if got <> expected then
      Alcotest.failf "sat mismatch on %d vars, %d clauses: got %b want %b"
        nvars nclauses got expected;
    (* When SAT, the model must satisfy every clause. *)
    if got then
      List.iter
        (fun clause ->
           let ok =
             List.exists
               (fun l ->
                  let value = Sat.value s (abs l) in
                  if l > 0 then value else not value)
               clause
           in
           if not ok then Alcotest.fail "model does not satisfy clause")
        clauses
  done

(* ------------------------------------------------------------------ *)
(* Solver pipeline                                                     *)

let test_solver_basic () =
  let x = Expr.fresh_var "sx" 32 and y = Expr.fresh_var "sy" 32 in
  let constraints =
    [
      Expr.ult x (e_int 51);
      Expr.ugt x (e_int 0);
      Expr.eq (Expr.add x y) (e_int 100);
    ]
  in
  (match Solver.check constraints with
   | Solver.Sat m ->
     Alcotest.(check bool) "model satisfies" true (Model.satisfies m constraints)
   | Solver.Unsat | Solver.Unknown _ -> Alcotest.fail "expected sat");
  Alcotest.(check bool) "unsat" false
    (Solver.is_sat [ Expr.ult x (e_int 5); Expr.ugt x (e_int 10) ])

let test_solver_empty_and_const () =
  Alcotest.(check bool) "empty is sat" true (Solver.is_sat []);
  Alcotest.(check bool) "true is sat" true (Solver.is_sat [ Expr.tru ]);
  Alcotest.(check bool) "false is unsat" false (Solver.is_sat [ Expr.fls ])

let test_solver_nonlinear () =
  let x = Expr.fresh_var "nx" 32 in
  (* x * x == 225 has solutions (15, ...); check via multiplication. *)
  match Solver.check [ Expr.eq (Expr.mul x x) (e_int 225) ] with
  | Solver.Sat m ->
    let v = Model.eval m x in
    let sq = Bv.mul v v in
    check_bv "model squares to 225" (Bv.of_int ~width:32 225) sq
  | Solver.Unsat | Solver.Unknown _ -> Alcotest.fail "expected sat"

(* Differential gate for the whole solving stack: random queries over
   two variables of width 1-6, built from every [Expr] operator with
   constant operands mixed in (so partially-constant circuits reach the
   bit-blaster past [Expr]'s both-constant folding), decided by
   brute-force enumeration and by three encodings — straight through
   [Bitblast] on a fresh [Sat.t], through [Solver.check] on a retained
   scope that first sees each constraint alone, so the conjunction
   reuses gates across queries, and through the scope-less scratch
   pipeline that model-consuming queries take.  Terms are generated as
   builders over the two variables so the same shape can be
   instantiated on fresh variables (for the run) and on named ones
   (for the counterexample printout). *)
type builder = Expr.t -> Expr.t -> Expr.t

let max_diff_width = 6

(* Variable [v] of width [vw] fitted to width [w]. *)
let fit vw w v =
  if w = vw then v
  else if w < vw then Expr.extract ~hi:(w - 1) ~lo:0 v
  else Expr.zext w v

let rec gen_bv vw w depth st : builder =
  let sub w' = gen_bv vw w' (depth - 1) st in
  let leaf () =
    match Random.State.int st 3 with
    | 0 -> fun x _ -> fit vw w x
    | 1 -> fun _ y -> fit vw w y
    | _ ->
      let k = Bv.make ~width:w (Random.State.int64 st (Int64.shift_left 1L w)) in
      fun _ _ -> Expr.const k
  in
  let bin f =
    let a = sub w and b = sub w in
    fun x y -> f (a x y) (b x y)
  in
  if depth = 0 then leaf ()
  else
    match Random.State.int st 22 with
    | 0 | 1 | 2 -> leaf ()
    | 3 -> bin Expr.add
    | 4 -> bin Expr.sub
    | 5 -> bin Expr.mul
    | 6 -> bin Expr.udiv
    | 7 -> bin Expr.urem
    | 8 -> bin Expr.sdiv
    | 9 -> bin Expr.srem
    | 10 -> bin Expr.band
    | 11 -> bin Expr.bor
    | 12 -> bin Expr.bxor
    | 13 -> let a = sub w in fun x y -> Expr.bnot (a x y)
    | 14 -> bin Expr.shl
    | 15 -> bin Expr.lshr
    | 16 -> bin Expr.ashr
    | 17 ->
      let c = gen_bool vw (depth - 1) st and a = sub w and b = sub w in
      fun x y -> Expr.ite (c x y) (a x y) (b x y)
    | 18 when w >= 2 ->
      let lo_w = 1 + Random.State.int st (w - 1) in
      let hi = sub (w - lo_w) and lo = sub lo_w in
      fun x y -> Expr.concat (hi x y) (lo x y)
    | 19 ->
      let w' = w + Random.State.int st (max_diff_width - w + 1) in
      let lo = Random.State.int st (w' - w + 1) in
      let a = sub w' in
      fun x y -> Expr.extract ~hi:(lo + w - 1) ~lo (a x y)
    | 20 when w >= 2 ->
      let a = sub (1 + Random.State.int st (w - 1)) in
      fun x y -> Expr.zext w (a x y)
    | 21 when w >= 2 ->
      let a = sub (1 + Random.State.int st (w - 1)) in
      fun x y -> Expr.sext w (a x y)
    | _ -> leaf ()

and gen_bool vw depth st : builder =
  let cmp f =
    let w = 1 + Random.State.int st max_diff_width in
    let a = gen_bv vw w depth st and b = gen_bv vw w depth st in
    fun x y -> f (a x y) (b x y)
  in
  let sub () = gen_bool vw (depth - 1) st in
  match Random.State.int st (if depth = 0 then 5 else 9) with
  | 0 -> cmp Expr.eq
  | 1 -> cmp Expr.ult
  | 2 -> cmp Expr.ule
  | 3 -> cmp Expr.slt
  | 4 -> cmp Expr.sle
  | 5 -> let a = sub () in fun x y -> Expr.not_ (a x y)
  | 6 -> let a = sub () and b = sub () in fun x y -> Expr.and_ (a x y) (b x y)
  | 7 -> let a = sub () and b = sub () in fun x y -> Expr.or_ (a x y) (b x y)
  | _ ->
    let c = sub () and a = sub () and b = sub () in
    fun x y -> Expr.ite (c x y) (a x y) (b x y)

type diff_query = { vw : int; build : Expr.t -> Expr.t -> Expr.t list }

let gen_diff_query st =
  let vw = 1 + Random.State.int st max_diff_width in
  let cs = List.init (1 + Random.State.int st 2) (fun _ -> gen_bool vw 2 st) in
  { vw; build = (fun x y -> List.map (fun c -> c x y) cs) }

let print_diff_query q =
  let x = Expr.fresh_var "x" q.vw and y = Expr.fresh_var "y" q.vw in
  Printf.sprintf "width %d: %s" q.vw
    (String.concat " & " (List.map Expr.to_string (q.build x y)))

let var_of (t : Expr.t) =
  match t.Expr.node with Expr.Var v -> v | _ -> assert false

(* Is some assignment of x (with y the only other variable) a model? *)
let brute_sat vw xv cs =
  let n = 1 lsl vw in
  let holds i =
    let lookup (v : Expr.var) =
      Bv.of_int ~width:vw
        (if v.Expr.var_id = xv.Expr.var_id then i / n else i mod n)
    in
    List.for_all (Expr.eval_bool lookup) cs
  in
  let rec go i = i < n * n && (holds i || go (i + 1)) in
  go 0

let blast_sat xv yv cs =
  let sat = Sat.create () in
  let ctx = Smt.Bitblast.create sat in
  List.iter (Smt.Bitblast.assert_true ctx) cs;
  match Sat.solve sat with
  | Sat.Unsat -> false
  | Sat.Sat ->
    let m = Smt.Bitblast.extract_model ctx [ xv; yv ] in
    if not (Model.satisfies m cs) then
      QCheck.Test.fail_reportf "bit-blast model %s fails evaluation"
        (Model.to_string m);
    true

let solver_sat ?scope cs =
  match Solver.check ?scope cs with
  | Solver.Sat m ->
    if not (Model.satisfies m cs) then
      QCheck.Test.fail_reportf "solver model %s fails evaluation"
        (Model.to_string m);
    true
  | Solver.Unsat -> false
  | Solver.Unknown msg -> QCheck.Test.fail_reportf "unknown: %s" msg

let test_solver_random_vs_brute =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"solver: random vs brute force"
       (QCheck.make ~print:print_diff_query gen_diff_query)
       (fun q ->
          let x = Expr.fresh_var "x" q.vw and y = Expr.fresh_var "y" q.vw in
          let xv = var_of x and yv = var_of y in
          let cs = q.build x y in
          let scope = Solver.Scope.create () in
          (* The scoped and the scratch pipeline each start from empty
             caches, so neither answers from the other's entries. *)
          let agree cs =
            let expected = brute_sat q.vw xv cs in
            let blasted = blast_sat xv yv cs in
            Solver.clear_caches ();
            let scoped = solver_sat ~scope cs in
            Solver.clear_caches ();
            let scratch = solver_sat cs in
            if blasted <> expected || scoped <> expected || scratch <> expected
            then
              QCheck.Test.fail_reportf
                "brute force %b, bit-blast %b, scoped solver %b, scratch \
                 solver %b on %s"
                expected blasted scoped scratch
                (String.concat " & " (List.map Expr.to_string cs));
            true
          in
          List.for_all (fun c -> agree [ c ]) cs && agree cs))

(* [Sat.restore] and [Bitblast.rollback] must turn a used pair back
   into exactly the pair a fresh encoding of the same prefix gives: the
   scratch pipeline keeps one pair and restores it to the prefix each
   query shares with the one before, so any state that survived a
   restore would make scratch models depend on the queries before them.
   One test checkpoints the pair after a prefix query and restores it
   with [Sat.restore] and [Bitblast.rollback]; the other encodes no
   prefix and goes back to the empty pair with [Sat.reset] and
   [Bitblast.reset].  Each case checkpoints the pair, dirties it
   with an encoding and a CNF, optionally abandons it by [Sat.Timeout]
   mid-encoding or mid-search, restores it, and then solves a random
   CNF (with or without assumptions) and a random bitvector query on it
   and on a fresh pair that encoded the same prefix: result, model, CNF
   size and search counters must all match. *)
type reuse_case = {
  r_prefix : bool;             (* checkpoint after a prefix query, or reset *)
  r_vars : int;
  r_cnf : int list list;
  r_assumptions : int list;
  r_prior : int list list;     (* CNF of the earlier use, r_vars + 6 vars *)
  r_abandon : [ `None | `Encoding of int | `Search ];
  r_query : diff_query;
}

(* Mostly 3-literal clauses near the satisfiability threshold, so the
   search sees conflicts, learning and restarts. *)
let gen_cnf st nvars =
  List.init (3 * nvars + Random.State.int st (2 * nvars)) (fun _ ->
      List.init (if Random.State.int st 8 = 0 then 2 else 3) (fun _ ->
          let v = 1 + Random.State.int st nvars in
          if Random.State.bool st then v else -v))

let gen_reuse_case r_prefix st =
  let r_vars = 2 + Random.State.int st 12 in
  let r_assumptions =
    List.init (Random.State.int st 4) (fun _ ->
        let v = 1 + Random.State.int st r_vars in
        if Random.State.bool st then v else -v)
  in
  { r_prefix; r_vars; r_cnf = gen_cnf st r_vars; r_assumptions;
    r_prior = gen_cnf st (r_vars + 6);
    r_abandon =
      (match Random.State.int st 3 with
       | 0 -> `None
       | 1 -> `Encoding (2 + Random.State.int st 3)
       | _ -> `Search);
    r_query = gen_diff_query st }

let print_reuse_case c =
  Printf.sprintf "%s, %d vars, cnf %s, assumptions [%s], abandon %s, query %s"
    (if c.r_prefix then "prefix" else "empty")
    c.r_vars
    (String.concat " & "
       (List.map
          (fun cl -> "(" ^ String.concat " | " (List.map string_of_int cl) ^ ")")
          c.r_cnf))
    (String.concat "; " (List.map string_of_int c.r_assumptions))
    (match c.r_abandon with
     | `None -> "no"
     | `Encoding k -> Printf.sprintf "mid-encoding (poll %d)" k
     | `Search -> "mid-search")
    (print_diff_query c.r_query)

(* Everything observable about one use of an instance. *)
let sat_trace s result model =
  ( result, model, Sat.num_vars s, Sat.num_clauses s, Sat.stats_conflicts s,
    Sat.stats_decisions s, Sat.stats_propagations s )

let solve_cnf s nvars cnf assumptions =
  for _ = 1 to nvars do ignore (Sat.new_var s) done;
  List.iter (Sat.add_clause s) cnf;
  let r = Sat.solve ~assumptions s in
  let model =
    if r = Sat.Sat then List.init nvars (fun i -> Sat.value s (i + 1)) else []
  in
  sat_trace s r model

let solve_query sat ctx xv yv cs =
  List.iter (Smt.Bitblast.assert_true ctx) cs;
  let r = Sat.solve sat in
  let model =
    if r = Sat.Sat then
      Model.to_string (Smt.Bitblast.extract_model ctx [ xv; yv ])
    else ""
  in
  sat_trace sat r model

(* A term of a few hundred nodes, so that encoding polls its stop
   predicate several times. *)
let big_term () =
  let x = Expr.fresh_var "reuse_big" 16 in
  let acc = ref x in
  for i = 1 to 100 do
    acc := Expr.add (Expr.mul !acc x) (Expr.int ~width:16 i)
  done;
  Expr.eq !acc (Expr.int ~width:16 7)

let reuse_test ~prefix name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name
       (QCheck.make ~print:print_reuse_case (gen_reuse_case prefix))
       (fun c ->
          let prefix =
            if c.r_prefix then
              c.r_query.build
                (Expr.fresh_var "xp" c.r_query.vw)
                (Expr.fresh_var "yp" c.r_query.vw)
            else []
          in
          let pair () =
            let sat = Sat.create () in
            let ctx = Smt.Bitblast.create sat in
            List.iter (Smt.Bitblast.assert_true ctx) prefix;
            (sat, ctx)
          in
          let sat, ctx = pair () in
          let ck_sat = Sat.checkpoint sat
          and ck_ctx = Smt.Bitblast.checkpoint ctx in
          let restore () =
            if c.r_prefix then begin
              Sat.restore sat ck_sat;
              Smt.Bitblast.rollback ctx ck_ctx
            end
            else begin
              Sat.reset sat;
              Smt.Bitblast.reset ctx
            end
          in
          (* The earlier use, left standing on the instance: the same
             query shape over other variables (so stale gate hashes
             would collide with the later encoding), then a CNF. *)
          List.iter
            (Smt.Bitblast.assert_true ctx)
            (c.r_query.build
               (Expr.fresh_var "x0" c.r_query.vw)
               (Expr.fresh_var "y0" c.r_query.vw));
          ignore (solve_cnf sat (c.r_vars + 6) c.r_prior c.r_assumptions);
          (match c.r_abandon with
           | `None -> ()
           | `Encoding k ->
             let polls = ref 0 in
             Smt.Bitblast.set_stop ctx
               (Some
                  (fun () ->
                     incr polls;
                     if !polls >= k then raise Sat.Timeout;
                     false));
             let vars0 = Sat.num_vars sat in
             (match Smt.Bitblast.assert_true ctx (big_term ()) with
              | () -> QCheck.Test.fail_report "encoding was not abandoned"
              | exception Sat.Timeout -> ());
             if Sat.num_vars sat = vars0 then
               QCheck.Test.fail_report "abandoned before encoding anything";
             Smt.Bitblast.set_stop ctx None
           | `Search ->
             (match Sat.solve ~deadline:0.0 sat with
              | _ -> ()
              | exception Sat.Timeout -> ()));
          restore ();
          let fresh, _ = pair () in
          if solve_cnf sat c.r_vars c.r_cnf c.r_assumptions
             <> solve_cnf fresh c.r_vars c.r_cnf c.r_assumptions
          then QCheck.Test.fail_report "CNF: restored instance differs from fresh";
          restore ();
          let x = Expr.fresh_var "x" c.r_query.vw
          and y = Expr.fresh_var "y" c.r_query.vw in
          let cs = c.r_query.build x y in
          let fresh, fresh_ctx = pair () in
          let reused = solve_query sat ctx (var_of x) (var_of y) cs in
          let created = solve_query fresh fresh_ctx (var_of x) (var_of y) cs in
          if reused <> created then
            QCheck.Test.fail_report "query: restored pair differs from fresh";
          true))

let test_sat_reset_is_create =
  reuse_test ~prefix:false "sat: reset behaves like create"

let test_sat_restore_is_fresh =
  reuse_test ~prefix:true "sat: restore behaves like a fresh encoding"

(* The scratch pipeline keeps its encoded path-condition prefix between
   queries.  A random push/pop walk over constraints from the
   random-term generator (plus a long chain over its own variable, so
   encoding polls its stop predicate several times) solves the current
   path condition through [Solver.scratch_check] at random points, and
   each solve must match a fresh pair that encodes the same path
   condition oldest first: result, model, CNF size and search counters.
   Some solves are abandoned by [Sat.Timeout] from the stop predicate,
   mid-encoding or mid-search; the solve after one must still match. *)
type walk_step = Push of int | Pop | Solve | Abandon of int

type walk_case = { w_vw : int; w_pool : builder list; w_steps : walk_step list }

let walk_pool = 4

let gen_walk_case st =
  let w_vw = 1 + Random.State.int st max_diff_width in
  let w_pool = List.init walk_pool (fun _ -> gen_bool w_vw 2 st) in
  let step _ =
    match Random.State.int st 10 with
    | 0 | 1 | 2 | 3 ->
      (* Index [walk_pool] is the chain. *)
      Push
        (if Random.State.int st 3 = 0 then walk_pool
         else Random.State.int st walk_pool)
    | 4 | 5 -> Pop
    | 6 | 7 | 8 -> Solve
    | _ -> Abandon (2 + Random.State.int st 3)
  in
  { w_vw; w_pool; w_steps = List.init (8 + Random.State.int st 16) step @ [ Solve ] }

let print_walk_case c =
  let x = Expr.fresh_var "x" c.w_vw and y = Expr.fresh_var "y" c.w_vw in
  Printf.sprintf "width %d, pool [%s], steps %s" c.w_vw
    (String.concat "; " (List.map (fun b -> Expr.to_string (b x y)) c.w_pool))
    (String.concat " "
       (List.map
          (function
            | Push i -> Printf.sprintf "push%d" i
            | Pop -> "pop"
            | Solve -> "solve"
            | Abandon k -> Printf.sprintf "abandon%d" k)
          c.w_steps))

let chain_term () =
  let z = Expr.fresh_var "chain" 6 in
  let acc = ref z in
  for i = 1 to 150 do
    acc := Expr.add (Expr.bxor !acc z) (Expr.int ~width:6 i)
  done;
  Expr.ult !acc (Expr.int ~width:6 9)

let test_scratch_prefix_is_fresh =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"solver: scratch prefix reuse = fresh encoding"
       (QCheck.make ~print:print_walk_case gen_walk_case)
       (fun c ->
          let x = Expr.fresh_var "wx" c.w_vw and y = Expr.fresh_var "wy" c.w_vw in
          let pool =
            Array.of_list (List.map (fun b -> b x y) c.w_pool @ [ chain_term () ])
          in
          let fresh pc =
            let sat = Sat.create () in
            let ctx = Smt.Bitblast.create sat in
            List.iter (Smt.Bitblast.assert_true ctx) (List.rev pc);
            let r = Sat.solve sat in
            let model =
              if r = Sat.Sat then
                Model.to_string
                  (Smt.Bitblast.extract_model ctx (Smt.Slice.vars pc))
              else ""
            in
            sat_trace sat r model
          in
          let scratch pc =
            let s0 = Solver.Stats.get () in
            let r = Solver.scratch_check pc in
            let d = Solver.Stats.sub (Solver.Stats.get ()) s0 in
            let result, model =
              match r with
              | Solver.Sat m -> (Sat.Sat, Model.to_string m)
              | Solver.Unsat -> (Sat.Unsat, "")
              | Solver.Unknown msg -> QCheck.Test.fail_reportf "unknown: %s" msg
            in
            ( result, model, d.Solver.Stats.cnf_vars, d.Solver.Stats.cnf_clauses,
              d.Solver.Stats.sat_conflicts, d.Solver.Stats.sat_decisions,
              d.Solver.Stats.sat_propagations )
          in
          let abandon pc k =
            let polls = ref 0 in
            Solver.set_interrupt_check (fun () ->
                incr polls;
                if !polls >= k then raise Sat.Timeout;
                false);
            Fun.protect
              ~finally:(fun () -> Solver.set_interrupt_check (fun () -> false))
              (fun () -> ignore (Solver.scratch_check pc))
          in
          let pc = ref [] in
          List.iter
            (function
              | Push i -> pc := pool.(i) :: !pc
              | Pop -> (match !pc with [] -> () | _ :: rest -> pc := rest)
              | Solve ->
                if scratch !pc <> fresh !pc then
                  QCheck.Test.fail_reportf "scratch differs from fresh on %s"
                    (String.concat " & " (List.map Expr.to_string !pc))
              | Abandon k -> abandon !pc k)
            c.w_steps;
          true))

(* Gate-level folding: constant operand bits cost no variables. *)
let test_bitblast_constant_folding () =
  let vars_for e =
    let sat = Sat.create () in
    ignore (Smt.Bitblast.literal (Smt.Bitblast.create sat) e);
    Sat.num_vars sat
  in
  let e_int8 = Expr.int ~width:8 in
  let x = Expr.fresh_var "fx" 8 and y = Expr.fresh_var "fy" 8 in
  (* [Expr] folds x & 0 to 0, leaving y's 8 bits, the constant-true
     literal and one n-ary AND over the negated bits of y. *)
  Alcotest.(check int) "x & 0 = y" (8 + 1 + 1)
    (vars_for (Expr.eq (Expr.band x (e_int8 0)) y));
  (* 8 + 8 input bits and the true literal.  Four masked-off bits
     compare y against false (no gate), four need an xnor, plus one
     n-ary AND. *)
  Alcotest.(check int) "x & 0xF0 = y" (17 + 4 + 1)
    (vars_for (Expr.eq (Expr.band x (e_int8 0xF0)) y));
  (* x < 5: 8 input bits, the true literal, and one carry gate per bit
     above bit 0 (bit 0 of 5 is set, so its carry folds to x0). *)
  Alcotest.(check int) "x < 5" (9 + 7) (vars_for (Expr.ult x (e_int8 5)));
  (* x * 4 is wiring: the product bits are x shifted, with no gates. *)
  Alcotest.(check int) "x * 4 = y" (17 + 6 + 1)
    (vars_for (Expr.eq (Expr.mul x (e_int8 4)) y));
  (* 1 << x: one n-ary OR over x7..x3 for saturation; 0 + 4 + 8 gates
     over the three stages, since the constant input bits fold and
     stage 0 is wiring (bit 0 is -x0, bit 1 is x0); 8 ANDs clearing
     the result on saturation; y = that costs 8 xnors and the AND. *)
  Alcotest.(check int) "1 << x = y" (17 + 1 + 12 + 8 + 8 + 1)
    (vars_for (Expr.eq (Expr.shl (e_int8 1) x) y))

(* Structural hashing: a second term with a different [Expr] id but
   the same circuit allocates nothing. *)
let test_bitblast_strash_hit () =
  let sat = Sat.create () in
  let ctx = Smt.Bitblast.create sat in
  let x = Expr.fresh_var "hx" 8 and y = Expr.fresh_var "hy" 8 in
  let z = Expr.fresh_var "hz" 8 in
  let first = Expr.eq (Expr.bnot (Expr.band x y)) z in
  let second = Expr.eq (Expr.bor (Expr.bnot x) (Expr.bnot y)) z in
  let split = Expr.concat (Expr.extract ~hi:7 ~lo:4 x) (Expr.extract ~hi:3 ~lo:0 x) in
  let sum = Expr.ult (Expr.add x y) z in
  let sum' = Expr.ult (Expr.add split y) z in
  Alcotest.(check bool) "distinct terms" true
    (first != second && sum != sum');
  let l1 = Smt.Bitblast.literal ctx first in
  let l2 = Smt.Bitblast.literal ctx sum in
  let n = Sat.num_vars sat and m = Sat.num_clauses sat in
  Alcotest.(check int) "De Morgan twin shares the literal" l1
    (Smt.Bitblast.literal ctx second);
  Alcotest.(check int) "rewired adder shares the literal" l2
    (Smt.Bitblast.literal ctx sum');
  Alcotest.(check int) "no new variables" n (Sat.num_vars sat);
  Alcotest.(check int) "no new clauses" m (Sat.num_clauses sat)

let test_solver_cache () =
  Solver.clear_caches ();
  Solver.Stats.reset ();
  let x = Expr.fresh_var "cx" 32 in
  let q = [ Expr.ugt x (e_int 5); Expr.ult x (e_int 9) ] in
  ignore (Solver.check q);
  ignore (Solver.check q);
  let stats = Solver.Stats.get () in
  Alcotest.(check bool) "second query cached" true
    (stats.Solver.Stats.cache_hits >= 1)

let test_solver_shifts_and_division () =
  let x = Expr.fresh_var "dx" 32 in
  (match Solver.check [ Expr.eq (Expr.shl (e_int 1) x) (e_int 1024) ] with
   | Solver.Sat m -> check_bv "1 << x = 1024" (Bv.of_int ~width:32 10) (Model.eval m x)
   | Solver.Unsat | Solver.Unknown _ -> Alcotest.fail "expected sat");
  (match Solver.check [ Expr.eq (Expr.udiv (e_int 100) x) (e_int 25) ] with
   | Solver.Sat m ->
     check_bv "100 / x = 25" (Bv.of_int ~width:32 4) (Model.eval m x)
   | Solver.Unsat | Solver.Unknown _ -> Alcotest.fail "expected sat");
  (* division by zero convention is solver-visible: x udiv 0 = ones *)
  Alcotest.(check bool) "udiv by zero = ones" true
    (Solver.is_sat [ Expr.eq (Expr.udiv x (e_int 0)) (e_int (-1)) ])

(* ------------------------------------------------------------------ *)
(* Constraint-independence slicing                                     *)

let test_slice_partition () =
  let x = Expr.fresh_var "px" 32
  and y = Expr.fresh_var "py" 32
  and z = Expr.fresh_var "pz" 32 in
  let a = Expr.ult x (e_int 10)
  and b = Expr.ugt y (e_int 3)
  and c = Expr.eq (Expr.add x z) (e_int 7)
  and d = Expr.ult y (e_int 9) in
  (* a and c share x (transitively pulling in z); b and d share y. *)
  (match Smt.Slice.partition [ a; b; c; d ] with
   | [ s1; s2 ] ->
     Alcotest.(check (list string)) "slice of x,z keeps input order"
       (List.map Expr.to_string [ a; c ])
       (List.map Expr.to_string s1);
     Alcotest.(check (list string)) "slice of y keeps input order"
       (List.map Expr.to_string [ b; d ])
       (List.map Expr.to_string s2)
   | slices -> Alcotest.failf "expected 2 slices, got %d" (List.length slices));
  (* Transitive chaining: x~y and y~z must merge into one slice. *)
  let chain =
    [ Expr.ult x y; Expr.ult y z; Expr.ugt (Expr.fresh_var "pw" 32) (e_int 1) ]
  in
  Alcotest.(check (list int)) "chained sharing merges"
    [ 2; 1 ]
    (List.map List.length (Smt.Slice.partition chain))

let test_slice_partition_is_a_partition () =
  (* Random constraint sets: the slices must be a permutation-free
     partition (concatenation preserves multiset; variable sets of
     distinct slices are disjoint). *)
  let st = Random.State.make [| 31 |] in
  let vars = Array.init 6 (fun i -> Expr.fresh_var (Printf.sprintf "pp%d" i) 8) in
  for _ = 1 to 100 do
    let n = 1 + Random.State.int st 8 in
    let constraints =
      List.init n (fun _ ->
          let v = vars.(Random.State.int st 6) in
          let w = vars.(Random.State.int st 6) in
          Expr.ult (Expr.add v w)
            (Expr.const (Bv.make ~width:8 (Int64.of_int (1 + Random.State.int st 255)))))
    in
    let slices = Smt.Slice.partition constraints in
    let flat = List.concat slices in
    Alcotest.(check int) "no constraint lost or duplicated"
      (List.length constraints) (List.length flat);
    List.iter
      (fun c ->
         Alcotest.(check bool) "every constraint present" true
           (List.exists (Expr.equal c) flat))
      constraints;
    let var_sets = List.map (fun s -> Smt.Slice.vars s) slices in
    let rec disjoint = function
      | [] -> true
      | vs :: rest ->
        List.for_all
          (fun vs' ->
             not
               (List.exists
                  (fun (v : Expr.var) ->
                     List.exists (fun (v' : Expr.var) -> v.Expr.var_id = v'.Expr.var_id) vs')
                  vs))
          rest
        && disjoint rest
    in
    Alcotest.(check bool) "slice variable sets disjoint" true (disjoint var_sets)
  done

let test_solver_merge_soundness () =
  (* Many mutually independent slices: the merged model must satisfy the
     whole set, not just each slice in isolation. *)
  let constraints =
    List.concat_map
      (fun i ->
         let v = Expr.fresh_var (Printf.sprintf "mg%d" i) 32 in
         [ Expr.ugt v (e_int i); Expr.ult v (e_int (i + 10)) ])
      [ 1; 20; 300; 4000 ]
  in
  match Solver.check constraints with
  | Solver.Sat m ->
    Alcotest.(check bool) "merged model satisfies every slice" true
      (Model.satisfies m constraints)
  | Solver.Unsat | Solver.Unknown _ -> Alcotest.fail "expected sat"

let test_solver_slice_cache_accounting () =
  (* Appending a constraint over fresh variables must not invalidate
     the cached slices of the unchanged prefix. *)
  Solver.clear_caches ();
  Solver.Stats.reset ();
  let x = Expr.fresh_var "ha" 32 in
  let y = Expr.fresh_var "hb" 32 in
  let z = Expr.fresh_var "hc" 32 in
  let a = Expr.ult x (e_int 10) and b = Expr.ugt y (e_int 5) in
  ignore (Solver.check [ a; b ]);
  ignore (Solver.check [ a; b; Expr.eq z (e_int 3) ]);
  let stats = Solver.Stats.get () in
  Alcotest.(check bool)
    (Printf.sprintf "prefix slices hit the cache (%d hits)"
       stats.Solver.Stats.cache_hits)
    true
    (stats.Solver.Stats.cache_hits >= 2);
  Alcotest.(check bool) "slices were counted" true
    (stats.Solver.Stats.slices >= 5)

(* ------------------------------------------------------------------ *)
(* SMT-LIB export                                                      *)

let test_smtlib_terms () =
  let x = Expr.fresh_var "q" 8 in
  let xname = Printf.sprintf "|q!%d|" (List.hd (Expr.vars x)).Expr.var_id in
  Alcotest.(check string) "bv literal" "(_ bv10 8)"
    (Smt.Smtlib.term (Expr.int ~width:8 10));
  (* commutative operands are canonicalized with the constant first *)
  Alcotest.(check string) "add"
    (Printf.sprintf "(bvadd (_ bv1 8) %s)" xname)
    (Smt.Smtlib.term (Expr.add x (Expr.int ~width:8 1)));
  Alcotest.(check string) "ult"
    (Printf.sprintf "(bvult %s (_ bv5 8))" xname)
    (Smt.Smtlib.term (Expr.ult x (Expr.int ~width:8 5)));
  Alcotest.(check string) "extract"
    (Printf.sprintf "((_ extract 3 0) %s)" xname)
    (Smt.Smtlib.term (Expr.extract ~hi:3 ~lo:0 x));
  Alcotest.(check string) "zext"
    (Printf.sprintf "((_ zero_extend 8) %s)" xname)
    (Smt.Smtlib.term (Expr.zext 16 x))

let test_smtlib_query_well_formed () =
  let x = Expr.fresh_var "qq" 32 and y = Expr.fresh_var "qr" 32 in
  let q =
    Smt.Smtlib.query
      [ Expr.ult x y; Expr.eq (Expr.add x y) (e_int 99) ]
  in
  (* balanced parentheses and the expected skeleton *)
  let depth = ref 0 and min_depth = ref 0 in
  String.iter
    (fun c ->
       if c = '(' then incr depth else if c = ')' then decr depth;
       if !depth < !min_depth then min_depth := !depth)
    q;
  Alcotest.(check int) "balanced" 0 !depth;
  Alcotest.(check int) "never negative" 0 !min_depth;
  let has s =
    let n = String.length s and m = String.length q in
    let rec go i = i + n <= m && (String.sub q i n = s || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "logic" true (has "(set-logic QF_BV)");
  Alcotest.(check bool) "declares x" true (has "(declare-const |qq!");
  Alcotest.(check bool) "declares y" true (has "(declare-const |qr!");
  Alcotest.(check bool) "asserts" true (has "(assert (bvult ");
  Alcotest.(check bool) "check-sat" true (has "(check-sat)")

let test_smtlib_model_values () =
  let x = Expr.fresh_var "qm" 16 in
  match Expr.vars x with
  | [ v ] ->
    let m = Model.add v (Bv.of_int ~width:16 300) Model.empty in
    (match Smt.Smtlib.model_values m with
     | [ line ] ->
       Alcotest.(check string) "define-fun"
         (Printf.sprintf "(define-fun |qm!%d| () (_ BitVec 16) (_ bv300 16))"
            v.Expr.var_id)
         line
     | _ -> Alcotest.fail "expected one binding")
  | _ -> Alcotest.fail "expected one var"

let test_model_defaults () =
  let x = Expr.fresh_var "mx" 16 in
  match Expr.vars x with
  | [ v ] ->
    check_bv "unbound var reads zero" (Bv.zero 16) (Model.find Model.empty v)
  | _ -> Alcotest.fail "expected one var"

(* ------------------------------------------------------------------ *)
(* LRU cache, per-query budgets and stats serialization                *)

let test_lru_eviction_order () =
  let l = Smt.Lru.create ~cap:2 () in
  Smt.Lru.put l 1 "a";
  Smt.Lru.put l 2 "b";
  (* Touch 1 so 2 becomes least-recently used. *)
  Alcotest.(check (option string)) "hit bumps" (Some "a") (Smt.Lru.find l 1);
  Smt.Lru.put l 3 "c";
  Alcotest.(check (option string)) "recent kept" (Some "a") (Smt.Lru.find l 1);
  Alcotest.(check (option string)) "lru evicted" None (Smt.Lru.find l 2);
  Alcotest.(check (option string)) "new kept" (Some "c") (Smt.Lru.find l 3);
  Alcotest.(check int) "one eviction" 1 (Smt.Lru.evictions l);
  Alcotest.(check int) "at capacity" 2 (Smt.Lru.length l)

let test_lru_replace_and_resize () =
  let l = Smt.Lru.create ~cap:3 () in
  List.iter (fun k -> Smt.Lru.put l k (string_of_int k)) [ 1; 2; 3 ];
  Smt.Lru.put l 2 "two";  (* replace, no eviction *)
  Alcotest.(check int) "replace keeps length" 3 (Smt.Lru.length l);
  Alcotest.(check int) "replace is not eviction" 0 (Smt.Lru.evictions l);
  Smt.Lru.set_capacity l 1;
  Alcotest.(check int) "shrink evicts" 1 (Smt.Lru.length l);
  Alcotest.(check int) "shrink counted" 2 (Smt.Lru.evictions l);
  Alcotest.(check (option string)) "mru survives shrink" (Some "two")
    (Smt.Lru.find l 2);
  Smt.Lru.clear l;
  Alcotest.(check int) "clear empties" 0 (Smt.Lru.length l);
  Alcotest.(check int) "clear not counted" 2 (Smt.Lru.evictions l)

let test_lru_unbounded () =
  let l = Smt.Lru.create ~cap:0 () in
  for k = 1 to 1000 do Smt.Lru.put l k k done;
  Alcotest.(check int) "nothing evicted" 0 (Smt.Lru.evictions l);
  Alcotest.(check int) "all kept" 1000 (Smt.Lru.length l)

let test_solver_cache_capacity_evictions () =
  Solver.clear_caches ();
  let before = (Solver.Stats.get ()).Solver.Stats.query_evictions in
  Solver.set_cache_capacity ~query:1 ();
  let q i =
    let x = Expr.fresh_var (Printf.sprintf "ev%d" i) 8 in
    ignore (Solver.check [ Expr.ult x (Expr.int ~width:8 5) ])
  in
  q 0; q 1; q 2;
  let after = (Solver.Stats.get ()).Solver.Stats.query_evictions in
  Solver.set_cache_capacity ~query:65536 ();
  Solver.clear_caches ();
  Alcotest.(check bool) "evictions counted in stats" true (after - before >= 2);
  let qsz, _ = Solver.cache_sizes () in
  Alcotest.(check int) "cache emptied" 0 qsz

(* x*x = 3 is unsat mod 2^16 (squares are 0, 1 or 4 mod 8) but neither
   constant folding nor interval propagation can see it, so the query
   reaches CDCL — large enough to hit the propagation-boundary polls. *)
let hard_query () =
  let x = Expr.fresh_var "hardq" 16 in
  [ Expr.eq (Expr.mul x x) (Expr.int ~width:16 3) ]

let test_solver_timeout_returns_unknown () =
  Solver.clear_caches ();
  let before = (Solver.Stats.get ()).Solver.Stats.sat_timeouts in
  (match Solver.check ~timeout_ms:0 (hard_query ()) with
   | Solver.Unknown _ -> ()
   | Solver.Sat _ -> Alcotest.fail "expected Unknown, got Sat"
   | Solver.Unsat -> Alcotest.fail "expected Unknown, got Unsat");
  let after = (Solver.Stats.get ()).Solver.Stats.sat_timeouts in
  Alcotest.(check bool) "timeout counted" true (after > before);
  (* Without the budget the same query settles. *)
  (match Solver.check (hard_query ()) with
   | Solver.Unsat -> ()
   | _ -> Alcotest.fail "x*x = 3 should be unsat");
  Solver.clear_caches ()

(* A slice whose encoding the scratch pair already holds reaches the
   SAT stage without translating a node, and a prefix whose encoding
   is already unsat answers before the CDCL loop polls; the deadline
   and the interrupt hook must still be honoured. *)
let test_solver_timeout_on_reused_prefix () =
  Solver.clear_caches ();
  (* c /\ not c: its encoding alone makes the instance unsat. *)
  let q = match hard_query () with c :: _ -> [ c; Expr.not_ c ] | [] -> [] in
  (match Solver.check q with
   | Solver.Unsat -> ()
   | _ -> Alcotest.fail "c /\ not c should be unsat");
  Solver.clear_caches ();
  let before = (Solver.Stats.get ()).Solver.Stats.sat_timeouts in
  (match Solver.check ~timeout_ms:0 q with
   | Solver.Unknown _ -> ()
   | Solver.Sat _ -> Alcotest.fail "expected Unknown, got Sat"
   | Solver.Unsat -> Alcotest.fail "expected Unknown, got Unsat");
  let after = (Solver.Stats.get ()).Solver.Stats.sat_timeouts in
  Alcotest.(check bool) "timeout counted" true (after > before);
  Solver.clear_caches ();
  Solver.set_interrupt_check (fun () -> true);
  let r = Solver.check q in
  Solver.set_interrupt_check (fun () -> false);
  Solver.clear_caches ();
  match r with
  | Solver.Unknown _ -> ()
  | Solver.Sat _ | Solver.Unsat -> Alcotest.fail "interrupt: expected Unknown"

let test_solver_interrupt_returns_unknown () =
  Solver.clear_caches ();
  Solver.set_interrupt_check (fun () -> true);
  let r = Solver.check (hard_query ()) in
  Solver.set_interrupt_check (fun () -> false);
  Solver.clear_caches ();
  match r with
  | Solver.Unknown _ -> ()
  | Solver.Sat _ | Solver.Unsat -> Alcotest.fail "expected Unknown"

let test_solver_stats_json_roundtrip () =
  let s =
    { Solver.Stats.queries = 7; slices = 9; slice_hits = 4; cache_hits = 3;
      cex_hits = 1; query_evictions = 2; cex_evictions = 5;
      interval_unsat = 6; interval_sat = 8; sat_calls = 10;
      sat_conflicts = 11; sat_decisions = 12; sat_propagations = 13;
      sat_timeouts = 14; sat_retries = 15; scope_pushes = 16; scope_pops = 17;
      scope_reused = 18; scope_rebuilds = 19; scratch_reused = 22;
      cnf_vars = 20; cnf_clauses = 21;
      time = 1.5; interval_time = 0.25; bitblast_time = 0.5; sat_time = 0.75 }
  in
  let s' = Solver.Stats.of_json (Solver.Stats.to_json s) in
  Alcotest.(check bool) "roundtrip" true (s = s');
  (* Missing fields default to zero (forward compatibility). *)
  let z = Solver.Stats.of_json (Obs.Json.Obj [ ("queries", Obs.Json.Int 3) ]) in
  Alcotest.(check int) "present field" 3 z.Solver.Stats.queries;
  Alcotest.(check int) "missing field" 0 z.Solver.Stats.sat_timeouts;
  Alcotest.(check int) "missing cnf counter" 0 z.Solver.Stats.cnf_clauses;
  Alcotest.(check int) "missing scratch counter" 0
    z.Solver.Stats.scratch_reused

(* ------------------------------------------------------------------ *)
(* Incremental solving: assumptions, scopes, the shared retry budget   *)

let test_sat_assumptions () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Alcotest.(check bool) "sat under [a]" true
    (Sat.solve ~assumptions:[ a ] s = Sat.Sat);
  Alcotest.(check bool) "a honoured in model" true (Sat.value s a);
  Alcotest.(check bool) "sat under [-a]" true
    (Sat.solve ~assumptions:[ -a ] s = Sat.Sat);
  Alcotest.(check bool) "b carries the clause" true (Sat.value s b);
  Alcotest.(check bool) "contradictory assumptions" true
    (Sat.solve ~assumptions:[ a; -a ] s = Sat.Unsat);
  (* Make a <-> b, then refute a /\ -b under assumptions: the Unsat
     answer must not poison the instance for later calls. *)
  Sat.add_clause s [ -a; b ];
  Sat.add_clause s [ -b; a ];
  Alcotest.(check bool) "unsat under [a; -b]" true
    (Sat.solve ~assumptions:[ a; -b ] s = Sat.Unsat);
  Alcotest.(check bool) "still sat without assumptions" true
    (Sat.solve s = Sat.Sat);
  Alcotest.(check bool) "still sat under [a; b]" true
    (Sat.solve ~assumptions:[ a; b ] s = Sat.Sat)

let test_sat_perturb_after_growth () =
  (* Activity rescaling and the perturbation walk must stay bounded to
     live variables on an instance that grew between solves — the shape
     a Solver.Scope produces (encode, solve, encode more, solve). *)
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Alcotest.(check bool) "sat small" true (Sat.solve ~assumptions:[ a ] s = Sat.Sat);
  let more = List.init 64 (fun _ -> Sat.new_var s) in
  List.iter (fun v -> Sat.add_clause s [ v; a ]) more;
  Alcotest.(check bool) "sat grown" true (Sat.solve s = Sat.Sat);
  Sat.perturb s 42L;
  Alcotest.(check bool) "sat after perturb" true (Sat.solve s = Sat.Sat);
  Alcotest.(check bool) "assumption unsat on grown instance" true
    (Sat.solve ~assumptions:[ -a; -(List.hd more) ] s = Sat.Unsat);
  Sat.perturb s 7L;
  Alcotest.(check bool) "reusable after unsat + perturb" true
    (Sat.solve s = Sat.Sat)

let test_scope_reuse () =
  Solver.clear_caches ();
  let scope = Solver.Scope.create () in
  let x = Expr.fresh_var "scope_x" 16 in
  let sq = Expr.mul x x in
  (* x*x = 5776 has solutions (+-76 and friends mod 2^16) that neither
     folding nor interval candidates find, so these queries genuinely
     exercise the retained CDCL instance. *)
  let c1 = Expr.eq sq (Expr.int ~width:16 5776) in
  Solver.Scope.push scope;
  Solver.Scope.assume scope c1;
  Alcotest.(check int) "one frame" 1 (Solver.Scope.depth scope);
  (match Solver.check ~scope [ c1 ] with
   | Solver.Sat m ->
     Alcotest.(check bool) "model satisfies" true (Model.satisfies m [ c1 ])
   | _ -> Alcotest.fail "expected Sat");
  (* A deeper query re-encodes nothing for c1. *)
  let c2 = Expr.ugt x (Expr.int ~width:16 1000) in
  Solver.Scope.push scope;
  Solver.Scope.assume scope c2;
  let before = (Solver.Stats.get ()).Solver.Stats.scope_reused in
  Solver.clear_caches ();
  (match Solver.check ~scope [ c2; c1 ] with
   | Solver.Sat m ->
     Alcotest.(check bool) "deeper model satisfies" true
       (Model.satisfies m [ c1; c2 ])
   | _ -> Alcotest.fail "expected Sat at depth 2");
  let after = (Solver.Stats.get ()).Solver.Stats.scope_reused in
  Alcotest.(check bool) "encoding reused" true (after > before);
  (* Pop to a sibling whose refutation runs under assumptions: the
     Unsat must leave the retained instance reusable. *)
  Solver.Scope.pop scope;
  let c3 = Expr.eq sq (Expr.int ~width:16 3) in
  Solver.Scope.push scope;
  Solver.Scope.assume scope c3;
  Solver.clear_caches ();
  (match Solver.check ~scope [ c3; c1 ] with
   | Solver.Unsat -> ()
   | _ -> Alcotest.fail "expected Unsat sibling");
  Solver.Scope.pop scope;
  Solver.Scope.push scope;
  Solver.Scope.assume scope c2;
  Solver.clear_caches ();
  (match Solver.check ~scope [ c2; c1 ] with
   | Solver.Sat _ -> ()
   | _ -> Alcotest.fail "instance poisoned by sibling Unsat");
  Solver.Scope.pop_to_root scope;
  Alcotest.(check int) "back at root" 0 (Solver.Scope.depth scope);
  Solver.clear_caches ()

let test_solver_timeout_budget_shared () =
  (* Regression for the per-query timeout contract: with a permanently
     stalling solver (each attempt burns up to 50ms) and 3 retries, a
     100ms budget must bound the whole retry loop at ~1x the budget —
     per-attempt deadlines would take ~200ms.  Deterministic: the chaos
     point fires at rate 1. *)
  Solver.clear_caches ();
  Fun.protect
    ~finally:(fun () ->
        Chaos.disable ();
        Solver.set_retries 0)
    (fun () ->
       Chaos.configure ~seed:0 [ (Chaos.Solver_stall, 1.0) ];
       Solver.set_retries 3;
       let before = Solver.Stats.get () in
       let t0 = Unix.gettimeofday () in
       let r = Solver.check ~timeout_ms:100 (hard_query ()) in
       let wall = Unix.gettimeofday () -. t0 in
       let after = Solver.Stats.get () in
       (match r with
        | Solver.Unknown _ -> ()
        | Solver.Sat _ | Solver.Unsat ->
          Alcotest.fail "expected Unknown under a permanent stall");
       Alcotest.(check bool)
         (Printf.sprintf "wall %.3fs stays within ~1x the 100ms budget" wall)
         true (wall < 0.18);
       Alcotest.(check bool) "denied retry still counted" true
         (after.Solver.Stats.sat_retries > before.Solver.Stats.sat_retries);
       Alcotest.(check bool) "stalls counted as timeouts" true
         (after.Solver.Stats.sat_timeouts > before.Solver.Stats.sat_timeouts))

let suite =
  [
    ("bv: make masks", `Quick, test_bv_make_masks);
    ("bv: signed view", `Quick, test_bv_signed);
    ("bv: wrapping arithmetic", `Quick, test_bv_wrap_arithmetic);
    ("bv: division conventions", `Quick, test_bv_div_conventions);
    ("bv: shifts", `Quick, test_bv_shifts);
    ("bv: extract/concat/extend", `Quick, test_bv_structure);
    ("bv: comparisons", `Quick, test_bv_compare);
    ("bv: invalid arguments", `Quick, test_bv_invalid);
    ("expr: hash consing", `Quick, test_expr_hash_consing);
    ("expr: constant folding", `Quick, test_expr_folding);
    ("expr: extract rewrites", `Quick, test_expr_extract_rewrites);
    ("expr: vars", `Quick, test_expr_vars);
    ("expr: pruning since a mark", `Quick, test_expr_prune_since);
    ("expr: eval", `Quick, test_expr_eval);
    ("expr: simplifier soundness (random)", `Quick, test_simplifier_soundness);
    ("interval: unsat detection", `Quick, test_interval_unsat);
    ("interval: refinement", `Quick, test_interval_refine);
    ("interval: bounds soundness (random)", `Quick, test_interval_bounds_sound);
    ("sat: simple", `Quick, test_sat_simple);
    ("sat: unsat", `Quick, test_sat_unsat);
    ("sat: empty clause", `Quick, test_sat_empty_clause);
    ("sat: tautology", `Quick, test_sat_tautology_dropped);
    ("sat: random vs brute force", `Quick, test_sat_random_vs_brute);
    ("sat: add_clause intake", `Quick, test_sat_add_clause_intake);
    ("sat: add_clause after a Sat answer", `Quick,
     test_sat_add_clause_after_sat);
    ("bitblast: constant folding", `Quick, test_bitblast_constant_folding);
    ("bitblast: structural hashing", `Quick, test_bitblast_strash_hit);
    ("solver: basic", `Quick, test_solver_basic);
    ("solver: empty and const", `Quick, test_solver_empty_and_const);
    ("solver: nonlinear", `Quick, test_solver_nonlinear);
    test_solver_random_vs_brute;
    test_sat_reset_is_create;
    test_sat_restore_is_fresh;
    test_scratch_prefix_is_fresh;
    ("solver: query cache", `Quick, test_solver_cache);
    ("slice: partition crafted sets", `Quick, test_slice_partition);
    ("slice: partition is a partition (random)", `Quick,
     test_slice_partition_is_a_partition);
    ("solver: merged model soundness", `Quick, test_solver_merge_soundness);
    ("solver: per-slice cache accounting", `Quick,
     test_solver_slice_cache_accounting);
    ("solver: shifts and division", `Quick, test_solver_shifts_and_division);
    ("model: defaults", `Quick, test_model_defaults);
    ("smtlib: terms", `Quick, test_smtlib_terms);
    ("smtlib: query well-formed", `Quick, test_smtlib_query_well_formed);
    ("smtlib: model values", `Quick, test_smtlib_model_values);
    ("lru: eviction order", `Quick, test_lru_eviction_order);
    ("lru: replace and resize", `Quick, test_lru_replace_and_resize);
    ("lru: unbounded", `Quick, test_lru_unbounded);
    ("solver: cache capacity and evictions", `Quick,
     test_solver_cache_capacity_evictions);
    ("solver: per-query timeout", `Quick, test_solver_timeout_returns_unknown);
    ("solver: timeout on a reused prefix", `Quick,
     test_solver_timeout_on_reused_prefix);
    ("solver: interrupt hook", `Quick, test_solver_interrupt_returns_unknown);
    ("solver: stats JSON roundtrip", `Quick, test_solver_stats_json_roundtrip);
    ("sat: assumptions", `Quick, test_sat_assumptions);
    ("sat: perturb after growth", `Quick, test_sat_perturb_after_growth);
    ("scope: encoding reuse and sibling unsat", `Quick, test_scope_reuse);
    ("solver: retry budget is per-query", `Quick,
     test_solver_timeout_budget_shared);
  ]
  @ bv_props
