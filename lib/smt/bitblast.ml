(* Literals are DIMACS-style ints (v / -v); [neg] is unary minus. *)

type repr = Lit of int | Bits of int array

(* Gate kinds, the head of a structural-hashing key. *)
let k_and = 0
let k_xor = 1
let k_ite = 2
let k_maj = 3
let k_and_n = 4

(* Structural-hashing key: the gate kind followed by its normalised
   operands, one flat int array, hashed and compared element-wise. *)
module Key = struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i = n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let hash (a : t) =
    let h = ref 0 in
    for i = 0 to Array.length a - 1 do
      h := (!h * 0x01000193) lxor a.(i)
    done;
    !h land max_int
end

module Strash = Hashtbl.Make (Key)

(* One insertion into the context's tables, logged so [rollback] can
   take it back. *)
type undo = Memo of int | Var of int | Gate of Key.t | True_lit

type ctx = {
  sat : Sat.t;
  memo : (int, repr) Hashtbl.t;        (* Expr.id -> repr *)
  vars : (int, int array) Hashtbl.t;   (* var_id -> bit literals *)
  strash : int Strash.t;               (* gate key -> output *)
  mutable true_lit : int;              (* literal asserted true, 0 if none *)
  mutable log : undo list;             (* newest first *)
  mutable log_len : int;
  mutable deadline : float option;     (* per-query; mutable for reuse *)
  mutable stop : (unit -> bool) option;
  mutable steps : int;                 (* poll subsampling counter *)
}

let create sat =
  { sat; memo = Hashtbl.create 1024; vars = Hashtbl.create 64;
    strash = Strash.create 1024; true_lit = 0; log = []; log_len = 0;
    deadline = None; stop = None; steps = 0 }

let log ctx u =
  ctx.log <- u :: ctx.log;
  ctx.log_len <- ctx.log_len + 1

type checkpoint = int

let checkpoint ctx = ctx.log_len

(* Take back every insertion made after the checkpoint, newest first.
   Together with [Sat.restore] to a checkpoint taken at the same point,
   the pair is then exactly what it was there. *)
let rollback ctx n =
  while ctx.log_len > n do
    (match ctx.log with
     | [] -> assert false
     | u :: rest ->
       ctx.log <- rest;
       (match u with
        | Memo id -> Hashtbl.remove ctx.memo id
        | Var id -> Hashtbl.remove ctx.vars id
        | Gate key -> Strash.remove ctx.strash key
        | True_lit -> ctx.true_lit <- 0));
    ctx.log_len <- ctx.log_len - 1
  done

let reset ctx = rollback ctx 0

(* A context reused across queries carries a different budget each
   time; the poll counter restarts with it, so the first poll of a
   query always reads the clock. *)
let set_deadline ctx d =
  ctx.deadline <- d;
  ctx.steps <- 0

let set_stop ctx f = ctx.stop <- f

(* Encoding a huge term must not blow far past the per-query deadline
   before the CDCL loop ever gets to poll it, so translation polls the
   same deadline/stop pair at node boundaries (subsampled: a node may
   expand to hundreds of gates, so every node would be too often and
   every translate call of a deep term too rare). *)
let poll ctx =
  match ctx.deadline, ctx.stop with
  | None, None -> ()
  | deadline, stop ->
    ctx.steps <- ctx.steps + 1;
    if ctx.steps land 63 = 1 then begin
      (match deadline with
       | Some d when Unix.gettimeofday () > d -> raise Sat.Timeout
       | Some _ | None -> ());
      match stop with
      | Some f when f () -> raise Sat.Interrupted
      | Some _ | None -> ()
    end

let fresh ctx = Sat.new_var ctx.sat

let lit_true ctx =
  if ctx.true_lit = 0 then begin
    let v = fresh ctx in
    Sat.add_clause ctx.sat [ v ];
    ctx.true_lit <- v;
    log ctx True_lit
  end;
  ctx.true_lit

let lit_false ctx = -lit_true ctx

let lit_of_bool ctx b = if b then lit_true ctx else lit_false ctx

(* Literals are never 0, so before [lit_true] is first allocated
   nothing tests constant. *)
let is_true ctx l = l = ctx.true_lit
let is_false ctx l = l = -ctx.true_lit

(* Tseitin gates.  Each returns a literal equivalent to the gate.
   Constant and trivially related operands fold without a variable;
   otherwise the gate is looked up in the structural hash on its
   normalised operands and only encoded on a miss.  Sharing a gate
   output between terms is sound because gate definitions are never
   guarded: in a context retained across queries they hold forever. *)

let hashed ctx key encode =
  match Strash.find_opt ctx.strash key with
  | Some g -> g
  | None ->
    let g = fresh ctx in
    encode g;
    Strash.add ctx.strash key g;
    log ctx (Gate key);
    g

let gate_and ctx a b =
  if a = b || is_true ctx b then a
  else if is_true ctx a then b
  else if a = -b || is_false ctx a || is_false ctx b then lit_false ctx
  else
    let a, b = if a < b then a, b else b, a in
    hashed ctx [| k_and; a; b |] (fun g ->
        Sat.add_clause2 ctx.sat (-g) a;
        Sat.add_clause2 ctx.sat (-g) b;
        Sat.add_clause3 ctx.sat (-a) (-b) g)

let gate_or ctx a b = -gate_and ctx (-a) (-b)

(* Operands are sign-stripped for the hash; their parity moves to the
   output, since xor(-a, b) = -xor(a, b). *)
let gate_xor ctx a b =
  if a = b then lit_false ctx
  else if a = -b then lit_true ctx
  else if is_false ctx a then b
  else if is_true ctx a then -b
  else if is_false ctx b then a
  else if is_true ctx b then -a
  else
    let neg = (a < 0) <> (b < 0) in
    let a = abs a and b = abs b in
    let a, b = if a < b then a, b else b, a in
    let g =
      hashed ctx [| k_xor; a; b |] (fun g ->
          Sat.add_clause3 ctx.sat (-g) a b;
          Sat.add_clause3 ctx.sat (-g) (-a) (-b);
          Sat.add_clause3 ctx.sat g (-a) b;
          Sat.add_clause3 ctx.sat g a (-b))
    in
    if neg then -g else g

let gate_iff ctx a b = -gate_xor ctx a b

(* g = if c then a else b *)
let gate_ite ctx c a b =
  if a = b || is_true ctx c then a
  else if is_false ctx c then b
  else if a = -b then gate_iff ctx c a
  else if c = a || is_true ctx a then gate_or ctx c b
  else if c = -a || is_false ctx a then gate_and ctx (-c) b
  else if c = b || is_false ctx b then gate_and ctx c a
  else if c = -b || is_true ctx b then gate_or ctx (-c) a
  else
    (* ite(-c, a, b) = ite(c, b, a); ite(c, -a, -b) = -ite(c, a, b). *)
    let c, a, b = if c < 0 then -c, b, a else c, a, b in
    let neg = a < 0 in
    let a, b = if neg then -a, -b else a, b in
    let g =
      hashed ctx [| k_ite; c; a; b |] (fun g ->
          Sat.add_clause3 ctx.sat (-c) (-a) g;
          Sat.add_clause3 ctx.sat (-c) a (-g);
          Sat.add_clause3 ctx.sat c (-b) g;
          Sat.add_clause3 ctx.sat c b (-g))
    in
    if neg then -g else g

(* Majority (carry-out of a full adder), encoded natively in six
   clauses.  maj is self-dual, so operands are normalised to at most
   one negative literal with the flip carried to the output. *)
let gate_maj ctx a b c =
  if a = b || a = c then a
  else if b = c then b
  else if a = -b then c
  else if a = -c then b
  else if b = -c then a
  (* maj(1, b, c) = b | c and maj(0, b, c) = b & c. *)
  else if is_true ctx a then gate_or ctx b c
  else if is_false ctx a then gate_and ctx b c
  else if is_true ctx b then gate_or ctx a c
  else if is_false ctx b then gate_and ctx a c
  else if is_true ctx c then gate_or ctx a b
  else if is_false ctx c then gate_and ctx a b
  else
    let nneg = Bool.to_int (a < 0) + Bool.to_int (b < 0) + Bool.to_int (c < 0) in
    let neg = nneg >= 2 in
    let a, b, c = if neg then -a, -b, -c else a, b, c in
    let a, b = if a < b then a, b else b, a in
    let b, c = if b < c then b, c else c, b in
    let a, b = if a < b then a, b else b, a in
    let g =
      hashed ctx [| k_maj; a; b; c |] (fun g ->
          Sat.add_clause3 ctx.sat (-g) a b;
          Sat.add_clause3 ctx.sat (-g) a c;
          Sat.add_clause3 ctx.sat (-g) b c;
          Sat.add_clause3 ctx.sat g (-a) (-b);
          Sat.add_clause3 ctx.sat g (-a) (-c);
          Sat.add_clause3 ctx.sat g (-b) (-c))
    in
    if neg then -g else g

(* n-ary AND: one variable and n+1 clauses instead of a chain of n
   binary gates.  Operands are folded, deduplicated and sorted by
   variable, so complementary literals end up adjacent. *)
let gate_and_n ctx lits =
  if List.exists (is_false ctx) lits then lit_false ctx
  else
    let by_var x y =
      let c = Int.compare (abs x) (abs y) in
      if c <> 0 then c else Int.compare x y
    in
    let lits =
      List.sort_uniq by_var (List.filter (fun l -> not (is_true ctx l)) lits)
    in
    let rec complementary = function
      | x :: (y :: _ as rest) -> x = -y || complementary rest
      | [ _ ] | [] -> false
    in
    match lits with
    | [] -> lit_true ctx
    | [ l ] -> l
    | [ a; b ] -> gate_and ctx a b
    | _ when complementary lits -> lit_false ctx
    | _ ->
      hashed ctx (Array.of_list (k_and_n :: lits)) (fun g ->
          List.iter (fun l -> Sat.add_clause2 ctx.sat (-g) l) lits;
          Sat.add_clause ctx.sat (g :: List.map (fun l -> -l) lits))

let full_adder ctx a b cin =
  let s = gate_xor ctx (gate_xor ctx a b) cin in
  let cout = gate_maj ctx a b cin in
  s, cout

let adder ctx ?(cin : int option) a b =
  let w = Array.length a in
  let s = Array.make w 0 in
  let carry = ref (match cin with Some c -> c | None -> lit_false ctx) in
  for i = 0 to w - 1 do
    let si, c = full_adder ctx a.(i) b.(i) !carry in
    s.(i) <- si;
    carry := c
  done;
  s, !carry

let negate_bits ctx a =
  (* two's complement: ~a + 1 *)
  let w = Array.length a in
  let nota = Array.map (fun l -> -l) a in
  let one = Array.init w (fun i -> lit_of_bool ctx (i = 0)) in
  fst (adder ctx nota one)

let subtract ctx a b =
  (* a - b = a + ~b + 1; borrow-out complement of carry *)
  let notb = Array.map (fun l -> -l) b in
  let s, carry = adder ctx ~cin:(lit_true ctx) a notb in
  s, carry (* carry = 1 means no borrow, i.e. a >= b (unsigned) *)

(* a < b (unsigned): the borrow of a - b, i.e. the negated carry out of
   a + ~b + 1 — only the carry chain, no sum bits. *)
let ult_lit ctx a b =
  let carry = ref (lit_true ctx) in
  Array.iteri (fun i ai -> carry := gate_maj ctx ai (-b.(i)) !carry) a;
  - !carry

let eq_lit ctx a b =
  gate_and_n ctx (Array.to_list (Array.map2 (gate_iff ctx) a b))

let slt_lit ctx a b =
  (* Flip the sign bits, then compare unsigned. *)
  let w = Array.length a in
  let a' = Array.copy a and b' = Array.copy b in
  a'.(w - 1) <- -a.(w - 1);
  b'.(w - 1) <- -b.(w - 1);
  ult_lit ctx a' b'

let mux_bits ctx c a b = Array.init (Array.length a) (fun i -> gate_ite ctx c a.(i) b.(i))

(* Barrel shifter.  [shifted dir fill bits k] shifts by 2^k. *)
let shifted dir fill bits k =
  let w = Array.length bits in
  let n = 1 lsl k in
  Array.init w (fun i ->
      match dir with
      | `Left -> if i < n then fill else bits.(i - n)
      | `Right -> if i + n >= w then fill else bits.(i + n))

let barrel_shift ctx dir a amount ~fill =
  let w = Array.length a in
  let log2w =
    let rec go k = if 1 lsl k >= w then k else go (k + 1) in
    go 0
  in
  (* Amounts >= w saturate to [fill]: any amount bit at or above log2w
     set, or (when w is not a power of two) an amount between w and
     2^log2w - 1. *)
  let exceeds =
    if 1 lsl log2w = w then
      -gate_and_n ctx
         (List.init (Array.length amount - log2w) (fun i -> -amount.(log2w + i)))
    else
      let wconst = Array.init (Array.length amount)
          (fun i -> lit_of_bool ctx ((w lsr i) land 1 = 1))
      in
      -ult_lit ctx amount wconst
  in
  let stages = ref a in
  for k = 0 to log2w - 1 do
    let moved = shifted dir fill !stages k in
    stages := mux_bits ctx amount.(k) moved !stages
  done;
  mux_bits ctx exceeds (Array.make w fill) !stages

let multiply ctx a b =
  let w = Array.length a in
  let acc = ref (Array.make w (lit_false ctx)) in
  for i = 0 to w - 1 do
    (* partial = (a << i) AND b_i, added into acc *)
    let partial =
      Array.init w (fun j ->
          if j < i then lit_false ctx else gate_and ctx a.(j - i) b.(i))
    in
    acc := fst (adder ctx !acc partial)
  done;
  !acc

(* Restoring division: returns (quotient, remainder) with the SMT-LIB
   division-by-zero convention applied by the caller. *)
let divide ctx a b =
  let w = Array.length a in
  let q = Array.make w 0 in
  (* Remainder register, w+1 bits to absorb the shift. *)
  let r = ref (Array.make (w + 1) (lit_false ctx)) in
  let b_ext = Array.init (w + 1) (fun i -> if i < w then b.(i) else lit_false ctx) in
  for i = w - 1 downto 0 do
    (* r = (r << 1) | a_i *)
    let shifted = Array.init (w + 1) (fun j -> if j = 0 then a.(i) else !r.(j - 1)) in
    let diff, no_borrow = subtract ctx shifted b_ext in
    q.(i) <- no_borrow;
    r := mux_bits ctx no_borrow diff shifted
  done;
  let rem = Array.sub !r 0 w in
  q, rem

let rec translate ctx (e : Expr.t) : repr =
  match Hashtbl.find_opt ctx.memo e.Expr.id with
  | Some r -> r
  | None ->
    poll ctx;
    let r = translate_uncached ctx e in
    Hashtbl.add ctx.memo e.Expr.id r;
    log ctx (Memo e.Expr.id);
    r

and bool_lit ctx e =
  match translate ctx e with
  | Lit l -> l
  | Bits _ -> invalid_arg "Bitblast: expected boolean term"

and bv_bits ctx e =
  match translate ctx e with
  | Bits b -> b
  | Lit _ -> invalid_arg "Bitblast: expected bitvector term"

and translate_uncached ctx (e : Expr.t) : repr =
  match e.Expr.node with
  | Expr.Bool_const b -> Lit (lit_of_bool ctx b)
  | Expr.Bv_const v ->
    let w = Bv.width v in
    Bits (Array.init w (fun i -> lit_of_bool ctx (Bv.bit v i)))
  | Expr.Var v ->
    let bits =
      match Hashtbl.find_opt ctx.vars v.Expr.var_id with
      | Some bits -> bits
      | None ->
        let bits = Array.init v.Expr.var_width (fun _ -> fresh ctx) in
        Hashtbl.add ctx.vars v.Expr.var_id bits;
        log ctx (Var v.Expr.var_id);
        bits
    in
    Bits bits
  | Expr.Not x -> Lit (-bool_lit ctx x)
  | Expr.Andb (a, b) -> Lit (gate_and ctx (bool_lit ctx a) (bool_lit ctx b))
  | Expr.Orb (a, b) -> Lit (gate_or ctx (bool_lit ctx a) (bool_lit ctx b))
  | Expr.Cmp (op, a, b) ->
    (match a.Expr.sort with
     | Expr.Bool ->
       (* Only Eq is constructed on booleans. *)
       Lit (gate_iff ctx (bool_lit ctx a) (bool_lit ctx b))
     | Expr.Bv _ ->
       let ba = bv_bits ctx a and bb = bv_bits ctx b in
       let l =
         match op with
         | Expr.Eq -> eq_lit ctx ba bb
         | Expr.Ult -> ult_lit ctx ba bb
         | Expr.Ule -> -ult_lit ctx bb ba
         | Expr.Slt -> slt_lit ctx ba bb
         | Expr.Sle -> -slt_lit ctx bb ba
       in
       Lit l)
  | Expr.Ite (c, a, b) ->
    let lc = bool_lit ctx c in
    (match a.Expr.sort with
     | Expr.Bool -> Lit (gate_ite ctx lc (bool_lit ctx a) (bool_lit ctx b))
     | Expr.Bv _ -> Bits (mux_bits ctx lc (bv_bits ctx a) (bv_bits ctx b)))
  | Expr.Bnot x -> Bits (Array.map (fun l -> -l) (bv_bits ctx x))
  | Expr.Bin (op, a, b) ->
    let ba = bv_bits ctx a and bb = bv_bits ctx b in
    let bits =
      match op with
      | Expr.Add -> fst (adder ctx ba bb)
      | Expr.Sub -> fst (subtract ctx ba bb)
      | Expr.Mul -> multiply ctx ba bb
      | Expr.And -> Array.init (Array.length ba) (fun i -> gate_and ctx ba.(i) bb.(i))
      | Expr.Or -> Array.init (Array.length ba) (fun i -> gate_or ctx ba.(i) bb.(i))
      | Expr.Xor -> Array.init (Array.length ba) (fun i -> gate_xor ctx ba.(i) bb.(i))
      | Expr.Shl -> barrel_shift ctx `Left ba bb ~fill:(lit_false ctx)
      | Expr.Lshr -> barrel_shift ctx `Right ba bb ~fill:(lit_false ctx)
      | Expr.Ashr ->
        let w = Array.length ba in
        barrel_shift ctx `Right ba bb ~fill:ba.(w - 1)
      | Expr.Udiv | Expr.Urem ->
        let q, r = divide ctx ba bb in
        let bzero =
          eq_lit ctx bb (Array.make (Array.length bb) (lit_false ctx))
        in
        (match op with
         | Expr.Udiv ->
           let ones = Array.make (Array.length ba) (lit_true ctx) in
           mux_bits ctx bzero ones q
         | Expr.Urem -> mux_bits ctx bzero ba r
         | _ -> assert false)
      | Expr.Sdiv | Expr.Srem ->
        let w = Array.length ba in
        let sa = ba.(w - 1) and sb = bb.(w - 1) in
        let ma = mux_bits ctx sa (negate_bits ctx ba) ba in
        let mb = mux_bits ctx sb (negate_bits ctx bb) bb in
        let q, r = divide ctx ma mb in
        let bzero = eq_lit ctx bb (Array.make w (lit_false ctx)) in
        (match op with
         | Expr.Sdiv ->
           let qsign = gate_xor ctx sa sb in
           let q' = mux_bits ctx qsign (negate_bits ctx q) q in
           (* Division by zero: 1 when dividend negative, ones otherwise. *)
           let ones = Array.make w (lit_true ctx) in
           let one = Array.init w (fun i -> lit_of_bool ctx (i = 0)) in
           let dz = mux_bits ctx sa one ones in
           mux_bits ctx bzero dz q'
         | Expr.Srem ->
           let r' = mux_bits ctx sa (negate_bits ctx r) r in
           mux_bits ctx bzero ba r'
         | _ -> assert false)
    in
    Bits bits
  | Expr.Extract (hi, lo, x) ->
    let bx = bv_bits ctx x in
    Bits (Array.sub bx lo (hi - lo + 1))
  | Expr.Concat (a, b) ->
    let ba = bv_bits ctx a and bb = bv_bits ctx b in
    Bits (Array.append bb ba)
  | Expr.Zext (w, x) ->
    let bx = bv_bits ctx x in
    Bits (Array.init w (fun i -> if i < Array.length bx then bx.(i) else lit_false ctx))
  | Expr.Sext (w, x) ->
    let bx = bv_bits ctx x in
    let n = Array.length bx in
    Bits (Array.init w (fun i -> if i < n then bx.(i) else bx.(n - 1)))

let assert_true ctx e = Sat.add_clause ctx.sat [ bool_lit ctx e ]

(* The Tseitin literal of a boolean term, without asserting it — used by
   Solver.Scope to tie a constraint to a guard variable so it can be
   enabled per-query via assumptions. *)
let literal ctx e = bool_lit ctx e

let var_bits ctx (v : Expr.var) = Hashtbl.find_opt ctx.vars v.Expr.var_id

let extract_model ctx vars =
  List.fold_left
    (fun m (v : Expr.var) ->
       match var_bits ctx v with
       | None -> Model.add v (Bv.zero v.Expr.var_width) m
       | Some bits ->
         let value = ref 0L in
         Array.iteri
           (fun i l ->
              if l <> 0 && Sat.value ctx.sat (abs l) = (l > 0) then
                value := Int64.logor !value (Int64.shift_left 1L i))
           bits;
         Model.add v (Bv.make ~width:v.Expr.var_width !value) m)
    Model.empty vars
