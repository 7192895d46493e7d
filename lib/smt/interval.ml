type t = { lo : int64; hi : int64; w : int }

let ucmp = Int64.unsigned_compare
let umin a b = if ucmp a b <= 0 then a else b
let umax a b = if ucmp a b >= 0 then a else b

let mask w =
  if w >= 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

let top w = { lo = 0L; hi = mask w; w }
let singleton v = { lo = Bv.to_int64 v; hi = Bv.to_int64 v; w = Bv.width v }
let is_singleton t = t.lo = t.hi
let mem v t = ucmp (Bv.to_int64 v) t.lo >= 0 && ucmp (Bv.to_int64 v) t.hi <= 0

let inter a b =
  let lo = umax a.lo b.lo and hi = umin a.hi b.hi in
  if ucmp lo hi <= 0 then Some { lo; hi; w = a.w } else None

let pp ppf t = Format.fprintf ppf "[0x%Lx..0x%Lx]:%d" t.lo t.hi t.w

type env = (int, t) Hashtbl.t

let make_env () : env = Hashtbl.create 32

let env_interval env (v : Expr.var) =
  match Hashtbl.find_opt env v.Expr.var_id with
  | Some i -> i
  | None -> top v.Expr.var_width

(* Addition without wrap is representable iff hi1 + hi2 does not exceed
   the width mask (checked in 64-bit arithmetic, guarding 64-bit
   overflow itself). *)
let add_no_wrap w a b =
  let s = Int64.add a b in
  (* 64-bit unsigned overflow check: s < a means wrapped. *)
  if ucmp s a < 0 then None
  else if ucmp s (mask w) > 0 then None
  else Some s

let rec bounds env (e : Expr.t) : t =
  match e.Expr.node with
  | Expr.Bv_const v -> singleton v
  | Expr.Bool_const b -> { lo = (if b then 1L else 0L); hi = (if b then 1L else 0L); w = 1 }
  | Expr.Var v -> env_interval env v
  | Expr.Ite (_, a, b) ->
    let ia = bounds env a and ib = bounds env b in
    { lo = umin ia.lo ib.lo; hi = umax ia.hi ib.hi; w = ia.w }
  | Expr.Bin (op, a, b) ->
    let ia = bounds env a and ib = bounds env b in
    let w = ia.w in
    (match op with
     | Expr.Add ->
       (match add_no_wrap w ia.hi ib.hi with
        | Some hi ->
          (match add_no_wrap w ia.lo ib.lo with
           | Some lo -> { lo; hi; w }
           | None -> top w)
        | None -> top w)
     | Expr.Sub ->
       (* No wrap iff lo(a) >= hi(b). *)
       if ucmp ia.lo ib.hi >= 0 then
         { lo = Int64.sub ia.lo ib.hi; hi = Int64.sub ia.hi ib.lo; w }
       else top w
     | Expr.Mul ->
       if ia.hi = 0L || ib.hi = 0L then { lo = 0L; hi = 0L; w }
       else if
         ucmp ia.hi 0xFFFF_FFFFL <= 0 && ucmp ib.hi 0xFFFF_FFFFL <= 0
         && ucmp (Int64.mul ia.hi ib.hi) (mask w) <= 0
       then { lo = Int64.mul ia.lo ib.lo; hi = Int64.mul ia.hi ib.hi; w }
       else top w
     | Expr.And -> { lo = 0L; hi = umin ia.hi ib.hi; w }
     | Expr.Or -> { lo = umax ia.lo ib.lo; hi = mask w; w }
     | Expr.Udiv ->
       if ib.lo = 0L then top w
       else { lo = Int64.unsigned_div ia.lo ib.hi; hi = Int64.unsigned_div ia.hi ib.lo; w }
     | Expr.Urem ->
       (* x urem 0 = x, so a divisor range reaching 0 bounds the
          result by the dividend only. *)
       if ib.hi = 0L then bounds env a
       else if ib.lo = 0L then { lo = 0L; hi = ia.hi; w }
       else { lo = 0L; hi = umin ia.hi (Int64.sub ib.hi 1L); w }
     | Expr.Shl ->
       let ibb = bounds env b in
       if is_singleton ibb && ucmp ibb.lo (Int64.of_int w) < 0 then
         let s = Int64.to_int ibb.lo in
         if ucmp ia.hi (Int64.shift_right_logical (mask w) s) <= 0 then
           { lo = Int64.shift_left ia.lo s; hi = Int64.shift_left ia.hi s; w }
         else top w
       else top w
     | Expr.Lshr ->
       let ibb = bounds env b in
       if is_singleton ibb && ucmp ibb.lo 63L <= 0 then
         let s = Int64.to_int ibb.lo in
         { lo = Int64.shift_right_logical ia.lo s;
           hi = Int64.shift_right_logical ia.hi s; w }
       else { lo = 0L; hi = ia.hi; w }
     | Expr.Xor | Expr.Sdiv | Expr.Srem | Expr.Ashr -> top w)
  | Expr.Bnot _ -> top (Expr.width e)
  | Expr.Extract (hi, lo, x) ->
    let ix = bounds env x in
    let w = hi - lo + 1 in
    if lo = 0 && ucmp ix.hi (mask (hi + 1)) <= 0 then { lo = ix.lo; hi = ix.hi; w }
    else top w
  | Expr.Zext (w, x) ->
    let ix = bounds env x in
    { lo = ix.lo; hi = ix.hi; w }
  | Expr.Sext (w, x) ->
    let ix = bounds env x in
    let xw = Expr.width x in
    if ucmp ix.hi (mask (xw - 1)) <= 0 then { lo = ix.lo; hi = ix.hi; w }
    else top w
  | Expr.Concat (a, b) ->
    let ia = bounds env a and ib = bounds env b in
    let wb = ib.w in
    let w = ia.w + wb in
    if is_singleton ia then
      { lo = Int64.logor (Int64.shift_left ia.lo wb) ib.lo;
        hi = Int64.logor (Int64.shift_left ia.lo wb) ib.hi; w }
    else { lo = Int64.shift_left ia.lo wb; hi = mask w; w }
  | Expr.Not _ | Expr.Andb _ | Expr.Orb _ | Expr.Cmp _ ->
    { lo = 0L; hi = 1L; w = 1 }

type verdict = Definitely_unsat | Unknown

exception Empty

let refine env (v : Expr.var) (i : t) =
  match inter (env_interval env v) i with
  | Some j -> Hashtbl.replace env v.Expr.var_id j
  | None -> raise Empty

(* Recognize [var CMP const] shapes (possibly through zext) and refine. *)
let rec as_var (e : Expr.t) : Expr.var option =
  match e.Expr.node with
  | Expr.Var v -> Some v
  | Expr.Zext (_, x) -> as_var x
  | Expr.Bool_const _ | Expr.Bv_const _ | Expr.Not _ | Expr.Andb _
  | Expr.Orb _ | Expr.Cmp _ | Expr.Ite _ | Expr.Bnot _ | Expr.Bin _
  | Expr.Extract _ | Expr.Concat _ | Expr.Sext _ ->
    None

let refine_constraint env (c : Expr.t) =
  let refine_cmp op (a : Expr.t) (b : Expr.t) ~positive =
    let var_const =
      match as_var a, Expr.to_bv b with
      | Some v, Some k -> Some (`Left, v, Bv.to_int64 k)
      | _ ->
        (match Expr.to_bv a, as_var b with
         | Some k, Some v -> Some (`Right, v, Bv.to_int64 k)
         | _ -> None)
    in
    match var_const with
    | None -> ()
    | Some (side, v, k) ->
      let w = v.Expr.var_width in
      let full = mask w in
      (* Constraints through zext only refine when k fits the var width. *)
      if ucmp k full > 0 then ()
      else
        let itv =
          match op, side, positive with
          | Expr.Eq, _, true -> Some { lo = k; hi = k; w }
          | Expr.Eq, _, false -> None (* holes are not representable *)
          | Expr.Ult, `Left, true ->
            if k = 0L then raise Empty
            else Some { lo = 0L; hi = Int64.sub k 1L; w }
          | Expr.Ult, `Left, false -> Some { lo = k; hi = full; w }
          | Expr.Ult, `Right, true ->
            if k = full then raise Empty
            else Some { lo = Int64.add k 1L; hi = full; w }
          | Expr.Ult, `Right, false -> Some { lo = 0L; hi = k; w }
          | Expr.Ule, `Left, true -> Some { lo = 0L; hi = k; w }
          | Expr.Ule, `Left, false ->
            if k = full then raise Empty
            else Some { lo = Int64.add k 1L; hi = full; w }
          | Expr.Ule, `Right, true -> Some { lo = k; hi = full; w }
          | Expr.Ule, `Right, false ->
            if k = 0L then raise Empty
            else Some { lo = 0L; hi = Int64.sub k 1L; w }
          | (Expr.Slt | Expr.Sle), _, _ -> None
        in
        match itv with None -> () | Some i -> refine env v i
  in
  let rec go c ~positive =
    match c.Expr.node with
    | Expr.Not x -> go x ~positive:(not positive)
    | Expr.Andb (a, b) when positive -> go a ~positive; go b ~positive
    | Expr.Orb (a, b) when not positive ->
      go a ~positive; go b ~positive (* ¬(a∨b) = ¬a ∧ ¬b *)
    | Expr.Cmp (op, a, b) -> refine_cmp op a b ~positive
    | Expr.Bool_const false when positive -> raise Empty
    | Expr.Bool_const true when not positive -> raise Empty
    | Expr.Bool_const _ | Expr.Andb _ | Expr.Orb _ | Expr.Bv_const _
    | Expr.Var _ | Expr.Ite _ | Expr.Bnot _ | Expr.Bin _ | Expr.Extract _
    | Expr.Concat _ | Expr.Zext _ | Expr.Sext _ ->
      ()
  in
  go c ~positive:true

(* A constraint is definitely false when its interval evaluation can only
   be false, e.g. [a < b] with hi(a) < lo(b) being violated on the whole
   ranges. *)
let definitely_false env (c : Expr.t) =
  let rec go c ~positive =
    match c.Expr.node with
    | Expr.Not x -> go x ~positive:(not positive)
    | Expr.Cmp (op, a, b) ->
      let ia = bounds env a and ib = bounds env b in
      (match op, positive with
       | Expr.Eq, true -> inter ia ib = None
       | Expr.Eq, false ->
         is_singleton ia && is_singleton ib && ia.lo = ib.lo
       | Expr.Ult, true -> ucmp ia.lo ib.hi >= 0 (* min a >= max b *)
       | Expr.Ult, false -> ucmp ia.hi ib.lo < 0
       | Expr.Ule, true -> ucmp ia.lo ib.hi > 0
       | Expr.Ule, false -> ucmp ia.hi ib.lo <= 0
       | (Expr.Slt | Expr.Sle), _ -> false)
    | Expr.Bool_const b -> if positive then not b else b
    | Expr.Andb (a, b) -> positive && (go a ~positive:true || go b ~positive:true)
    | Expr.Orb _ -> false
    | Expr.Var _ | Expr.Bv_const _ | Expr.Ite _ | Expr.Bnot _ | Expr.Bin _
    | Expr.Extract _ | Expr.Concat _ | Expr.Zext _ | Expr.Sext _ ->
      false
  in
  go c ~positive:true

let propagate env constraints =
  try
    (* Two refinement passes let simple chains converge. *)
    List.iter (refine_constraint env) constraints;
    List.iter (refine_constraint env) constraints;
    if List.exists (definitely_false env) constraints then Definitely_unsat
    else Unknown
  with Empty -> Definitely_unsat

let candidates env vars =
  let assignment pick =
    fun (v : Expr.var) ->
      let i = env_interval env v in
      Bv.make ~width:v.Expr.var_width (pick i)
  in
  let lows = assignment (fun i -> i.lo) in
  let highs = assignment (fun i -> i.hi) in
  let zeros (v : Expr.var) =
    let i = env_interval env v in
    if mem (Bv.zero v.Expr.var_width) i then Bv.zero v.Expr.var_width
    else Bv.make ~width:v.Expr.var_width i.lo
  in
  (* Mixed assignments decide most two-variable comparisons (x < y and
     y < x) without the SAT solver: alternate endpoints by position. *)
  let index_of =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun i (v : Expr.var) -> Hashtbl.replace tbl v.Expr.var_id i) vars;
    fun (v : Expr.var) ->
      match Hashtbl.find_opt tbl v.Expr.var_id with Some i -> i | None -> 0
  in
  let lohi (v : Expr.var) =
    let i = env_interval env v in
    Bv.make ~width:v.Expr.var_width
      (if index_of v mod 2 = 0 then i.lo else i.hi)
  in
  let hilo (v : Expr.var) =
    let i = env_interval env v in
    Bv.make ~width:v.Expr.var_width
      (if index_of v mod 2 = 0 then i.hi else i.lo)
  in
  (* Near-endpoint values catch strict comparisons between neighbours
     (x < y with both in the same range). *)
  let lo_plus (v : Expr.var) =
    let i = env_interval env v in
    let bump = Int64.add i.lo (Int64.of_int (index_of v)) in
    Bv.make ~width:v.Expr.var_width (if ucmp bump i.hi <= 0 then bump else i.hi)
  in
  let hi_minus (v : Expr.var) =
    let i = env_interval env v in
    let drop = Int64.sub i.hi (Int64.of_int (index_of v)) in
    Bv.make ~width:v.Expr.var_width (if ucmp drop i.lo >= 0 then drop else i.lo)
  in
  [ lows; highs; zeros; lohi; hilo; lo_plus; hi_minus ]
