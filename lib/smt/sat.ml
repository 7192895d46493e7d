(* Literal encoding: variable v (>= 1) maps to internal literals
   2*v (positive) and 2*v+1 (negative).  Internal arrays are indexed by
   variable or by internal literal. *)

exception Resource_exhausted
exception Timeout
exception Interrupted

type result = Sat | Unsat

(* Growable int-array vector used for watch lists. *)
module Ivec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 4 0; len = 0 }

  let push t x =
    if t.len = Array.length t.data then begin
      let data = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 data 0 t.len;
      t.data <- data
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1
end

(* Clauses live in one flat arena: a clause at offset [c] is
   [arena.(c)] literals stored at [arena.(c+1) .. arena.(c+len)], and
   its offset is its id (in watch lists and reasons).  Problem clauses
   come first in intake order; learned clauses are appended after
   them. *)
type t = {
  mutable nvars : int;
  mutable arena : int array;
  mutable arena_len : int;
  mutable pristine : int array;        (* arena as taken in, see [checkpoint] *)
  mutable pristine_len : int;
  mutable watches : Ivec.t array;      (* per internal literal *)
  mutable assign : int array;          (* per var: -1 unassigned / 0 / 1 *)
  mutable level : int array;           (* per var *)
  mutable reason : int array;          (* per var: clause offset or -1 *)
  mutable activity : float array;      (* per var *)
  mutable phase : bool array;          (* per var: saved polarity *)
  mutable trail : int array;           (* internal literals *)
  mutable trail_len : int;
  mutable trail_lim : int array;       (* decision-level boundaries *)
  mutable trail_lim_len : int;
  mutable qhead : int;
  mutable unsat : bool;
  mutable var_inc : float;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable seen : bool array;           (* scratch for conflict analysis *)
  mutable buf : int array;             (* scratch for clause intake *)
  mutable added : int;                 (* clauses kept by [add_clause] *)
  mutable searched : bool;             (* [solve] ran since the last restore *)
}

let create () =
  {
    nvars = 0;
    arena = Array.make 256 0;
    arena_len = 0;
    pristine = [||];
    pristine_len = 0;
    watches = Array.init 64 (fun _ -> Ivec.create ());
    assign = Array.make 16 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    activity = Array.make 16 0.0;
    phase = Array.make 16 false;
    trail = Array.make 16 0;
    trail_len = 0;
    trail_lim = Array.make 16 0;
    trail_lim_len = 0;
    qhead = 0;
    unsat = false;
    var_inc = 1.0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    seen = Array.make 16 false;
    buf = Array.make 16 0;
    added = 0;
    searched = false;
  }

let grow_int_array a n default =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) default in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_float_array a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) 0.0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_bool_array a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) false in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* The per-variable fields a fresh instance holds for [v]. *)
let init_var t v =
  t.assign.(v) <- -1;
  t.level.(v) <- 0;
  t.reason.(v) <- -1;
  t.activity.(v) <- 0.0;
  t.phase.(v) <- false;
  t.seen.(v) <- false

let new_var t =
  t.nvars <- t.nvars + 1;
  let v = t.nvars in
  let n = v + 1 in
  t.assign <- grow_int_array t.assign n (-1);
  t.level <- grow_int_array t.level n 0;
  t.reason <- grow_int_array t.reason n (-1);
  t.activity <- grow_float_array t.activity n;
  t.phase <- grow_bool_array t.phase n;
  t.trail <- grow_int_array t.trail n 0;
  t.trail_lim <- grow_int_array t.trail_lim n 0;
  t.seen <- grow_bool_array t.seen n;
  (* A variable slot may be reused after [restore]. *)
  init_var t v;
  let nlits = 2 * n + 2 in
  if Array.length t.watches < nlits then begin
    let w = Array.make (max nlits (2 * Array.length t.watches)) (Ivec.create ()) in
    Array.blit t.watches 0 w 0 (Array.length t.watches);
    for i = Array.length t.watches to Array.length w - 1 do
      w.(i) <- Ivec.create ()
    done;
    t.watches <- w
  end;
  v

let num_vars t = t.nvars
let num_clauses t = t.added

(* Internal literal helpers. *)
let ilit_of_dimacs l = if l > 0 then 2 * l else 2 * (-l) + 1
let ilit_var l = l lsr 1
let ilit_sign l = l land 1 = 1 (* true = negated *)
let ilit_neg l = l lxor 1

(* Value of an internal literal: -1 unassigned, 0 false, 1 true. *)
let lit_value t l =
  let a = t.assign.(ilit_var l) in
  if a = -1 then -1 else if ilit_sign l then 1 - a else a

let decision_level t = t.trail_lim_len

let enqueue t l reason =
  let v = ilit_var l in
  t.assign.(v) <- (if ilit_sign l then 0 else 1);
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  t.phase.(v) <- not (ilit_sign l);
  t.trail.(t.trail_len) <- l;
  t.trail_len <- t.trail_len + 1

(* Append the clause [src.(pos) .. src.(pos + len - 1)] (two or more
   literals) to the arena and watch its first two literals. *)
let add_clause_internal t src pos len =
  let c = t.arena_len in
  let next = c + 1 + len in
  if next > Array.length t.arena then t.arena <- grow_int_array t.arena next 0;
  let a = t.arena in
  a.(c) <- len;
  Array.blit src pos a (c + 1) len;
  t.arena_len <- next;
  Ivec.push t.watches.(a.(c + 1)) c;
  Ivec.push t.watches.(a.(c + 2)) c;
  c

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for i = t.trail_len - 1 downto bound do
      let v = ilit_var t.trail.(i) in
      t.assign.(v) <- -1;
      t.reason.(v) <- -1
    done;
    t.trail_len <- bound;
    t.qhead <- bound;
    t.trail_lim_len <- lvl
  end

(* Clause intake works in the reusable scratch buffer [t.buf]: [intake]
   insertion-sorts each literal into it (bit-blaster clauses have two
   to four literals), and since a literal and its negation are adjacent
   internal literals (2v, 2v+1), one pass of [commit] over the sorted
   buffer drops duplicates, detects tautologies, drops a clause
   satisfied at level 0 and filters literals false at level 0.  A
   surviving clause of two or more literals is copied into the arena;
   nothing is allocated per clause. *)
let intake t n d =
  if n = Array.length t.buf then t.buf <- grow_int_array t.buf (n + 1) 0;
  let buf = t.buf and l = ilit_of_dimacs d in
  let j = ref n in
  while !j > 0 && buf.(!j - 1) > l do
    buf.(!j) <- buf.(!j - 1);
    decr j
  done;
  buf.(!j) <- l

let commit t n =
  let buf = t.buf in
  let kept = ref 0 and prev = ref (-1) and drop = ref false and i = ref 0 in
  while (not !drop) && !i < n do
    let l = buf.(!i) in
    if l <> !prev then begin
      (* Every assignment on the trail is at level 0 here. *)
      if !prev = ilit_neg l then drop := true
      else begin
        match lit_value t l with
        | 1 -> drop := true
        | 0 -> ()
        | _ ->
          buf.(!kept) <- l;
          incr kept
      end;
      prev := l
    end;
    incr i
  done;
  if not !drop then begin
    t.added <- t.added + 1;
    match !kept with
    | 0 -> t.unsat <- true
    | 1 -> enqueue t buf.(0) (-1)
    | k -> ignore (add_clause_internal t buf 0 k)
  end

(* Incremental use leaves the trail populated after a [Sat] answer; the
   level-0 simplification in [commit] is only sound against the level-0
   prefix, so drop any standing decisions first. *)
let open_intake t =
  if t.unsat then false
  else begin
    if decision_level t > 0 then cancel_until t 0;
    true
  end

let add_clause t lits =
  if open_intake t then
    commit t (List.fold_left (fun n d -> intake t n d; n + 1) 0 lits)

let add_clause2 t a b =
  if open_intake t then begin
    intake t 0 a;
    intake t 1 b;
    commit t 2
  end

let add_clause3 t a b c =
  if open_intake t then begin
    intake t 0 a;
    intake t 1 b;
    intake t 2 c;
    commit t 3
  end

(* Checkpoints.  Up to its first [solve], an instance is the pure
   result of its intake: the arena prefix, the variable count and the
   level-0 units on the trail, nothing else.  A checkpoint records
   those lengths, and [restore] rebuilds everything else from them
   exactly as a fresh instance would hold it after the same intake.
   Propagation reorders the literals of arena clauses in place, so the
   first checkpoint starts a pristine copy of the arena, extended at
   every later checkpoint; an instance that never takes one (a
   retained scope instance) never pays for it. *)
type checkpoint = {
  c_nvars : int;
  c_arena : int;
  c_added : int;
  c_trail : int;
  c_unsat : bool;
}

let empty = { c_nvars = 0; c_arena = 0; c_added = 0; c_trail = 0; c_unsat = false }

let checkpoint t =
  if t.searched then invalid_arg "Sat.checkpoint: taken after a search";
  let n = t.arena_len in
  if n > t.pristine_len then begin
    t.pristine <- grow_int_array t.pristine n 0;
    Array.blit t.arena t.pristine_len t.pristine t.pristine_len
      (n - t.pristine_len);
    t.pristine_len <- n
  end;
  { c_nvars = t.nvars; c_arena = n; c_added = t.added; c_trail = t.trail_len;
    c_unsat = t.unsat }

let restore t c =
  if c.c_arena > t.pristine_len then
    invalid_arg "Sat.restore: checkpoint is not on the current history";
  Array.blit t.pristine 0 t.arena 0 c.c_arena;
  t.arena_len <- c.c_arena;
  t.pristine_len <- c.c_arena;
  (* Watch lists, in intake order as [add_clause_internal] built them. *)
  for l = 0 to min (Array.length t.watches - 1) (2 * t.nvars + 1) do
    t.watches.(l).Ivec.len <- 0
  done;
  let a = t.arena and pos = ref 0 in
  while !pos < c.c_arena do
    Ivec.push t.watches.(a.(!pos + 1)) !pos;
    Ivec.push t.watches.(a.(!pos + 2)) !pos;
    pos := !pos + 1 + a.(!pos)
  done;
  (* Variables above [c_nvars] are re-initialised by [new_var]. *)
  for v = 1 to c.c_nvars do init_var t v done;
  t.nvars <- c.c_nvars;
  (* Level-0 units are never undone, so the trail still starts with the
     ones taken in up to the checkpoint; re-apply them. *)
  t.trail_len <- 0;
  t.trail_lim_len <- 0;
  t.qhead <- 0;
  for i = 0 to c.c_trail - 1 do enqueue t t.trail.(i) (-1) done;
  t.unsat <- c.c_unsat;
  t.var_inc <- 1.0;
  t.conflicts <- 0;
  t.decisions <- 0;
  t.propagations <- 0;
  t.added <- c.c_added;
  t.searched <- false

let reset t = restore t empty

(* Propagation with two watched literals; returns conflicting clause id
   or -1.  Each watch list is compacted in place (read index [i], write
   index [j]): entries that keep watching the false literal are written
   back in visit order, entries that move are pushed onto another
   literal's list, never this one (the new watch is not false). *)
let propagate t =
  let conflict = ref (-1) in
  while !conflict = -1 && t.qhead < t.trail_len do
    let l = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    let false_lit = ilit_neg l in
    (* Clauses watching false_lit must find a new watch. *)
    let ws = t.watches.(false_lit) in
    let data = ws.Ivec.data and n = ws.Ivec.len in
    let i = ref 0 and j = ref 0 in
    let keep cid =
      data.(!j) <- cid;
      incr j
    in
    while !i < n do
      let cid = data.(!i) in
      incr i;
      if !conflict <> -1 then keep cid
      else begin
        let a = t.arena in
        (* The watches are at [cid + 1] and [cid + 2]; ensure the
           second is the false literal. *)
        if a.(cid + 1) = false_lit then begin
          a.(cid + 1) <- a.(cid + 2);
          a.(cid + 2) <- false_lit
        end;
        let first = a.(cid + 1) in
        if lit_value t first = 1 then keep cid
        else begin
          (* Search for a non-false literal to watch. *)
          let stop = cid + 1 + a.(cid) in
          let found = ref false in
          let k = ref (cid + 3) in
          while (not !found) && !k < stop do
            if lit_value t a.(!k) <> 0 then begin
              let tmp = a.(cid + 2) in
              a.(cid + 2) <- a.(!k);
              a.(!k) <- tmp;
              Ivec.push t.watches.(a.(cid + 2)) cid;
              found := true
            end;
            incr k
          done;
          if not !found then begin
            (* Unit or conflicting. *)
            keep cid;
            if lit_value t first = 0 then conflict := cid
            else if lit_value t first = -1 then enqueue t first cid
          end
        end
      end
    done;
    ws.Ivec.len <- !j
  done;
  !conflict

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 1 to t.nvars do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end

(* First-UIP conflict analysis.  Returns (learned clause, backjump
   level); learned.(0) is the asserting literal. *)
let analyze t conflict =
  let learned = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let cid = ref conflict in
  let idx = ref (t.trail_len - 1) in
  let btlevel = ref 0 in
  let continue = ref true in
  while !continue do
    let a = t.arena and c = !cid in
    let start = if !p = -1 then 0 else 1 in
    for j = start to a.(c) - 1 do
      let q = a.(c + 1 + j) in
      let v = ilit_var q in
      if (not t.seen.(v)) && t.level.(v) > 0 then begin
        t.seen.(v) <- true;
        var_bump t v;
        if t.level.(v) = decision_level t then incr counter
        else begin
          learned := q :: !learned;
          if t.level.(v) > !btlevel then btlevel := t.level.(v)
        end
      end
    done;
    (* Select next literal from the trail at the current level. *)
    let continue_inner = ref true in
    while !continue_inner do
      let l = t.trail.(!idx) in
      decr idx;
      if t.seen.(ilit_var l) then begin
        p := l;
        continue_inner := false
      end
    done;
    t.seen.(ilit_var !p) <- false;
    decr counter;
    if !counter = 0 then continue := false
    else cid := t.reason.(ilit_var !p)
  done;
  let learned = Array.of_list (ilit_neg !p :: !learned) in
  (* Clear seen flags. *)
  Array.iter (fun l -> t.seen.(ilit_var l) <- false) learned;
  (* Keep the watched-literal invariant: position 1 must hold the
     literal assigned at the backjump level (the last to be undone). *)
  if Array.length learned > 2 then begin
    let best = ref 1 in
    for j = 2 to Array.length learned - 1 do
      if t.level.(ilit_var learned.(j)) > t.level.(ilit_var learned.(!best))
      then best := j
    done;
    let tmp = learned.(1) in
    learned.(1) <- learned.(!best);
    learned.(!best) <- tmp
  end;
  learned, !btlevel

let pick_branch_var t =
  let best = ref 0 and best_act = ref neg_infinity in
  for v = 1 to t.nvars do
    if t.assign.(v) = -1 && t.activity.(v) > !best_act then begin
      best := v;
      best_act := t.activity.(v)
    end
  done;
  !best

(* Luby restart sequence. *)
let rec luby i =
  (* Find k with 2^(k-1) <= i+1 < 2^k. *)
  let k = ref 1 in
  while (1 lsl !k) - 1 < i + 1 do incr k done;
  if (1 lsl !k) - 1 = i + 1 then 1 lsl (!k - 1)
  else luby (i + 1 - (1 lsl (!k - 1)))

let solve ?(assumptions = []) ?(conflict_limit = max_int) ?deadline ?stop t =
  if t.unsat then Unsat
  else begin
    (* Incremental discipline: every call starts from a clean trail
       (learned clauses, activities and phases persist across calls). *)
    t.searched <- true;
    cancel_until t 0;
    let assumps = Array.of_list (List.map ilit_of_dimacs assumptions) in
    let nassumps = Array.length assumps in
    (* [t.conflicts] is cumulative across calls; the limit bounds this
       call only. *)
    let conflicts0 = t.conflicts in
    let restart_base = 100 in
    let restart_num = ref 0 in
    let result = ref None in
    (* Deadline and external-stop polling happen at propagation
       boundaries (after each [propagate] fixpoint): once at the first
       boundary — so even a query that resolves in a handful of steps
       observes an already-expired deadline — then subsampled every 64
       steps so the clock read does not show up in the profile. *)
    let steps = ref 0 in
    let poll () =
      incr steps;
      if !steps land 63 = 1 then begin
        (match deadline with
         | Some d when Unix.gettimeofday () > d -> raise Timeout
         | Some _ | None -> ());
        match stop with
        | Some f when f () -> raise Interrupted
        | Some _ | None -> ()
      end
    in
    while !result = None do
      let budget = restart_base * luby !restart_num in
      incr restart_num;
      let local_conflicts = ref 0 in
      let restart = ref false in
      while !result = None && not !restart do
        let conflict = propagate t in
        poll ();
        if conflict <> -1 then begin
          t.conflicts <- t.conflicts + 1;
          incr local_conflicts;
          if t.conflicts - conflicts0 > conflict_limit then
            raise Resource_exhausted;
          if decision_level t = 0 then begin
            t.unsat <- true;
            result := Some Unsat
          end
          else if decision_level t <= nassumps then
            (* Every decision so far is an assumption, so the conflict
               is forced by the assumption set: unsat {e under
               assumptions}.  The instance itself stays usable — do NOT
               latch [t.unsat]. *)
            result := Some Unsat
          else begin
            let learned, btlevel = analyze t conflict in
            cancel_until t btlevel;
            if Array.length learned = 1 then enqueue t learned.(0) (-1)
            else begin
              let cid =
                add_clause_internal t learned 0 (Array.length learned)
              in
              enqueue t learned.(0) cid
            end;
            t.var_inc <- t.var_inc /. 0.95;
            if !local_conflicts >= budget then restart := true
          end
        end
        else if decision_level t < nassumps then begin
          (* Assert the next assumption as a decision (MiniSat-style
             solving under assumptions).  An already-implied assumption
             still opens an (empty) decision level so level indices stay
             aligned with assumption indices; a falsified one means
             unsat under assumptions, again without latching
             [t.unsat]. *)
          let a = assumps.(decision_level t) in
          match lit_value t a with
          | 1 ->
            t.trail_lim.(t.trail_lim_len) <- t.trail_len;
            t.trail_lim_len <- t.trail_lim_len + 1
          | 0 -> result := Some Unsat
          | _ ->
            t.decisions <- t.decisions + 1;
            t.trail_lim.(t.trail_lim_len) <- t.trail_len;
            t.trail_lim_len <- t.trail_lim_len + 1;
            enqueue t a (-1)
        end
        else begin
          let v = pick_branch_var t in
          if v = 0 then result := Some Sat
          else begin
            t.decisions <- t.decisions + 1;
            t.trail_lim.(t.trail_lim_len) <- t.trail_len;
            t.trail_lim_len <- t.trail_lim_len + 1;
            let l = if t.phase.(v) then 2 * v else 2 * v + 1 in
            enqueue t l (-1)
          end
        end
      done;
      if !restart then cancel_until t 0
    done;
    (* On Unsat leave a clean trail for the next incremental call; on
       Sat keep the assignment so [value] can read the model. *)
    (match !result with Some Unsat -> cancel_until t 0 | _ -> ());
    match !result with Some r -> r | None -> assert false
  end

(* Seeded search perturbation for retry-with-restart: jitter the
   initial VSIDS activities and saved phases so a retried query walks a
   different part of the search tree.  Deterministic in [seed]; a
   no-op on variables already assigned at level 0. *)
let perturb t seed =
  let st = ref seed in
  let next () =
    let s = Int64.add !st 0x9E3779B97F4A7C15L in
    st := s;
    let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30))
              0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
              0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  for v = 1 to t.nvars do
    let r = next () in
    t.activity.(v) <-
      Int64.to_float (Int64.shift_right_logical r 11) /. 9007199254740992.0;
    t.phase.(v) <- Int64.logand r 1L = 1L
  done

let value t v =
  if v >= 1 && v <= t.nvars && t.assign.(v) = 1 then true else false

let stats_conflicts t = t.conflicts
let stats_decisions t = t.decisions
let stats_propagations t = t.propagations
