(** A CDCL SAT solver (conflict-driven clause learning).

    Features: two-watched-literal propagation, first-UIP conflict
    analysis with clause learning, VSIDS-style variable activities,
    phase saving, and Luby restarts.  The solver is self-contained and
    is the backend of {!Solver} after bit-blasting.

    Variables are positive integers allocated with {!new_var}.  Literals
    use the DIMACS convention: [v] for the positive literal of variable
    [v] and [-v] for its negation. *)

type t

val create : unit -> t

type checkpoint
(** The state of an instance that has only taken in clauses since its
    creation or its last {!restore}: variable count, clause arena
    length, level-0 units and whether a clause came out empty. *)

val checkpoint : t -> checkpoint
(** Record the current state.  Raises [Invalid_argument] if {!solve}
    ran since the last {!restore}.  The first checkpoint starts a
    pristine copy of the clause arena (propagation reorders clause
    literals in place), so an instance that never takes one pays
    nothing. *)

val restore : t -> checkpoint -> unit
(** Return to exactly the state a fresh instance from {!create} has
    after taking in the same clauses up to the checkpoint: same
    variables, clauses with their literal order and watch lists,
    level-0 units, and zero activities, phases and counters.  Learned
    clauses and everything taken in after the checkpoint are dropped.
    Checkpoints follow a stack discipline: [c] may be restored only if
    no restore since [c] was taken went to a checkpoint older than [c].
    Safe after any exception, including one raised mid-encoding or
    mid-search. *)

val reset : t -> unit
(** Restore to the empty checkpoint: the instance behaves exactly like
    a fresh one from {!create}.  Allocated arrays are kept. *)

val new_var : t -> int
(** Allocate a fresh variable; returns its index (starting at 1). *)

val num_vars : t -> int

val num_clauses : t -> int
(** Clauses accepted by {!add_clause} so far: tautologies and clauses
    already satisfied at level 0 are not counted, learned clauses are
    not counted. *)

val add_clause : t -> int list -> unit
(** Add a clause given as DIMACS literals.  Tautologies are dropped and
    duplicate literals removed.  Adding the empty clause (or a clause
    that is immediately falsified at level 0) makes the instance
    unsatisfiable.  Safe to call between incremental {!solve} calls:
    any standing decisions from a previous [Sat] answer are undone
    first. *)

val add_clause2 : t -> int -> int -> unit
val add_clause3 : t -> int -> int -> int -> unit
(** [add_clause] for two and three literals, without building a list. *)

type result = Sat | Unsat

val solve :
  ?assumptions:int list ->
  ?conflict_limit:int -> ?deadline:float -> ?stop:(unit -> bool) -> t -> result
(** Solve the current clause set, optionally under [assumptions] —
    DIMACS literals asserted as the first decisions (MiniSat-style).
    [Unsat] under a non-empty assumption set does {e not} poison the
    instance: a later call with different assumptions may answer [Sat].
    Only a conflict at decision level 0 (independent of any assumption)
    makes the instance permanently unsatisfiable.

    [conflict_limit] bounds the number of conflicts {e of this call}
    (default: unlimited); reaching it raises {!Resource_exhausted}.
    [deadline] is an absolute [Unix.gettimeofday] instant; the CDCL
    loop polls it at propagation boundaries and raises {!Timeout} once
    passed.  [stop] is polled at the same points and raises
    {!Interrupted} when it returns [true] (used for SIGINT-responsive
    solving).

    Learned clauses, VSIDS activities and saved phases persist across
    calls, so repeated queries over a shared clause set get cheaper —
    this is the substrate of {!Solver.Scope}. *)

exception Resource_exhausted
exception Timeout
exception Interrupted

val perturb : t -> int64 -> unit
(** Seed-derived jitter of the initial VSIDS activities and saved
    phases, so a retried query explores the search tree in a different
    order.  Used by {!Solver}'s retry-with-restart: a query that came
    back Unknown under one ordering may well resolve under another
    within the same budget.  Deterministic in the seed. *)

val value : t -> int -> bool
(** Model value of a variable after [solve] returned [Sat].  Unassigned
    variables (possible when they occur in no clause) read as [false]. *)

val stats_conflicts : t -> int
val stats_decisions : t -> int
val stats_propagations : t -> int
