(** Eager bit-blasting of bitvector terms to CNF (Tseitin encoding).

    Every bitvector term is translated to a vector of SAT literals
    (LSB first); boolean terms translate to a single literal.
    Translation is memoized per context, so shared subterms are encoded
    once — the natural consequence of hash-consed input terms.  Below
    the terms, every gate folds constant and trivially related
    operands, and gates are structurally hashed per context on their
    normalised operands, so distinct terms with the same circuit share
    its gates.  Gate definitions are never guarded, which keeps that
    sharing sound in a context retained across queries. *)

type ctx

val create : ?deadline:float -> ?stop:(unit -> bool) -> Sat.t -> ctx
(** [deadline] (absolute [Unix.gettimeofday] instant) and [stop] are
    polled during translation — subsampled at term-node boundaries — and
    raise {!Sat.Timeout} / {!Sat.Interrupted} respectively, so encoding
    a huge term respects the same per-query budget as the CDCL search
    that follows it. *)

val set_deadline : ctx -> float option -> unit
(** Replace the deadline polled during translation.  A context kept
    alive across queries ({!Solver.Scope}) gets a fresh per-query
    budget each time. *)

val set_stop : ctx -> (unit -> bool) option -> unit
(** Replace the external-stop predicate polled during translation. *)

val assert_true : ctx -> Expr.t -> unit
(** Assert a boolean term as a top-level constraint. *)

val literal : ctx -> Expr.t -> int
(** The (memoized) Tseitin literal of a boolean term {e without}
    asserting it.  {!Solver.Scope} guards each path constraint with a
    clause [(-guard \/ literal)] and enables it per-query by assuming
    [guard], so popped constraints cost nothing and learned clauses
    stay sound forever. *)

val var_bits : ctx -> Expr.var -> int array option
(** SAT literals allocated for a symbolic variable, if it was
    encountered during translation.  Used for model extraction. *)

val extract_model : ctx -> Expr.var list -> Model.t
(** Read back a model after the SAT solver answered Sat.  Variables
    never translated are unconstrained and read as zero. *)
