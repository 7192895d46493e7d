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

val create : Sat.t -> ctx
(** A context with no deadline and no stop predicate. *)

type checkpoint
(** A point in the context's insertion history: every encoded term,
    variable and gate, and the constant-true literal, are logged as
    they are added. *)

val checkpoint : ctx -> checkpoint

val rollback : ctx -> checkpoint -> unit
(** Take back every insertion made after the checkpoint.  Together with
    {!Sat.restore} on the context's instance to a checkpoint taken at
    the same point, the pair is then exactly what it was there: the
    same terms encode to the same CNF.  Safe after any exception,
    including one raised mid-encoding. *)

val reset : ctx -> unit
(** Roll back to the empty context.  Together with {!Sat.reset} on the
    context's instance, the pair then behaves exactly like
    [create (Sat.create ())]. *)

val set_deadline : ctx -> float option -> unit
(** Set the deadline (absolute [Unix.gettimeofday] instant) polled
    during translation — subsampled at term-node boundaries — which
    raises {!Sat.Timeout} once passed, so encoding a huge term respects
    the same per-query budget as the CDCL search that follows it.  A
    context reused across queries gets a fresh budget each time, and
    its next {!poll} reads the clock. *)

val poll : ctx -> unit
(** Poll the deadline and the stop predicate now (subject to the same
    subsampling as translation). *)

val set_stop : ctx -> (unit -> bool) option -> unit
(** Set the external-stop predicate polled at the same points; it
    raises {!Sat.Interrupted} when it returns [true]. *)

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
