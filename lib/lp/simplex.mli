(** Two-phase primal simplex with sparse-row pivots.

    Solves [min c·x] subject to [A x {≤,≥,=} b], [x ≥ 0]. Bland's rule is
    used throughout, so the method cannot cycle. This is the LP backend of
    {!module:Milp}, replacing the CPLEX dependency of the paper.

    The tableau is dense, but a pivot touches only the columns where the
    pivot row is nonzero: those indices are gathered once per pivot into
    a scratch buffer owned by the tableau (never shared, so LPs may run
    concurrently on different domains), and every other row with a
    pivot-column entry above [1e-9] is updated over them alone.
    Artificial columns are not stored. They can never enter, and no value
    of theirs is read after set-up, so only their basis indices remain
    (numbered after the slack columns, as if the columns were there).

    Pivot-sequence contract: the entering column, the leaving row and
    every value-changing floating-point operation are exactly those of
    the dense tableau with artificial columns that this module replaced,
    in the same order. Outcomes, objectives and solutions are therefore
    bit-identical to it, except that a zero may differ in sign. Branch and
    bound trees, and the designs tie-broken by LP vertices, depend on
    this; a test-only frozen copy of the dense method checks it.

    Each solve adds its pivot count to the [lp.pivots] Obs counter and the
    pivots made before phase 2 (phase 1 and driving artificials out of
    the basis) to [lp.phase1_pivots]. *)

type relation = Le | Ge | Eq

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded

type row = { idx : int array; coef : float array; rel : relation; rhs : float }
(** A sparse constraint row [Σ_k coef.(k)·x_{idx.(k)} rel rhs]. A
    repeated index adds its coefficients in order. *)

val solve :
  sense:[ `Minimize | `Maximize ] -> n:int -> row array -> c:float array -> outcome
(** [solve ~sense ~n rows ~c] over [n] non-negative variables. Rows keep
    their given order, which is part of the pivot-sequence contract. A
    maximisation negates [c], minimises and reports the maximum.
    @raise Invalid_argument if [c] is not of length [n], or a row's
    [idx] and [coef] differ in length or name a column outside [0, n). *)

val minimize :
  a:float array array ->
  rel:relation array ->
  b:float array ->
  c:float array ->
  outcome
(** [minimize ~a ~rel ~b ~c] with [a] an [m×n] row-major constraint matrix:
    {!solve} over the nonzero entries of each row. All variables are
    non-negative; use {!module:Problem} for a friendlier model-building
    interface with upper bounds.
    @raise Invalid_argument on dimension mismatches. *)

val maximize :
  a:float array array ->
  rel:relation array ->
  b:float array ->
  c:float array ->
  outcome
(** Same, negating the objective; the reported [objective] is the maximum. *)
