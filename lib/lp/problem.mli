(** Linear-program model builder.

    Thin mutable wrapper that accumulates named variables and constraints
    and compiles them into the sparse rows expected by {!module:Simplex}.
    All variables are non-negative; finite upper bounds become constraint
    rows. Integrality markers are ignored here — they are enforced by
    {!module:Milp}. *)

type t
type var = private int

val create : unit -> t

val add_var : ?ub:float -> ?integer:bool -> t -> string -> var
(** A non-negative variable. [ub] defaults to [infinity]; [integer]
    defaults to [false]. *)

val add_binary : t -> string -> var
(** Shorthand for an integer variable with upper bound 1. *)

val add_constraint : t -> (float * var) list -> Simplex.relation -> float -> unit

val set_objective : t -> sense:[ `Minimize | `Maximize ] -> (float * var) list -> unit

val sense : t -> [ `Minimize | `Maximize ]
val num_vars : t -> int
val num_constraints : t -> int
val integer_vars : t -> var list
val objective_value : t -> float array -> float
(** Evaluate the objective (in the problem's own sense) on a point. *)

val var_name : t -> var -> string
val is_integer : t -> var -> bool
(** @raise Invalid_argument on a variable of another problem. *)

type compiled
(** An immutable snapshot of a problem's rows, upper-bound rows and
    objective, ready for repeated relaxations (one per branch-and-bound
    node). Later changes to the problem do not affect it, and it may be
    solved from several domains at once. *)

val compile : t -> compiled

val solve_compiled :
  ?bounds:(var * float * float) list -> compiled -> Simplex.outcome
(** Solve the LP relaxation, with optional per-variable bound overrides
    [(v, lb, ub)] added as constraint rows. The reported objective is in
    the problem's sense (a maximisation problem reports the maximum).

    The rows reach {!Simplex.solve} in a fixed order, which together with
    the simplex's pivot-sequence contract fixes the returned vertex: model
    rows in insertion order, then [x_v <= ub] for each finite upper bound
    in descending variable order, then for each override in list order
    [x_v <= ub] (if [ub] is finite) followed by [x_v >= lb] (if
    [lb > 0]). *)

val solve_relaxation : ?bounds:(var * float * float) list -> t -> Simplex.outcome
(** [solve_compiled ?bounds (compile t)]. *)
