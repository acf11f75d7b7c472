(** VH-labeling method 2 (§VI-B): the weighted objective γ·S + (1−γ)·D as
    a mixed-integer program, solved by {!Milp.Branch_bound}.

    The formulation is an equivalent strengthening of the paper's Eq 4:
    instead of one helper binary per edge, each edge (i, j) contributes the
    two rows [xH_i + xH_j ≥ 1] and [xV_i + xV_j ≥ 1] — i.e. the H side and
    the V side must each form a vertex cover — together with
    [xV_i + xH_i ≥ 1] per node. A case split on the labels of i and j
    shows this admits exactly the label pairs realisable on a crossbar,
    so the feasible sets coincide while the LP relaxation is no weaker.
    Two optional cutting planes tighten the relaxation: [S ≥ n + k_lb]
    from an OCT lower bound, and [D ≥ ⌈S_lb / 2⌉].

    Alignment (Eq 7) adds [xH_i = 1] for the terminal and all roots. *)

val objective_step : float -> float option
(** [objective_step gamma] is [Some (1 / q)] for the smallest [q ≤ 64]
    with [gamma · q] integral, else [None]. The objective
    γ·S + (1−γ)·D is then a multiple of [1 / q] at every subtree optimum
    of the branch & bound: S is an integer, and D's coefficient is 0 at
    γ = 1 while otherwise D = max(R, C, ⌈(n + k_lb)/2⌉), an integer too.
    {!solve} passes it as {!Milp.Branch_bound.solve}'s [objective_step],
    so nodes that cannot beat the incumbent on that lattice are pruned. *)

exception Infeasible of string
(** Raised by {!solve} when user-imposed row/column capacity constraints
    admit no labeling (§III: "COMPACT would generate a valid design D or
    return that the specified design constraints are infeasible"). *)

val solve :
  ?budget:Resilience.Budget.t ->
  ?node_limit:int ->
  ?alignment:bool ->
  ?gamma:float ->
  ?warm_start:Types.labeling ->
  ?oct_cut:int ->
  ?max_rows:int ->
  ?max_cols:int ->
  ?jobs:int ->
  Types.bdd_graph ->
  Types.labeling
(** [gamma] defaults to 0.5 (the paper's recommended setting);
    [warm_start] seeds the incumbent (default: {!Label_oct.greedy});
    [oct_cut] is a known lower bound on the OCT size used for the
    strengthening cut (default: 0, i.e. only the trivial [S ≥ n] cut).
    [max_rows]/[max_cols] impose hard capacities on the wordline/bitline
    counts (the §III constrained formulation); the warm start is dropped
    when it violates them.
    [jobs] parallelises the branch & bound search (see
    {!Milp.Branch_bound.solve}); default 1, the sequential path.
    The result carries the solver's convergence [trace].
    @raise Infeasible when capacity constraints cannot be met. *)
