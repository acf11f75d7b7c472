type var = int

type row = { coeffs : (float * var) list; rel : Simplex.relation; rhs : float }

type info = { name : string; ub : float; integer : bool }

type t = {
  mutable vars : info array;  (* valid below [nvars], doubled when full *)
  mutable nvars : int;
  mutable rows : row list;  (* reversed *)
  mutable nrows : int;
  mutable objective : (float * var) list;
  mutable sense : [ `Minimize | `Maximize ];
}

type compiled = {
  n : int;
  base : Simplex.row array;
  c : float array;
  c_sense : [ `Minimize | `Maximize ];
}

let create () =
  {
    vars = [||];
    nvars = 0;
    rows = [];
    nrows = 0;
    objective = [];
    sense = `Minimize;
  }

let add_var ?(ub = infinity) ?(integer = false) t name =
  let v = t.nvars in
  let info = { name; ub; integer } in
  if v = Array.length t.vars then begin
    let bigger = Array.make (max 8 (2 * v)) info in
    Array.blit t.vars 0 bigger 0 v;
    t.vars <- bigger
  end;
  t.vars.(v) <- info;
  t.nvars <- v + 1;
  v

let add_binary t name = add_var ~ub:1. ~integer:true t name

let add_constraint t coeffs rel rhs =
  List.iter
    (fun (_, v) ->
       if v < 0 || v >= t.nvars then invalid_arg "Problem.add_constraint: bad var")
    coeffs;
  t.rows <- { coeffs; rel; rhs } :: t.rows;
  t.nrows <- t.nrows + 1

let set_objective t ~sense coeffs =
  t.sense <- sense;
  t.objective <- coeffs

let sense t = t.sense
let num_vars t = t.nvars
let num_constraints t = t.nrows

let check_var t v =
  if v < 0 || v >= t.nvars then invalid_arg "Problem: bad var"

let var_name t v = check_var t v; t.vars.(v).name
let is_integer t v = check_var t v; t.vars.(v).integer

let integer_vars t =
  let acc = ref [] in
  for v = t.nvars - 1 downto 0 do
    if t.vars.(v).integer then acc := v :: !acc
  done;
  !acc

let objective_value t x =
  List.fold_left (fun acc (c, v) -> acc +. (c *. x.(v))) 0. t.objective

let unit_row v rel rhs =
  { Simplex.idx = [| v |]; coef = [| 1. |]; rel; rhs }

(* Row order is part of the simplex's pivot-sequence contract: model rows
   in insertion order, then one [x_v <= ub] row per finite upper bound in
   descending variable order. *)
let compile t =
  let model =
    List.rev_map
      (fun r ->
         {
           Simplex.idx = Array.of_list (List.map snd r.coeffs);
           coef = Array.of_list (List.map fst r.coeffs);
           rel = r.rel;
           rhs = r.rhs;
         })
      t.rows
  in
  let ub_rows = ref [] in
  for v = 0 to t.nvars - 1 do
    let ub = t.vars.(v).ub in
    if ub < infinity then ub_rows := unit_row v Simplex.Le ub :: !ub_rows
  done;
  let c = Array.make t.nvars 0. in
  List.iter (fun (k, v) -> c.(v) <- c.(v) +. k) t.objective;
  {
    n = t.nvars;
    base = Array.of_list (model @ !ub_rows);
    c;
    c_sense = t.sense;
  }

(* Bound overrides follow the compiled rows in list order, the [Le] row
   before the [Ge] row of each. *)
let solve_compiled ?(bounds = []) p =
  let extra =
    List.concat_map
      (fun (v, lb, ub) ->
         let rows = if lb > 0. then [ unit_row v Simplex.Ge lb ] else [] in
         if ub < infinity then unit_row v Simplex.Le ub :: rows else rows)
      bounds
  in
  let rows =
    match extra with
    | [] -> p.base
    | _ -> Array.append p.base (Array.of_list extra)
  in
  Simplex.solve ~sense:p.c_sense ~n:p.n rows ~c:p.c

let solve_relaxation ?bounds t = solve_compiled ?bounds (compile t)
