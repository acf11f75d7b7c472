(* Test-only oracle: a frozen copy of the dense two-phase Bland simplex
   that [Lp.Simplex] replaced, and of the dense assembly
   [Lp.Problem.solve_relaxation] used to feed it.  The sparse simplex
   promises the same pivot sequence, so on every LP it must return the
   same outcome with bitwise-equal objective and solution (up to the
   sign of a zero).  Do not optimise or "fix" this file: its value is
   that it does not change. *)

type relation = Lp.Simplex.relation = Le | Ge | Eq

type outcome = Lp.Simplex.outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded

let eps = 1e-9

(* The tableau has [m] constraint rows and one objective row (index m).
   Columns: structural variables, then slack/surplus, then artificials,
   then the right-hand side (last column). *)
type tableau = {
  rows : float array array;  (* (m+1) × (cols+1) *)
  basis : int array;  (* basic variable of each constraint row *)
  m : int;
  cols : int;  (* columns excluding RHS *)
  mutable banned_from : int;  (* columns ≥ this may not enter (artificials) *)
}

let pivot t ~row ~col =
  let prow = t.rows.(row) in
  let p = prow.(col) in
  for j = 0 to t.cols do
    prow.(j) <- prow.(j) /. p
  done;
  for i = 0 to t.m do
    if i <> row then begin
      let r = t.rows.(i) in
      let f = r.(col) in
      if abs_float f > eps then
        for j = 0 to t.cols do
          r.(j) <- r.(j) -. (f *. prow.(j))
        done
    end
  done;
  t.basis.(row) <- col

(* Bland's rule: entering column = smallest index with a negative reduced
   cost; leaving row = lexicographically smallest by (ratio, basis index). *)
let rec iterate t =
  let obj = t.rows.(t.m) in
  let entering = ref (-1) in
  (try
     for j = 0 to t.banned_from - 1 do
       if obj.(j) < -.eps then begin
         entering := j;
         raise Exit
       end
     done
   with Exit -> ());
  if !entering < 0 then `Optimal
  else begin
    let col = !entering in
    let leave = ref (-1) in
    let best = ref infinity in
    for i = 0 to t.m - 1 do
      let aij = t.rows.(i).(col) in
      if aij > eps then begin
        let ratio = t.rows.(i).(t.cols) /. aij in
        if
          ratio < !best -. eps
          || (ratio < !best +. eps && (!leave < 0 || t.basis.(i) < t.basis.(!leave)))
        then begin
          best := ratio;
          leave := i
        end
      end
    done;
    if !leave < 0 then `Unbounded
    else begin
      pivot t ~row:!leave ~col;
      iterate t
    end
  end

let phase2 t ~n ~c =
  let m = t.m and cols = t.cols in
  (* Rebuild the reduced-cost row for the real objective. *)
  let obj = t.rows.(m) in
  Array.fill obj 0 (cols + 1) 0.;
  for j = 0 to n - 1 do
    obj.(j) <- c.(j)
  done;
  for i = 0 to m - 1 do
    let cb = if t.basis.(i) < n then c.(t.basis.(i)) else 0. in
    if abs_float cb > eps then
      for j = 0 to cols do
        obj.(j) <- obj.(j) -. (cb *. t.rows.(i).(j))
      done
  done;
  match iterate t with
  | `Unbounded -> Unbounded
  | `Optimal ->
    let solution = Array.make n 0. in
    for i = 0 to m - 1 do
      if t.basis.(i) < n then solution.(t.basis.(i)) <- t.rows.(i).(cols)
    done;
    let objective =
      Array.to_list (Array.mapi (fun j x -> c.(j) *. x) solution)
      |> List.fold_left ( +. ) 0.
    in
    Optimal { objective; solution }

let minimize ~a ~rel ~b ~c =
  let m = Array.length a in
  if Array.length rel <> m || Array.length b <> m then
    invalid_arg "Simplex.minimize: row count mismatch";
  let n = Array.length c in
  Array.iter
    (fun row ->
       if Array.length row <> n then
         invalid_arg "Simplex.minimize: column count mismatch")
    a;
  (* Normalise to non-negative RHS. *)
  let flip r = match r with Le -> Ge | Ge -> Le | Eq -> Eq in
  let rows_in =
    Array.init m (fun i ->
        if b.(i) < 0. then
          Array.map (fun x -> -.x) a.(i), flip rel.(i), -.b.(i)
        else Array.copy a.(i), rel.(i), b.(i))
  in
  let num_slack =
    Array.fold_left
      (fun acc (_, r, _) -> match r with Le | Ge -> acc + 1 | Eq -> acc)
      0 rows_in
  in
  let num_art =
    Array.fold_left
      (fun acc (_, r, _) -> match r with Ge | Eq -> acc + 1 | Le -> acc)
      0 rows_in
  in
  let cols = n + num_slack + num_art in
  let t =
    {
      rows = Array.make_matrix (m + 1) (cols + 1) 0.;
      basis = Array.make m (-1);
      m;
      cols;
      banned_from = n + num_slack;
    }
  in
  let next_slack = ref n in
  let next_art = ref (n + num_slack) in
  Array.iteri
    (fun i (row, r, rhs) ->
       Array.blit row 0 t.rows.(i) 0 n;
       t.rows.(i).(cols) <- rhs;
       (match r with
        | Le ->
          t.rows.(i).(!next_slack) <- 1.;
          t.basis.(i) <- !next_slack;
          incr next_slack
        | Ge ->
          t.rows.(i).(!next_slack) <- -1.;
          incr next_slack;
          t.rows.(i).(!next_art) <- 1.;
          t.basis.(i) <- !next_art;
          incr next_art
        | Eq ->
          t.rows.(i).(!next_art) <- 1.;
          t.basis.(i) <- !next_art;
          incr next_art))
    rows_in;
  (* Phase 1: minimise the sum of artificials. The reduced-cost row starts
     as -(sum of rows whose basic variable is artificial). *)
  if num_art > 0 then begin
    let obj = t.rows.(m) in
    for j = n + num_slack to cols - 1 do
      obj.(j) <- 1.
    done;
    for i = 0 to m - 1 do
      if t.basis.(i) >= n + num_slack then
        for j = 0 to cols do
          obj.(j) <- obj.(j) -. t.rows.(i).(j)
        done
    done;
    t.banned_from <- n + num_slack;
    (match iterate t with
     | `Optimal -> ()
     | `Unbounded -> assert false (* phase 1 is bounded below by 0 *));
    if t.rows.(m).(cols) < -.eps then Infeasible
    else begin
      (* Pivot artificials out of the basis where possible. *)
      for i = 0 to m - 1 do
        if t.basis.(i) >= n + num_slack then begin
          let found = ref (-1) in
          (try
             for j = 0 to n + num_slack - 1 do
               if abs_float t.rows.(i).(j) > eps then begin
                 found := j;
                 raise Exit
               end
             done
           with Exit -> ());
          if !found >= 0 then pivot t ~row:i ~col:!found
          (* else: redundant row; the artificial stays basic at value 0 and
             can never re-enter with a positive value. *)
        end
      done;
      phase2 t ~n ~c
    end
  end
  else phase2 t ~n ~c

let maximize ~a ~rel ~b ~c =
  match minimize ~a ~rel ~b ~c:(Array.map (fun x -> -.x) c) with
  | Optimal { objective; solution } ->
    Optimal { objective = -.objective; solution }
  | (Infeasible | Unbounded) as r -> r

(* The old [Problem.solve_relaxation] assembly: model rows in insertion
   order, then one [x_v <= ub] row per finite upper bound in descending
   variable order, then the [bounds] overrides in list order ([Le]
   before [Ge] for each), into a dense matrix with duplicate
   coefficients summed. *)
let solve_relaxation ~n ~ubs ~rows ~objective ~sense ?(bounds = []) () =
  let extra_rows =
    List.concat_map
      (fun (v, lb, ub) ->
         let rows = ref [] in
         if lb > 0. then rows := ([ 1., v ], Ge, lb) :: !rows;
         if ub < infinity then rows := ([ 1., v ], Le, ub) :: !rows;
         !rows)
      bounds
  in
  let ub_rows = ref [] in
  Array.iteri
    (fun v ub -> if ub < infinity then ub_rows := ([ 1., v ], Le, ub) :: !ub_rows)
    ubs;
  let all_rows = rows @ !ub_rows @ extra_rows in
  let m = List.length all_rows in
  let a = Array.make_matrix m n 0. in
  let rel = Array.make m Eq in
  let b = Array.make m 0. in
  List.iteri
    (fun i (coeffs, r, rhs) ->
       List.iter (fun (c, v) -> a.(i).(v) <- a.(i).(v) +. c) coeffs;
       rel.(i) <- r;
       b.(i) <- rhs)
    all_rows;
  let c = Array.make n 0. in
  List.iter (fun (k, v) -> c.(v) <- c.(v) +. k) objective;
  match sense with
  | `Minimize -> minimize ~a ~rel ~b ~c
  | `Maximize -> maximize ~a ~rel ~b ~c
