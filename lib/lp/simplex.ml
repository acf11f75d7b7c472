type relation = Le | Ge | Eq

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded

type row = { idx : int array; coef : float array; rel : relation; rhs : float }

let eps = 1e-9

let c_pivots = Obs.Counter.make "lp.pivots"
let c_phase1_pivots = Obs.Counter.make "lp.phase1_pivots"

(* The tableau has [m] constraint rows and one objective row (index m).
   Columns: structural variables, then slack/surplus, then the
   right-hand side (last column). Artificial variables are not stored:
   they may never enter and no value of theirs is read after set-up, so
   only their basis indices [cols + k] survive, keeping Bland's leaving
   tie-break exactly what it is with the columns present. *)
type tableau = {
  rows : float array array;  (* (m+1) × (cols+1) *)
  basis : int array;  (* basic variable of each constraint row *)
  m : int;
  cols : int;  (* enterable columns; also the RHS column's index *)
  nz : int array;  (* scratch: nonzero column indices of the pivot row *)
  mutable pivots : int;
}

(* Only the pivot row's nonzero columns can change, so they are
   collected once and every other row is updated over those alone. A
   skipped column would have had [x -. f *. 0.] applied, which changes
   at most the sign of a zero. *)
let pivot t ~row ~col =
  let prow = t.rows.(row) in
  let p = prow.(col) in
  let nz = t.nz in
  let k = ref 0 in
  for j = 0 to t.cols do
    let x = prow.(j) in
    if x <> 0. then begin
      prow.(j) <- x /. p;
      nz.(!k) <- j;
      incr k
    end
  done;
  let k = !k in
  for i = 0 to t.m do
    if i <> row then begin
      let r = t.rows.(i) in
      let f = r.(col) in
      if abs_float f > eps then
        for q = 0 to k - 1 do
          let j = nz.(q) in
          r.(j) <- r.(j) -. (f *. prow.(j))
        done
    end
  done;
  t.basis.(row) <- col;
  t.pivots <- t.pivots + 1

(* Bland's rule: entering column = smallest index with a negative reduced
   cost; leaving row = lexicographically smallest by (ratio, basis index). *)
let rec iterate t =
  let obj = t.rows.(t.m) in
  let entering = ref (-1) in
  (try
     for j = 0 to t.cols - 1 do
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
    if abs_float cb > eps then begin
      let r = t.rows.(i) in
      for j = 0 to cols do
        let x = r.(j) in
        if x <> 0. then obj.(j) <- obj.(j) -. (cb *. x)
      done
    end
  done;
  match iterate t with
  | `Unbounded -> Unbounded
  | `Optimal ->
    let solution = Array.make n 0. in
    for i = 0 to m - 1 do
      if t.basis.(i) < n then solution.(t.basis.(i)) <- t.rows.(i).(cols)
    done;
    let objective = ref 0. in
    for j = 0 to n - 1 do
      objective := !objective +. (c.(j) *. solution.(j))
    done;
    Optimal { objective = !objective; solution }

(* Phase 1: minimise the sum of artificials, whose rows are those with a
   basis index of [cols] or more. The reduced-cost row starts as -(sum of
   those rows). [false] when the LP is infeasible. *)
let phase1 t =
  let m = t.m and cols = t.cols in
  let obj = t.rows.(m) in
  for i = 0 to m - 1 do
    if t.basis.(i) >= cols then begin
      let r = t.rows.(i) in
      for j = 0 to cols do
        let x = r.(j) in
        if x <> 0. then obj.(j) <- obj.(j) -. x
      done
    end
  done;
  (match iterate t with
   | `Optimal -> ()
   | `Unbounded -> assert false (* phase 1 is bounded below by 0 *));
  if t.rows.(m).(cols) < -.eps then false
  else begin
    (* Pivot artificials out of the basis where possible. *)
    for i = 0 to m - 1 do
      if t.basis.(i) >= cols then begin
        let found = ref (-1) in
        (try
           for j = 0 to cols - 1 do
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
    true
  end

let flip = function Le -> Ge | Ge -> Le | Eq -> Eq

(* Rows with a negative right-hand side are negated so every RHS is
   non-negative; a [Le] row gets a slack, a [Ge] row a surplus and an
   artificial, an [Eq] row an artificial. *)
let solve_min ~n rows ~c =
  let m = Array.length rows in
  let rel_of (r : row) = if r.rhs < 0. then flip r.rel else r.rel in
  let num_slack = ref 0 in
  Array.iter
    (fun r -> match rel_of r with Le | Ge -> incr num_slack | Eq -> ())
    rows;
  let cols = n + !num_slack in
  let t =
    {
      rows = Array.make_matrix (m + 1) (cols + 1) 0.;
      basis = Array.make m (-1);
      m;
      cols;
      nz = Array.make (cols + 1) 0;
      pivots = 0;
    }
  in
  let next_slack = ref n in
  let next_art = ref cols in
  Array.iteri
    (fun i (r : row) ->
       let tr = t.rows.(i) in
       let neg = r.rhs < 0. in
       Array.iteri
         (fun k j ->
            let a = r.coef.(k) in
            tr.(j) <- tr.(j) +. (if neg then -.a else a))
         r.idx;
       tr.(cols) <- (if neg then -.r.rhs else r.rhs);
       match rel_of r with
       | Le ->
         tr.(!next_slack) <- 1.;
         t.basis.(i) <- !next_slack;
         incr next_slack
       | Ge ->
         tr.(!next_slack) <- -1.;
         incr next_slack;
         t.basis.(i) <- !next_art;
         incr next_art
       | Eq ->
         t.basis.(i) <- !next_art;
         incr next_art)
    rows;
  let feasible = !next_art = cols || phase1 t in
  let phase1_pivots = t.pivots in
  let outcome = if feasible then phase2 t ~n ~c else Infeasible in
  Obs.Counter.add c_phase1_pivots phase1_pivots;
  Obs.Counter.add c_pivots t.pivots;
  outcome

let solve ~sense ~n rows ~c =
  if Array.length c <> n then invalid_arg "Simplex.solve: objective length";
  Array.iter
    (fun r ->
       if Array.length r.coef <> Array.length r.idx then
         invalid_arg "Simplex.solve: idx/coef length mismatch";
       Array.iter
         (fun j -> if j < 0 || j >= n then invalid_arg "Simplex.solve: bad column")
         r.idx)
    rows;
  match sense with
  | `Minimize -> solve_min ~n rows ~c
  | `Maximize ->
    (match solve_min ~n rows ~c:(Array.map (fun x -> -.x) c) with
     | Optimal { objective; solution } ->
       Optimal { objective = -.objective; solution }
     | (Infeasible | Unbounded) as r -> r)

let sparse_rows ~a ~rel ~b ~c =
  let m = Array.length a in
  if Array.length rel <> m || Array.length b <> m then
    invalid_arg "Simplex.minimize: row count mismatch";
  let n = Array.length c in
  Array.mapi
    (fun i row ->
       if Array.length row <> n then
         invalid_arg "Simplex.minimize: column count mismatch";
       let idx = ref [] in
       for j = n - 1 downto 0 do
         if row.(j) <> 0. then idx := j :: !idx
       done;
       let idx = Array.of_list !idx in
       { idx; coef = Array.map (fun j -> row.(j)) idx; rel = rel.(i); rhs = b.(i) })
    a

let minimize ~a ~rel ~b ~c =
  solve ~sense:`Minimize ~n:(Array.length c) (sparse_rows ~a ~rel ~b ~c) ~c

let maximize ~a ~rel ~b ~c =
  solve ~sense:`Maximize ~n:(Array.length c) (sparse_rows ~a ~rel ~b ~c) ~c
