(* Tests for the sparse-pivot two-phase simplex and the LP model builder. *)

let check = Alcotest.check
let tb = Alcotest.bool
let tf = Alcotest.float 1e-6

let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let solve_min ~a ~rel ~b ~c = Lp.Simplex.minimize ~a ~rel ~b ~c
let solve_max ~a ~rel ~b ~c = Lp.Simplex.maximize ~a ~rel ~b ~c

let expect_optimal = function
  | Lp.Simplex.Optimal { objective; solution } -> objective, solution
  | Lp.Simplex.Infeasible -> Alcotest.fail "unexpected: infeasible"
  | Lp.Simplex.Unbounded -> Alcotest.fail "unexpected: unbounded"

let simplex_tests =
  [
    Alcotest.test_case "textbook maximum" `Quick (fun () ->
        (* max 3x + 2y st x+y<=4, x+3y<=6 -> (4, 0), 12 *)
        let obj, sol =
          expect_optimal
            (solve_max
               ~a:[| [| 1.; 1. |]; [| 1.; 3. |] |]
               ~rel:[| Lp.Simplex.Le; Lp.Simplex.Le |]
               ~b:[| 4.; 6. |] ~c:[| 3.; 2. |])
        in
        check tf "obj" 12. obj;
        check tf "x" 4. sol.(0);
        check tf "y" 0. sol.(1));
    Alcotest.test_case "equality and >= constraints" `Quick (fun () ->
        (* min x+y st x+y>=2, x-y=1 -> (1.5, 0.5) *)
        let obj, sol =
          expect_optimal
            (solve_min
               ~a:[| [| 1.; 1. |]; [| 1.; -1. |] |]
               ~rel:[| Lp.Simplex.Ge; Lp.Simplex.Eq |]
               ~b:[| 2.; 1. |] ~c:[| 1.; 1. |])
        in
        check tf "obj" 2. obj;
        check tf "x" 1.5 sol.(0);
        check tf "y" 0.5 sol.(1));
    Alcotest.test_case "negative rhs normalisation" `Quick (fun () ->
        (* min x st -x <= -3  (i.e. x >= 3) *)
        let obj, _ =
          expect_optimal
            (solve_min ~a:[| [| -1. |] |] ~rel:[| Lp.Simplex.Le |]
               ~b:[| -3. |] ~c:[| 1. |])
        in
        check tf "obj" 3. obj);
    Alcotest.test_case "infeasible detected" `Quick (fun () ->
        check tb "infeasible" true
          (solve_min
             ~a:[| [| 1. |]; [| 1. |] |]
             ~rel:[| Lp.Simplex.Le; Lp.Simplex.Ge |]
             ~b:[| 1.; 2. |] ~c:[| 1. |]
           = Lp.Simplex.Infeasible));
    Alcotest.test_case "unbounded detected" `Quick (fun () ->
        check tb "unbounded" true
          (solve_max ~a:[||] ~rel:[||] ~b:[||] ~c:[| 1. |]
           = Lp.Simplex.Unbounded));
    Alcotest.test_case "degenerate LP terminates (Bland)" `Quick (fun () ->
        (* Classic Beale cycling example; Bland's rule must terminate. *)
        let a =
          [|
            [| 0.25; -8.; -1.; 9. |];
            [| 0.5; -12.; -0.5; 3. |];
            [| 0.; 0.; 1.; 0. |];
          |]
        in
        let obj, _ =
          expect_optimal
            (solve_min ~a
               ~rel:[| Lp.Simplex.Le; Lp.Simplex.Le; Lp.Simplex.Le |]
               ~b:[| 0.; 0.; 1. |]
               ~c:[| -0.75; 150.; -0.02; 6. |])
        in
        check tf "obj" (-0.77) obj);
    Alcotest.test_case "redundant equality rows" `Quick (fun () ->
        (* x = 1 stated twice. *)
        let obj, _ =
          expect_optimal
            (solve_min
               ~a:[| [| 1. |]; [| 1. |] |]
               ~rel:[| Lp.Simplex.Eq; Lp.Simplex.Eq |]
               ~b:[| 1.; 1. |] ~c:[| 1. |])
        in
        check tf "obj" 1. obj);
    Alcotest.test_case "dimension mismatch rejected" `Quick (fun () ->
        check tb "raises" true
          (match
             solve_min ~a:[| [| 1. |] |] ~rel:[||] ~b:[| 1. |] ~c:[| 1. |]
           with
           | exception Invalid_argument _ -> true
           | _ -> false));
  ]

(* Random LPs: minimise a random cost over { x in [0,1]^n : random cuts }.
   The box keeps everything bounded. Cuts are [Le], [Ge] or [Eq] with
   right-hand sides of either sign, so phase 1 runs and some LPs are
   infeasible. *)
let lp_gen =
  QCheck2.Gen.(
    let* n = int_range 1 4 in
    let* m = int_range 1 4 in
    let coeff = map (fun k -> float_of_int (k - 3)) (int_bound 6) in
    let rel = oneofl Lp.Simplex.[ Le; Le; Ge; Eq ] in
    let* rows = list_repeat m (list_repeat n coeff) in
    let* rels = list_repeat m rel in
    let* rhs = list_repeat m (map (fun k -> float_of_int (k - 2)) (int_bound 7)) in
    let* c = list_repeat n coeff in
    return (n, rows, rels, rhs, c))

let build_lp (n, rows, rels, rhs, c) =
  let m = List.length rows in
  let a = Array.make_matrix (m + 2 * n) n 0. in
  let rel = Array.make (m + 2 * n) Lp.Simplex.Le in
  let b = Array.make (m + 2 * n) 0. in
  List.iteri
    (fun i row ->
       List.iteri (fun j v -> a.(i).(j) <- v) row;
       rel.(i) <- List.nth rels i;
       b.(i) <- List.nth rhs i)
    rows;
  (* box: x_j <= 1 (lower bound 0 is implicit) *)
  for j = 0 to n - 1 do
    a.(m + j).(j) <- 1.;
    b.(m + j) <- 1.
  done;
  (* filler rows x_j <= 1 again: duplicate rows *)
  for j = 0 to n - 1 do
    a.(m + n + j).(j) <- 1.;
    b.(m + n + j) <- 1.
  done;
  a, rel, b, Array.of_list c

let feasible (a, rel, b) x =
  let m = Array.length b in
  let ok = ref true in
  for i = 0 to m - 1 do
    let lhs = ref 0. in
    Array.iteri (fun j v -> lhs := !lhs +. (v *. x.(j))) a.(i);
    (match rel.(i) with
     | Lp.Simplex.Le -> if !lhs > b.(i) +. 1e-6 then ok := false
     | Lp.Simplex.Ge -> if !lhs < b.(i) -. 1e-6 then ok := false
     | Lp.Simplex.Eq -> if abs_float (!lhs -. b.(i)) > 1e-6 then ok := false)
  done;
  Array.iter (fun v -> if v < -1e-9 then ok := false) x;
  !ok

(* [true] iff some 0/1 corner of the box satisfies [pred]. *)
let exists_corner n pred =
  let found = ref false in
  for mask = 0 to (1 lsl n) - 1 do
    if pred (Array.init n (fun j -> if mask land (1 lsl j) <> 0 then 1. else 0.))
    then found := true
  done;
  !found

let simplex_property_tests =
  [
    qcheck_case "solution is feasible and objective consistent" ~count:200
      lp_gen
      (fun spec ->
         let a, rel, b, c = build_lp spec in
         match Lp.Simplex.minimize ~a ~rel ~b ~c with
         | Lp.Simplex.Unbounded -> false (* box-bounded: impossible *)
         | Lp.Simplex.Infeasible ->
           (* No 0/1 corner of the box may be feasible. *)
           not (exists_corner (Array.length c) (feasible (a, rel, b)))
         | Lp.Simplex.Optimal { objective; solution } ->
           feasible (a, rel, b) solution
           &&
           let recomputed = ref 0. in
           Array.iteri
             (fun j v -> recomputed := !recomputed +. (v *. solution.(j)))
             c;
           abs_float (!recomputed -. objective) < 1e-6);
    qcheck_case "no sampled corner beats the optimum" ~count:200 lp_gen
      (fun spec ->
         let a, rel, b, c = build_lp spec in
         match Lp.Simplex.minimize ~a ~rel ~b ~c with
         | Lp.Simplex.Unbounded | Lp.Simplex.Infeasible -> true
         | Lp.Simplex.Optimal { objective; _ } ->
           (* No feasible 0/1 corner of the box may have a smaller
              objective. *)
           not
             (exists_corner (Array.length c) (fun x ->
                  feasible (a, rel, b) x
                  &&
                  let v = ref 0. in
                  Array.iteri (fun j cj -> v := !v +. (cj *. x.(j))) c;
                  !v < objective -. 1e-6)));
  ]

(* Bit-identity against [Lp_oracle], the frozen dense simplex this one
   replaced: same outcome, objective and solution bitwise equal (a zero
   may differ in sign). Seeded random LPs over Le/Ge/Eq rows with
   right-hand sides of either sign, sparse, integral and fractional
   coefficients, and redundant rows (copies, doubled copies and negated
   copies with the relation flipped), so phase 1, the artificial
   pivot-out and the redundant-row path all run. *)
let same_float x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) || (x = 0. && y = 0.)

let same_outcome x y =
  match x, y with
  | Lp.Simplex.Optimal a, Lp.Simplex.Optimal b ->
    same_float a.objective b.objective
    && Array.length a.solution = Array.length b.solution
    && Array.for_all2 same_float a.solution b.solution
  | Lp.Simplex.Infeasible, Lp.Simplex.Infeasible
  | Lp.Simplex.Unbounded, Lp.Simplex.Unbounded -> true
  | _ -> false

let outcome_kind = function
  | Lp.Simplex.Optimal _ -> 0
  | Lp.Simplex.Infeasible -> 1
  | Lp.Simplex.Unbounded -> 2

let random_coeff st =
  match Random.State.int st 4 with
  | 0 -> 0.
  | 1 -> float_of_int (Random.State.int st 7 - 3)
  | 2 -> float_of_int (Random.State.int st 13 - 6) /. 3.
  | _ -> Random.State.float st 4. -. 2.

let random_rel st =
  match Random.State.int st 3 with
  | 0 -> Lp.Simplex.Le
  | 1 -> Lp.Simplex.Ge
  | _ -> Lp.Simplex.Eq

let random_rhs st =
  if Random.State.bool st then float_of_int (Random.State.int st 11 - 5)
  else Random.State.float st 8. -. 3.

let flip = function
  | Lp.Simplex.Le -> Lp.Simplex.Ge
  | Lp.Simplex.Ge -> Lp.Simplex.Le
  | Lp.Simplex.Eq -> Lp.Simplex.Eq

(* Rows as (dense coefficients, relation, rhs); a fifth of them restate an
   earlier row. *)
let random_rows st ~n ~m =
  let rows = Array.make m ([||], Lp.Simplex.Le, 0.) in
  for i = 0 to m - 1 do
    rows.(i) <-
      (if i > 0 && Random.State.int st 5 = 0 then
         let r, rel, rhs = rows.(Random.State.int st i) in
         match Random.State.int st 3 with
         | 0 -> Array.copy r, rel, rhs
         | 1 -> Array.map (fun x -> 2. *. x) r, rel, 2. *. rhs
         | _ -> Array.map (fun x -> -.x) r, flip rel, -.rhs
       else
         Array.init n (fun _ -> random_coeff st), random_rel st, random_rhs st)
  done;
  rows

let oracle_dense_case st =
  let n = 1 + Random.State.int st 6 in
  let m = 1 + Random.State.int st 8 in
  let rows = random_rows st ~n ~m in
  (* Half the LPs get an x <= 2 box, so most of them are bounded. *)
  let rows =
    if Random.State.bool st then
      Array.append rows
        (Array.init n (fun j ->
             Array.init n (fun k -> if k = j then 1. else 0.), Lp.Simplex.Le, 2.))
    else rows
  in
  let a = Array.map (fun (r, _, _) -> r) rows in
  let rel = Array.map (fun (_, r, _) -> r) rows in
  let b = Array.map (fun (_, _, b) -> b) rows in
  let c = Array.init n (fun _ -> random_coeff st) in
  if Random.State.bool st then
    Lp.Simplex.minimize ~a ~rel ~b ~c, Lp_oracle.minimize ~a ~rel ~b ~c
  else Lp.Simplex.maximize ~a ~rel ~b ~c, Lp_oracle.maximize ~a ~rel ~b ~c

(* The model-builder path: upper bounds, repeated variables within a row
   and the objective, and branch-and-bound style bound overrides. *)
let oracle_problem_case st =
  let n = 1 + Random.State.int st 6 in
  let m = 1 + Random.State.int st 8 in
  let p = Lp.Problem.create () in
  let ubs =
    Array.init n (fun _ ->
        match Random.State.int st 3 with 0 -> infinity | 1 -> 1. | _ -> 2.5)
  in
  let vars =
    Array.mapi (fun j ub -> Lp.Problem.add_var ~ub p (Printf.sprintf "x%d" j)) ubs
  in
  let terms r =
    let ts = ref [] in
    Array.iteri (fun j x -> if x <> 0. then ts := (x, j) :: !ts) r;
    (* Now and then split a coefficient over two mentions. *)
    (match !ts with
     | (x, j) :: rest when Random.State.int st 4 = 0 ->
       ts := (x /. 2., j) :: rest @ [ x /. 2., j ]
     | _ -> ());
    !ts
  in
  let rows =
    Array.to_list (random_rows st ~n ~m)
    |> List.map (fun (r, rel, rhs) -> terms r, rel, rhs)
  in
  List.iter
    (fun (ts, rel, rhs) ->
       Lp.Problem.add_constraint p
         (List.map (fun (x, j) -> x, vars.(j)) ts) rel rhs)
    rows;
  let objective = terms (Array.init n (fun _ -> random_coeff st)) in
  let sense = if Random.State.bool st then `Minimize else `Maximize in
  Lp.Problem.set_objective p ~sense (List.map (fun (x, j) -> x, vars.(j)) objective);
  let bounds =
    List.init (Random.State.int st 4) (fun _ ->
        let j = Random.State.int st n in
        let lb = if Random.State.bool st then 0. else 1. in
        let ub = if Random.State.bool st then infinity else lb in
        j, lb, ub)
  in
  ( Lp.Problem.solve_compiled
      ~bounds:(List.map (fun (j, lb, ub) -> vars.(j), lb, ub) bounds)
      (Lp.Problem.compile p),
    Lp_oracle.solve_relaxation ~n ~ubs ~rows ~objective ~sense ~bounds () )

let oracle_run ~count case =
  let st = Random.State.make [| 20260 |] in
  let kinds = Array.make 3 0 in
  for k = 1 to count do
    let got, want = case st in
    if not (same_outcome got want) then
      Alcotest.failf "LP %d of %d differs from the dense oracle" k count;
    let i = outcome_kind want in
    kinds.(i) <- kinds.(i) + 1
  done;
  (* The mix must reach every outcome, or the case generator is too tame. *)
  Array.iter (fun k -> check tb "every outcome kind seen" true (k > 0)) kinds

let oracle_tests =
  [
    Alcotest.test_case "dense LPs bit-identical to the dense oracle" `Quick
      (fun () -> oracle_run ~count:20_000 oracle_dense_case);
    Alcotest.test_case "model-builder LPs bit-identical to the dense oracle"
      `Quick (fun () -> oracle_run ~count:10_000 oracle_problem_case);
  ]

(* Relaxations shaped like [Compact.Label_mip]'s (per-node cover rows,
   two rows per edge, D >= R and D >= C, strengthening cuts), solved at
   the same time on a 4-wide pool: each tableau owns its scratch, so the
   outcomes must equal a sequential run's. *)
let label_mip_shaped st =
  let n = 6 + Random.State.int st 10 in
  let p = Lp.Problem.create () in
  let xv = Array.init n (fun i -> Lp.Problem.add_binary p (Printf.sprintf "v%d" i)) in
  let xh = Array.init n (fun i -> Lp.Problem.add_binary p (Printf.sprintf "h%d" i)) in
  let d = Lp.Problem.add_var p "D" in
  for i = 0 to n - 1 do
    Lp.Problem.add_constraint p [ (1., xv.(i)); (1., xh.(i)) ] Lp.Simplex.Ge 1.
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Random.State.int st 3 = 0 then begin
        Lp.Problem.add_constraint p [ (1., xh.(i)); (1., xh.(j)) ] Lp.Simplex.Ge 1.;
        Lp.Problem.add_constraint p [ (1., xv.(i)); (1., xv.(j)) ] Lp.Simplex.Ge 1.
      end
    done
  done;
  let neg xs = Array.to_list (Array.map (fun v -> -1., v) xs) in
  let pos xs = Array.to_list (Array.map (fun v -> 1., v) xs) in
  Lp.Problem.add_constraint p ((1., d) :: neg xh) Lp.Simplex.Ge 0.;
  Lp.Problem.add_constraint p ((1., d) :: neg xv) Lp.Simplex.Ge 0.;
  Lp.Problem.add_constraint p (pos xv @ pos xh) Lp.Simplex.Ge (float_of_int n);
  Lp.Problem.add_constraint p [ (1., d) ] Lp.Simplex.Ge
    (ceil (float_of_int n /. 2.));
  let gamma = [| 0.; 0.5; 1. |].(Random.State.int st 3) in
  Lp.Problem.set_objective p ~sense:`Minimize
    (((1. -. gamma), d)
     :: List.map (fun (_, v) -> gamma, v) (pos xv @ pos xh));
  let compiled = Lp.Problem.compile p in
  (* Branch-and-bound style fixings, newest first. *)
  List.init 8 (fun _ ->
      let fixings =
        List.init (Random.State.int st 5) (fun _ ->
            let v = (if Random.State.bool st then xv else xh).(Random.State.int st n) in
            if Random.State.bool st then v, 0., 0. else v, 1., infinity)
      in
      compiled, fixings)

let concurrency_tests =
  [
    Alcotest.test_case "concurrent relaxations equal sequential ones" `Quick
      (fun () ->
         let st = Random.State.make [| 7 |] in
         let tasks =
           Array.of_list (List.concat (List.init 16 (fun _ -> label_mip_shaped st)))
         in
         let solve (compiled, bounds) () =
           Lp.Problem.solve_compiled ~bounds compiled
         in
         let sequential = Array.map (fun t -> solve t ()) tasks in
         for _ = 1 to 3 do
           let pooled =
             Parallel.with_pool ~jobs:4 (fun pool ->
                 Parallel.run pool (Array.map solve tasks))
           in
           Array.iteri
             (fun i o ->
                check tb (Printf.sprintf "relaxation %d" i) true
                  (same_outcome sequential.(i) o))
             pooled
         done);
  ]

let problem_tests =
  [
    Alcotest.test_case "builder with upper bounds" `Quick (fun () ->
        let p = Lp.Problem.create () in
        let x = Lp.Problem.add_var ~ub:2. p "x" in
        let y = Lp.Problem.add_var p "y" in
        Lp.Problem.add_constraint p [ (1., x); (1., y) ] Lp.Simplex.Le 10.;
        Lp.Problem.set_objective p ~sense:`Maximize [ (3., x); (1., y) ];
        (match Lp.Problem.solve_relaxation p with
         | Lp.Simplex.Optimal { objective; solution } ->
           (* x capped at 2, y fills the rest: 3*2 + 8 = 14. *)
           check tf "obj" 14. objective;
           check tf "x" 2. solution.((x :> int))
         | _ -> Alcotest.fail "expected optimal"));
    Alcotest.test_case "bound overrides" `Quick (fun () ->
        let p = Lp.Problem.create () in
        let x = Lp.Problem.add_var ~ub:5. p "x" in
        Lp.Problem.set_objective p ~sense:`Maximize [ (1., x) ];
        (match Lp.Problem.solve_relaxation ~bounds:[ x, 1., 3. ] p with
         | Lp.Simplex.Optimal { objective; _ } -> check tf "obj" 3. objective
         | _ -> Alcotest.fail "expected optimal"));
    Alcotest.test_case "metadata" `Quick (fun () ->
        let p = Lp.Problem.create () in
        let x = Lp.Problem.add_binary p "x" in
        let _y = Lp.Problem.add_var p "y" in
        check Alcotest.int "vars" 2 (Lp.Problem.num_vars p);
        check tb "x integer" true (Lp.Problem.is_integer p x);
        check Alcotest.string "name" "x" (Lp.Problem.var_name p x);
        check Alcotest.int "one integer var" 1
          (List.length (Lp.Problem.integer_vars p)));
    Alcotest.test_case "objective_value" `Quick (fun () ->
        let p = Lp.Problem.create () in
        let x = Lp.Problem.add_var p "x" in
        let y = Lp.Problem.add_var p "y" in
        Lp.Problem.set_objective p ~sense:`Minimize [ (2., x); (-1., y) ];
        check tf "value" 3. (Lp.Problem.objective_value p [| 2.; 1. |]));
  ]

let () =
  Alcotest.run "lp"
    [
      "simplex", simplex_tests;
      "simplex-properties", simplex_property_tests;
      "simplex-oracle", oracle_tests;
      "concurrency", concurrency_tests;
      "problem", problem_tests;
    ]
