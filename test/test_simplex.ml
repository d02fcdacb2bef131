(* Tests for the bounded-variable simplex: hand-checked LPs, degenerate
   and pathological cases, and randomized properties (feasibility of the
   reported optimum, optimality versus sampled feasible points, and
   warm-start/fresh-solve agreement). *)

module Lp = Ilp.Lp
module Sx = Ilp.Simplex

let check_float = Alcotest.(check (float 1e-6))

let solve_status lp =
  let r = Sx.solve lp in
  r.Sx.status

let user_obj lp (r : Sx.result) = Lp.obj_sign lp *. r.Sx.obj

(* -------- hand-checked LPs -------- *)

let test_basic_max () =
  (* max 3x + 2y st x + y <= 4; x + 3y <= 6 -> (4, 0), obj 12 *)
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Continuous in
  let y = Lp.add_var lp Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Le 4.);
  ignore (Lp.add_constr lp [ (1., x); (3., y) ] Lp.Le 6.);
  Lp.set_objective lp ~maximize:true [ (3., x); (2., y) ];
  let r = Sx.solve lp in
  Alcotest.(check bool) "optimal" true (r.Sx.status = Sx.Optimal);
  check_float "obj" 12. (user_obj lp r);
  check_float "x" 4. r.Sx.x.((x :> int));
  check_float "y" 0. r.Sx.x.((y :> int))

let test_phase1_eq_ge () =
  (* min x + y st x + y >= 3; x - y = 1; x <= 2 -> (2, 1), obj 3 *)
  let lp = Lp.create () in
  let x = Lp.add_var lp ~ub:2. Lp.Continuous in
  let y = Lp.add_var lp Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Ge 3.);
  ignore (Lp.add_constr lp [ (1., x); (-1., y) ] Lp.Eq 1.);
  Lp.set_objective lp [ (1., x); (1., y) ];
  let r = Sx.solve lp in
  Alcotest.(check bool) "optimal" true (r.Sx.status = Sx.Optimal);
  check_float "obj" 3. r.Sx.obj;
  check_float "x" 2. r.Sx.x.((x :> int));
  check_float "y" 1. r.Sx.x.((y :> int))

let test_infeasible () =
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x) ] Lp.Le 1.);
  ignore (Lp.add_constr lp [ (1., x) ] Lp.Ge 2.);
  Alcotest.(check bool) "infeasible" true (solve_status lp = Sx.Infeasible)

let test_unbounded () =
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x) ] Lp.Ge 0.);
  Lp.set_objective lp ~maximize:true [ (1., x) ];
  Alcotest.(check bool) "unbounded" true (solve_status lp = Sx.Unbounded)

let test_bounded_by_var_bounds_only () =
  (* no constraints at all: optimum at the bound *)
  let lp = Lp.create () in
  let x = Lp.add_var lp ~lb:(-3.) ~ub:7. Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x) ] Lp.Le 100.);
  Lp.set_objective lp ~maximize:true [ (1., x) ];
  let r = Sx.solve lp in
  check_float "at upper bound" 7. r.Sx.x.((x :> int))

let test_negative_lower_bounds () =
  (* min x + y with x >= -5, y >= -5, x + y >= -6 -> obj -6 *)
  let lp = Lp.create () in
  let x = Lp.add_var lp ~lb:(-5.) Lp.Continuous in
  let y = Lp.add_var lp ~lb:(-5.) Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Ge (-6.));
  Lp.set_objective lp [ (1., x); (1., y) ];
  let r = Sx.solve lp in
  Alcotest.(check bool) "optimal" true (r.Sx.status = Sx.Optimal);
  check_float "obj" (-6.) r.Sx.obj

let test_free_variable () =
  (* free variable pinned by an equality *)
  let lp = Lp.create () in
  let x = Lp.add_var lp ~lb:Float.neg_infinity ~ub:Float.infinity Lp.Continuous in
  let y = Lp.add_var lp ~ub:10. Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Eq 4.);
  Lp.set_objective lp [ (1., x) ];
  let r = Sx.solve lp in
  Alcotest.(check bool) "optimal" true (r.Sx.status = Sx.Optimal);
  (* min x -> y at its max 10, x = -6 *)
  check_float "obj" (-6.) r.Sx.obj

let test_degenerate () =
  (* multiple redundant constraints through one vertex *)
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Continuous in
  let y = Lp.add_var lp Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Le 1.);
  ignore (Lp.add_constr lp [ (2., x); (2., y) ] Lp.Le 2.);
  ignore (Lp.add_constr lp [ (1., x) ] Lp.Le 1.);
  ignore (Lp.add_constr lp [ (1., y) ] Lp.Le 1.);
  Lp.set_objective lp ~maximize:true [ (1., x); (1., y) ];
  let r = Sx.solve lp in
  check_float "obj" 1. (user_obj lp r)

let test_equality_fixed_value () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~ub:9. Lp.Continuous in
  ignore (Lp.add_constr lp [ (2., x) ] Lp.Eq 6.);
  Lp.set_objective lp ~maximize:true [ (1., x) ];
  let r = Sx.solve lp in
  check_float "x pinned" 3. r.Sx.x.((x :> int))

let test_zero_rows_model () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~ub:2. Lp.Continuous in
  (* A model without constraints still needs at least dimension-0 row
     handling: add a vacuous row to exercise m >= 1, then none. *)
  Lp.set_objective lp ~maximize:true [ (1., x) ];
  let r = Sx.solve lp in
  check_float "no rows" 2. (user_obj lp r)

(* -------- randomized properties -------- *)

(* Random LP with a known feasible point: x0 random in [0, 5]^n; rows
   a.x <= a.x0 + slack with a >= 0. Box bounds keep it bounded. *)
type rand_lp = {
  lp : Lp.t;
  x0 : float array;
}

let make_rand_lp (seed : int) ~n ~m =
  let rng = Taskgraph.Prng.create seed in
  let lp = Lp.create () in
  let vars =
    Array.init n (fun _ -> Lp.add_var lp ~ub:5. Lp.Continuous)
  in
  let x0 = Array.init n (fun _ -> Taskgraph.Prng.float rng *. 5.) in
  for _ = 1 to m do
    let terms =
      Array.to_list vars
      |> List.filter_map (fun v ->
             if Taskgraph.Prng.bool rng 0.5 then
               Some (Float.of_int (Taskgraph.Prng.int_in rng 1 4), v)
             else None)
    in
    if terms <> [] then begin
      let act =
        List.fold_left
          (fun acc ((c : float), (v : Lp.var)) -> acc +. (c *. x0.((v :> int))))
          0. terms
      in
      let slack = Taskgraph.Prng.float rng *. 3. in
      ignore (Lp.add_constr lp terms Lp.Le (act +. slack))
    end
  done;
  let obj =
    Array.to_list vars
    |> List.map (fun v ->
           (Float.of_int (Taskgraph.Prng.int_in rng (-3) 3), v))
  in
  Lp.set_objective lp ~maximize:true obj;
  { lp; x0 }

let prop_feasible_and_dominates =
  QCheck.Test.make ~name:"simplex optimum feasible and >= sampled point"
    ~count:150 QCheck.(int_bound 100_000)
    (fun seed ->
      let { lp; x0 } = make_rand_lp seed ~n:6 ~m:8 in
      let r = Sx.solve lp in
      match r.Sx.status with
      | Sx.Optimal ->
        let feas = Ilp.Feas_check.is_feasible ~tol:1e-5 lp r.Sx.x in
        let dominates =
          user_obj lp r +. 1e-5 >= Ilp.Feas_check.objective_value lp x0
        in
        feas && dominates
      | Sx.Unbounded | Sx.Infeasible | Sx.Iter_limit ->
        (* by construction the model is feasible and bounded *)
        false)

(* Exact oracle for a float verdict: every [Optimal] must certify in
   rational arithmetic, and no verdict may be refuted. *)
let certify_ok st r =
  let c = Ilp.Certify.check (Sx.snapshot st) r in
  c.Ilp.Certify.verdict <> Ilp.Certify.Refuted
  && (r.Sx.status <> Sx.Optimal || c.Ilp.Certify.verdict = Ilp.Certify.Certified)

let prop_warm_start_agrees =
  QCheck.Test.make
    ~name:"dual_reopt after bound changes agrees with fresh primal" ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let { lp; _ } = make_rand_lp seed ~n:6 ~m:8 in
      let st = Sx.create lp in
      let r0 = Sx.primal st in
      if r0.Sx.status <> Sx.Optimal || not (certify_ok st r0) then false
      else begin
        let rng = Taskgraph.Prng.create (seed + 7) in
        let ok = ref true in
        for _round = 1 to 5 do
          (* randomly tighten or restore some variable bounds *)
          for j = 0 to 5 do
            if Taskgraph.Prng.bool rng 0.4 then begin
              let fix = Float.of_int (Taskgraph.Prng.int_in rng 0 3) in
              Sx.set_var_bounds st j ~lb:fix ~ub:fix
            end
            else Sx.set_var_bounds st j ~lb:0. ~ub:5.
          done;
          let warm = Sx.dual_reopt st in
          if not (certify_ok st warm) then ok := false;
          (* fresh state on the same bounds *)
          let lp2 = Lp.copy lp in
          for j = 0 to 5 do
            let lb, ub = Sx.get_var_bounds st j in
            Lp.set_bounds lp2 (Lp.var_of_int lp2 j) ~lb ~ub
          done;
          let fresh = Sx.solve lp2 in
          (match (warm.Sx.status, fresh.Sx.status) with
           | Sx.Optimal, Sx.Optimal ->
             if Float.abs (warm.Sx.obj -. fresh.Sx.obj) > 1e-5 then ok := false
           | Sx.Infeasible, Sx.Infeasible -> ()
           | _, _ -> ok := false)
        done;
        !ok
      end)

(* Mixed-sense random LPs: equalities and >= rows anchored at a known
   feasible point, plus occasional negative lower bounds. *)
let make_rand_mixed seed ~n ~m =
  let rng = Taskgraph.Prng.create seed in
  let lp = Lp.create () in
  let vars =
    Array.init n (fun _ ->
        if Taskgraph.Prng.bool rng 0.2 then
          Lp.add_var lp ~lb:(-3.) ~ub:4. Lp.Continuous
        else Lp.add_var lp ~ub:5. Lp.Continuous)
  in
  let x0 =
    Array.init n (fun j ->
        let v = Lp.var_of_int lp j in
        let lo = Lp.var_lb lp v and hi = Lp.var_ub lp v in
        lo +. (Taskgraph.Prng.float rng *. (hi -. lo)))
  in
  for _ = 1 to m do
    let terms =
      Array.to_list vars
      |> List.filter_map (fun v ->
             if Taskgraph.Prng.bool rng 0.5 then
               Some (Float.of_int (Taskgraph.Prng.int_in rng (-3) 4), v)
             else None)
    in
    if terms <> [] then begin
      let act =
        List.fold_left
          (fun acc ((c : float), (v : Lp.var)) -> acc +. (c *. x0.((v :> int))))
          0. terms
      in
      match Taskgraph.Prng.int rng 3 with
      | 0 -> ignore (Lp.add_constr lp terms Lp.Le (act +. (Taskgraph.Prng.float rng *. 3.)))
      | 1 -> ignore (Lp.add_constr lp terms Lp.Ge (act -. (Taskgraph.Prng.float rng *. 3.)))
      | _ -> ignore (Lp.add_constr lp terms Lp.Eq act)
    end
  done;
  let obj =
    Array.to_list vars
    |> List.map (fun v -> (Float.of_int (Taskgraph.Prng.int_in rng (-3) 3), v))
  in
  Lp.set_objective lp ~maximize:true obj;
  (lp, x0)

let prop_mixed_senses =
  QCheck.Test.make ~name:"mixed eq/ge/le rows with negative bounds" ~count:150
    QCheck.(int_bound 100_000)
    (fun seed ->
      let lp, x0 = make_rand_mixed seed ~n:7 ~m:7 in
      let r = Sx.solve lp in
      match r.Sx.status with
      | Sx.Optimal ->
        Ilp.Feas_check.is_feasible ~tol:1e-5 lp r.Sx.x
        && user_obj lp r +. 1e-5 >= Ilp.Feas_check.objective_value lp x0
      | Sx.Unbounded | Sx.Infeasible | Sx.Iter_limit -> false)

let prop_lp_bound_below_milp =
  QCheck.Test.make ~name:"LP relaxation bounds the MILP optimum" ~count:80
    QCheck.(int_bound 100_000)
    (fun seed ->
      (* binary knapsack-ish models *)
      let rng = Taskgraph.Prng.create seed in
      let lp = Lp.create () in
      let n = 7 in
      let vars = Array.init n (fun _ -> Lp.add_var lp Lp.Binary) in
      for _ = 1 to 4 do
        let terms =
          Array.to_list vars
          |> List.filter_map (fun v ->
                 if Taskgraph.Prng.bool rng 0.7 then
                   Some (Float.of_int (Taskgraph.Prng.int_in rng 1 5), v)
                 else None)
        in
        if terms <> [] then
          ignore
            (Lp.add_constr lp terms Lp.Le
               (Float.of_int (Taskgraph.Prng.int_in rng 3 12)))
      done;
      Lp.set_objective lp ~maximize:true
        (Array.to_list vars
        |> List.map (fun v -> (Float.of_int (Taskgraph.Prng.int_in rng 1 9), v)));
      let relax = Sx.solve lp in
      match (relax.Sx.status, Ilp.Branch_bound.solve lp) with
      | Sx.Optimal, (Ilp.Branch_bound.Optimal { obj; _ }, _) ->
        (* both minimization-oriented: relaxation is a lower bound *)
        relax.Sx.obj <= obj +. 1e-6
      | _ -> false)


(* ---------------- pricing rules and warm dual repairs ---------------- *)

(* Hand-built 0-1 model whose warm repair must push a boxed column to
   its upper bound: one equality row
     x1 + x2 + 0.5 x3 + x4 + y = 2
   with x1, x2, x3, x4 in [0,1], y in [0, 0.3], maximizing
   x1 + x2 - 0.6 x3 - 2 x4. The optimum is x1 = x2 = 1 with y basic at
   0. Fixing x1 at 0 pushes y to 1 > 0.3; the cheapest repair raises x3
   to its upper bound (ratio 1.2, reducing the excess by 0.5) and takes
   the remaining 0.2 from x4. *)
let boxed_repair_model () =
  let lp = Lp.create () in
  let x1 = Lp.add_var lp ~ub:1. Lp.Continuous in
  let x2 = Lp.add_var lp ~ub:1. Lp.Continuous in
  let x3 = Lp.add_var lp ~ub:1. Lp.Continuous in
  let x4 = Lp.add_var lp ~ub:1. Lp.Continuous in
  let y = Lp.add_var lp ~ub:0.3 Lp.Continuous in
  ignore
    (Lp.add_constr lp
       [ (1., x1); (1., x2); (0.5, x3); (1., x4); (1., y) ]
       Lp.Eq 2.);
  Lp.set_objective lp ~maximize:true
    [ (1., x1); (1., x2); (-0.6, x3); (-2., x4) ];
  lp

let test_dual_repairs_to_optimum () =
  let lp = boxed_repair_model () in
  let st = Sx.create lp in
  let r0 = Sx.primal st in
  Alcotest.(check bool) "cold optimal" true (r0.Sx.status = Sx.Optimal);
  check_float "cold obj" 2. (user_obj lp r0);
  Sx.set_var_bounds st 0 ~lb:0. ~ub:0.;
  let warm = Sx.dual_reopt st in
  Alcotest.(check bool) "warm optimal" true (warm.Sx.status = Sx.Optimal);
  check_float "warm obj" 0. (user_obj lp warm);
  check_float "x3 at upper" 1. warm.Sx.x.(2);
  (* the warm answer matches a fresh solve on the tightened model *)
  let lp2 = Lp.copy lp in
  Lp.set_bounds lp2 (Lp.var_of_int lp2 0) ~lb:0. ~ub:0.;
  let fresh = Sx.solve lp2 in
  check_float "fresh agrees" (user_obj lp2 fresh) (user_obj lp warm)

let test_entering_column_flip () =
  (* maximize x1 + x2 under x1 + x2 <= 5, x in [0,1]^2: both columns hit
     their opposite bound before any row blocks, so the ratio test
     reports flips and the basis never changes. *)
  let lp = Lp.create () in
  let x1 = Lp.add_var lp ~ub:1. Lp.Continuous in
  let x2 = Lp.add_var lp ~ub:1. Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x1); (1., x2) ] Lp.Le 5.);
  Lp.set_objective lp ~maximize:true [ (1., x1); (1., x2) ];
  let st = Sx.create lp in
  let r = Sx.primal st in
  Alcotest.(check bool) "optimal" true (r.Sx.status = Sx.Optimal);
  check_float "obj" 2. (user_obj lp r);
  Alcotest.(check bool) "flips counted" true (Sx.bound_flips st >= 2);
  Alcotest.(check int) "no pivot needed" 0 (Sx.total_pivots st)

let test_dual_dead_end_is_infeasible () =
  (* After fixing every nonbasic column, the violated row cannot be
     repaired: the dual ratio test finds no entering column and must
     report infeasibility with a usable Farkas certificate. *)
  let lp = Lp.create () in
  let x1 = Lp.add_var lp ~ub:1. Lp.Continuous in
  let x2 = Lp.add_var lp ~ub:1. Lp.Continuous in
  let y = Lp.add_var lp ~ub:0.3 Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x1); (1., x2); (1., y) ] Lp.Eq 2.);
  Lp.set_objective lp ~maximize:true [ (1., x1); (1., x2) ];
  let st = Sx.create lp in
  let r0 = Sx.primal st in
  Alcotest.(check bool) "cold optimal" true (r0.Sx.status = Sx.Optimal);
  Sx.set_var_bounds st 0 ~lb:0. ~ub:0.;
  Sx.set_var_bounds st 1 ~lb:0.5 ~ub:0.5;
  let warm = Sx.dual_reopt st in
  Alcotest.(check bool) "infeasible" true (warm.Sx.status = Sx.Infeasible);
  Alcotest.(check bool) "farkas present" true (warm.Sx.farkas <> None)

(* Binary-box random LPs: every structural variable is 0-1, which makes
   the primal bound flips and the degenerate dual ratio ties hot. *)
let make_rand_01 seed ~n ~m =
  let rng = Taskgraph.Prng.create (seed * 2 + 1) in
  let lp = Lp.create () in
  let vars = Array.init n (fun _ -> Lp.add_var lp ~ub:1. Lp.Continuous) in
  for _ = 1 to m do
    let terms =
      Array.to_list vars
      |> List.filter_map (fun v ->
             if Taskgraph.Prng.bool rng 0.5 then
               Some (Float.of_int (Taskgraph.Prng.int_in rng (-2) 4), v)
             else None)
    in
    if terms <> [] then begin
      let cap =
        List.fold_left
          (fun acc (c, _) -> acc +. Float.max 0. c)
          0. terms
      in
      ignore
        (Lp.add_constr lp terms Lp.Le (Taskgraph.Prng.float rng *. cap))
    end
  done;
  Lp.set_objective lp ~maximize:true
    (Array.to_list vars
    |> List.map (fun v -> (Float.of_int (Taskgraph.Prng.int_in rng (-3) 5), v)));
  lp

let prop_pricing_rules_agree =
  QCheck.Test.make ~name:"devex and partial pricing agree (exact check)"
    ~count:120
    QCheck.(int_bound 100_000)
    (fun seed ->
      let lp, _ = make_rand_mixed seed ~n:8 ~m:9 in
      let reference = Sx.solve ~pricing:Sx.Partial lp in
      List.for_all
        (fun pricing ->
          let st = Sx.create ~pricing lp in
          let r = Sx.primal st in
          r.Sx.status = reference.Sx.status
          && certify_ok st r
          &&
          match r.Sx.status with
          | Sx.Optimal ->
            Float.abs (r.Sx.obj -. reference.Sx.obj) <= 1e-7
            && r.Sx.primal_res <= 1e-6
            && r.Sx.dual_res <= 1e-6
          | Sx.Infeasible | Sx.Unbounded | Sx.Iter_limit -> true)
        [ Sx.Devex; Sx.Partial ])

let prop_devex_01_warm_parity =
  QCheck.Test.make
    ~name:"devex warm dual: warm and fresh agree on 0-1 models, certified, \
           no stalls"
    ~count:80
    QCheck.(int_bound 100_000)
    (fun seed ->
      let lp = make_rand_01 seed ~n:8 ~m:6 in
      let st = Sx.create lp in
      ignore (Sx.primal st);
      let rng = Taskgraph.Prng.create (seed + 41) in
      let ok = ref true in
      for _round = 1 to 4 do
        for j = 0 to 7 do
          if Taskgraph.Prng.bool rng 0.35 then begin
            let fix = Float.of_int (Taskgraph.Prng.int rng 2) in
            Sx.set_var_bounds st j ~lb:fix ~ub:fix
          end
          else Sx.set_var_bounds st j ~lb:0. ~ub:1.
        done;
        let warm = Sx.dual_reopt st in
        if not (certify_ok st warm) then ok := false;
        if (Sx.stats st).Sx.dual_stalls <> 0 then ok := false;
        (* the warm result matches a cold solve of the same box *)
        let lp2 = Lp.copy lp in
        for j = 0 to 7 do
          let lb, ub = Sx.get_var_bounds st j in
          Lp.set_bounds lp2 (Lp.var_of_int lp2 j) ~lb ~ub
        done;
        let fresh = Sx.solve lp2 in
        match (warm.Sx.status, fresh.Sx.status) with
        | Sx.Optimal, Sx.Optimal ->
          if Float.abs (fresh.Sx.obj -. warm.Sx.obj) > 1e-7 then ok := false
        | Sx.Infeasible, Sx.Infeasible -> ()
        | _, _ -> ok := false
      done;
      !ok)

(* -------- basis export / install (warm-start shipping) -------- *)

let prop_shipped_basis_reaches_optimum =
  (* The parallel search's shipping protocol: solve a parent LP on one
     engine, export its basis, install it into a DIFFERENT engine of
     the same model, tighten some bounds (the child's branching fixes)
     and dual-reoptimize. The result must match a cold solve of the
     child bounds — under both pricing rules. *)
  QCheck.Test.make
    ~name:"warm start from a shipped basis matches the cold optimum"
    ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      List.for_all
        (fun pricing ->
          let lp = make_rand_01 seed ~n:8 ~m:6 in
          let parent = Sx.create ~pricing lp in
          let r0 = Sx.primal parent in
          if r0.Sx.status <> Sx.Optimal then true (* covered elsewhere *)
          else begin
            let b = Sx.export_basis parent in
            let thief = Sx.create ~pricing lp in
            if not (Sx.install_basis thief b) then false
            else begin
              let rng = Taskgraph.Prng.create (seed + 13) in
              let lp2 = Lp.copy lp in
              for j = 0 to 7 do
                if Taskgraph.Prng.bool rng 0.4 then begin
                  let fix = Float.of_int (Taskgraph.Prng.int rng 2) in
                  Sx.set_var_bounds thief j ~lb:fix ~ub:fix;
                  Lp.set_bounds lp2 (Lp.var_of_int lp2 j) ~lb:fix ~ub:fix
                end
              done;
              let warm = Sx.dual_reopt thief in
              let cold = Sx.solve lp2 in
              match (warm.Sx.status, cold.Sx.status) with
              | Sx.Optimal, Sx.Optimal ->
                Float.abs (warm.Sx.obj -. cold.Sx.obj) <= 1e-7
              | Sx.Infeasible, Sx.Infeasible -> true
              | _, _ -> false
            end
          end)
        [ Sx.Devex; Sx.Partial ])

let test_basis_mismatch_falls_back () =
  (* A basis exported from a model of different dimensions must be
     rejected, and the refusing engine must still solve cleanly from
     its cold slack basis afterwards. *)
  let lp_big = make_rand_01 7 ~n:8 ~m:6 in
  let lp_small = make_rand_01 7 ~n:5 ~m:4 in
  let donor = Sx.create lp_big in
  ignore (Sx.primal donor);
  let b = Sx.export_basis donor in
  let eng = Sx.create lp_small in
  Alcotest.(check bool) "mismatched basis rejected" false
    (Sx.install_basis eng b);
  let r = Sx.primal eng in
  Alcotest.(check bool) "engine recovers with a cold solve" true
    (r.Sx.status = Sx.Optimal);
  let reference = Sx.solve lp_small in
  Alcotest.(check (float 1e-7)) "and reaches the true optimum"
    reference.Sx.obj r.Sx.obj

let test_stale_basis_reopt () =
  (* A basis exported BEFORE later pivots is stale but dimensionally
     valid: installing it must succeed and dual_reopt must still land
     on the optimum of the current bounds. *)
  let lp = make_rand_01 21 ~n:8 ~m:6 in
  let eng = Sx.create lp in
  let r0 = Sx.primal eng in
  Alcotest.(check bool) "base solve optimal" true (r0.Sx.status = Sx.Optimal);
  let stale = Sx.export_basis eng in
  (* walk the engine elsewhere: fix a few variables and re-optimize *)
  Sx.set_var_bounds eng 0 ~lb:1. ~ub:1.;
  Sx.set_var_bounds eng 3 ~lb:0. ~ub:0.;
  ignore (Sx.dual_reopt eng);
  (* now install the stale root basis and re-solve the CURRENT bounds *)
  Alcotest.(check bool) "stale basis installs" true
    (Sx.install_basis eng stale);
  let warm = Sx.dual_reopt eng in
  let lp2 = Lp.copy lp in
  Lp.set_bounds lp2 (Lp.var_of_int lp2 0) ~lb:1. ~ub:1.;
  Lp.set_bounds lp2 (Lp.var_of_int lp2 3) ~lb:0. ~ub:0.;
  let cold = Sx.solve lp2 in
  Alcotest.(check bool) "same status" true (warm.Sx.status = cold.Sx.status);
  if warm.Sx.status = Sx.Optimal then
    Alcotest.(check (float 1e-7)) "same objective" cold.Sx.obj warm.Sx.obj

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "simplex"
    [
      ( "hand-checked",
        [
          Alcotest.test_case "basic max" `Quick test_basic_max;
          Alcotest.test_case "phase1 eq/ge" `Quick test_phase1_eq_ge;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "var bounds only" `Quick
            test_bounded_by_var_bounds_only;
          Alcotest.test_case "negative lower bounds" `Quick
            test_negative_lower_bounds;
          Alcotest.test_case "free variable" `Quick test_free_variable;
          Alcotest.test_case "degenerate vertex" `Quick test_degenerate;
          Alcotest.test_case "equality pins value" `Quick
            test_equality_fixed_value;
          Alcotest.test_case "bounds-only model" `Quick test_zero_rows_model;
        ] );
      ( "bound-flips",
        [
          Alcotest.test_case "entering column flips without pivot" `Quick
            test_entering_column_flip;
        ] );
      ( "dual-reopt",
        [
          Alcotest.test_case "warm dual repairs to the optimum" `Quick
            test_dual_repairs_to_optimum;
          Alcotest.test_case "dead end certifies infeasibility" `Quick
            test_dual_dead_end_is_infeasible;
        ] );
      ( "basis-shipping",
        [
          Alcotest.test_case "mismatched basis falls back" `Quick
            test_basis_mismatch_falls_back;
          Alcotest.test_case "stale basis reopt" `Quick test_stale_basis_reopt;
        ] );
      ( "properties",
        [ qt prop_feasible_and_dominates; qt prop_warm_start_agrees;
          qt prop_mixed_senses; qt prop_pricing_rules_agree;
          qt prop_devex_01_warm_parity; qt prop_lp_bound_below_milp;
          qt prop_shipped_basis_reaches_optimum ] );
    ]
