(* End-to-end integration tests: full pipeline runs across libraries,
   model-size sanity against the paper's regime, warm-start consistency
   at the MILP level on real models, and the greedy baseline. *)

module G = Taskgraph.Graph
module Ex = Taskgraph.Examples
module C = Hls.Component
module Spec = Temporal.Spec
module F = Temporal.Formulation
module Solver = Temporal.Solver
module Sol = Temporal.Solution
module Bb = Ilp.Branch_bound

let spec_of ?(cap = 300) ?(ms = 100) ?(l = 1) ~n ~ams g =
  Spec.make ~graph:g ~allocation:(C.ams ams) ~capacity:cap ~scratch:ms
    ~latency_relax:l ~num_partitions:n ()

let test_figure1_relaxed_optimal () =
  (* with generous resources, everything fits in one partition *)
  let spec = spec_of ~n:2 ~ams:(2, 2, 1) (Ex.figure1 ()) in
  match (Solver.solve (F.build spec)).Solver.outcome with
  | Solver.Feasible sol ->
    Alcotest.(check int) "cost 0" 0 sol.Sol.comm_cost;
    (match Sol.validate spec sol with
     | Ok () -> ()
     | Error e -> Alcotest.failf "invalid: %s" (String.concat ";" e))
  | o -> Alcotest.failf "unexpected %a" Solver.pp_outcome o

let test_model_sizes_in_paper_regime () =
  (* graph 1 with the paper's Table 3 design parameters produces a model
     in the published size regime (hundreds of vars, hundreds of
     constraints) *)
  let spec = spec_of ~cap:120 ~ms:30 ~l:1 ~n:3 ~ams:(2, 2, 1) (Ex.figure1 ()) in
  let vars = F.build spec in
  let v = Temporal.Vars.num_vars vars and c = Temporal.Vars.num_constrs vars in
  Alcotest.(check bool) "vars 100..600" true (v >= 100 && v <= 600);
  Alcotest.(check bool) "constrs 300..1500" true (c >= 300 && c <= 1500)

let test_tightening_adds_constraints_not_vars () =
  (* the paper pair: Table 1's base model vs Table 2's tightened model
     (the production default also aggregates eq. 26, which removes rows,
     so the comparison must hold the other options fixed) *)
  let spec = spec_of ~cap:120 ~ms:30 ~l:1 ~n:3 ~ams:(2, 2, 1) (Ex.figure1 ()) in
  let base = F.build ~options:F.base_options spec in
  let tight = F.build ~options:F.tightened_options spec in
  Alcotest.(check int) "same vars" (Temporal.Vars.num_vars base)
    (Temporal.Vars.num_vars tight);
  Alcotest.(check bool) "more constraints" true
    (Temporal.Vars.num_constrs tight > Temporal.Vars.num_constrs base)

let test_fortet_has_more_integer_vars () =
  let spec = spec_of ~n:2 ~ams:(1, 1, 1) (Ex.diamond ()) in
  let count_int vars =
    List.length (Ilp.Lp.integer_vars vars.Temporal.Vars.lp)
  in
  let glover = F.build ~options:F.default_options spec in
  let fortet =
    F.build ~options:{ F.default_options with F.linearization = F.Fortet } spec
  in
  Alcotest.(check bool) "fortet makes z integer" true
    (count_int fortet > count_int glover)

let test_glover_relaxation_not_looser () =
  (* Glover's linearization is tighter: its LP relaxation bound is >=
     Fortet's on the same instance *)
  let spec = spec_of ~cap:60 ~ms:5 ~l:1 ~n:3 ~ams:(1, 1, 1) (Ex.diamond ()) in
  let root options =
    let vars = F.build ~options spec in
    let r = Ilp.Simplex.solve vars.Temporal.Vars.lp in
    match r.Ilp.Simplex.status with
    | Ilp.Simplex.Optimal -> r.Ilp.Simplex.obj
    | _ -> Alcotest.fail "root LP should be feasible"
  in
  let glover = root F.base_options in
  let fortet =
    root { F.base_options with F.linearization = F.Fortet }
  in
  Alcotest.(check bool) "glover >= fortet - eps" true (glover >= fortet -. 1e-6)

let test_greedy_baseline_upper_bounds_partitions () =
  (* when the greedy estimator returns a segmentation, running the exact
     flow with that N must be feasible or the estimate was wrong only in
     the conservative direction; we check the flow completes *)
  let g = Ex.figure1 () in
  let r =
    Temporal.Pipeline.run ~graph:g ~allocation:(C.ams (2, 2, 1)) ~capacity:300
      ~scratch:100 ~latency_relax:1 ()
  in
  match r.Temporal.Pipeline.report.Solver.outcome with
  | Solver.Feasible sol ->
    (match r.Temporal.Pipeline.heuristic with
     | Some seg ->
       Alcotest.(check bool) "ilp cost <= greedy cost when same semantics"
         true
         (sol.Sol.comm_cost <= seg.Hls.Estimate.comm_cost
          || Hls.Estimate.num_segments seg = 1)
     | None -> Alcotest.fail "heuristic expected")
  | o -> Alcotest.failf "unexpected %a" Solver.pp_outcome o

let test_dot_partition_rendering_roundtrip () =
  let g = Ex.figure1 () in
  let spec = spec_of ~n:2 ~ams:(2, 2, 1) g in
  match (Solver.solve (F.build spec)).Solver.outcome with
  | Solver.Feasible sol ->
    let dot =
      Taskgraph.Dot.op_graph_with_partition g (fun t ->
          sol.Sol.partition_of.(t))
    in
    Alcotest.(check bool) "rendered" true (String.length dot > 100)
  | o -> Alcotest.failf "unexpected %a" Solver.pp_outcome o

let test_lp_format_of_temporal_model () =
  let spec = spec_of ~n:2 ~ams:(1, 1, 1) (Ex.diamond ()) in
  let vars = F.build spec in
  let s = Ilp.Lp_format.to_string vars.Temporal.Vars.lp in
  (* y/x/w/u variables appear by name *)
  List.iter
    (fun needle ->
      let nl = String.length needle and sl = String.length s in
      let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
      Alcotest.(check bool) needle true (go 0))
    [ "y_t0_p1"; "x_i0_"; "w_p2_t0_t1"; "u_p1_k0"; "Binary" ]

let test_warm_cold_agree_on_temporal_model () =
  let spec = spec_of ~cap:60 ~ms:8 ~l:1 ~n:3 ~ams:(1, 1, 1) (Ex.diamond ()) in
  let vars = F.build spec in
  let solve warm =
    let options = { Bb.default_options with Bb.warm_start = warm } in
    match Bb.solve ~options vars.Temporal.Vars.lp with
    | Bb.Optimal { obj; _ }, _ -> Some obj
    | Bb.Infeasible, _ -> None
    | o, _ -> Alcotest.failf "unexpected %a" Bb.pp_outcome o
  in
  match (solve true, solve false) with
  | Some a, Some b ->
    Alcotest.(check (float 1e-6)) "same objective" a b
  | None, None -> ()
  | _ -> Alcotest.fail "warm/cold disagree on feasibility"

let test_split_tasks_mode () =
  (* The paper: "if it is desired to permit splitting of tasks across
     segments, then each operation may be modeled as a task". chain n
     is exactly that single-op-per-task encoding. *)
  (* chain's op kinds alternate add/mul; capacity 45 (budget 64 FG)
     cannot host an adder and a multiplier together, so every operation
     needs its own configuration *)
  let g = Ex.chain 6 in
  let spec = spec_of ~cap:45 ~ms:100 ~l:0 ~n:6 ~ams:(1, 1, 0) g in
  match (Solver.solve (F.build spec)).Solver.outcome with
  | Solver.Feasible sol ->
    Alcotest.(check int) "one op per partition" 6 sol.Sol.partitions_used
  | o -> Alcotest.failf "unexpected %a" Solver.pp_outcome o

let test_paper1_warm_dual_no_stall () =
  (* Table-4 row 1 (graph 1, N=3, L=1) under the default engine: the
     warm-started node LPs must never hit the dual iteration cap. A
     stalling dual loop restarts primal silently and needs hundreds of
     thousands of pivots here; the healthy loop needs about 5 000. *)
  let spec =
    spec_of ~cap:70 ~ms:30 ~l:1 ~n:3 ~ams:(2, 2, 1) (Ex.paper_graph 1)
  in
  let report = Solver.solve (F.build spec) in
  (match report.Solver.outcome with
   | Solver.Feasible sol -> Alcotest.(check int) "cost 6" 6 sol.Sol.comm_cost
   | o -> Alcotest.failf "unexpected %a" Solver.pp_outcome o);
  let lp = report.Solver.stats.Bb.lp_stats in
  Alcotest.(check int) "no dual stalls" 0 lp.Ilp.Simplex.dual_stalls;
  Alcotest.(check bool)
    (Printf.sprintf "pivots %d < 50000" lp.Ilp.Simplex.pivots)
    true
    (lp.Ilp.Simplex.pivots < 50_000)

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "figure1 relaxed" `Quick
            test_figure1_relaxed_optimal;
          Alcotest.test_case "model sizes" `Quick
            test_model_sizes_in_paper_regime;
          Alcotest.test_case "tightening shape" `Quick
            test_tightening_adds_constraints_not_vars;
          Alcotest.test_case "fortet integer z" `Quick
            test_fortet_has_more_integer_vars;
          Alcotest.test_case "glover tighter" `Quick
            test_glover_relaxation_not_looser;
          Alcotest.test_case "greedy baseline" `Quick
            test_greedy_baseline_upper_bounds_partitions;
          Alcotest.test_case "dot rendering" `Quick
            test_dot_partition_rendering_roundtrip;
          Alcotest.test_case "lp format names" `Quick
            test_lp_format_of_temporal_model;
          Alcotest.test_case "warm/cold agree" `Quick
            test_warm_cold_agree_on_temporal_model;
          Alcotest.test_case "split-tasks mode" `Slow test_split_tasks_mode;
          Alcotest.test_case "paper:1 warm dual does not stall" `Quick
            test_paper1_warm_dual_no_stall;
        ] );
    ]
