(* The benchmark's aggregation rules on hand-built inputs. *)

let lp pivots seconds = { Agg.pivots; seconds }

let test_median () =
  Alcotest.(check (float 0.)) "odd" 3. (Agg.median [ 5.; 1.; 3. ]);
  Alcotest.(check (float 0.)) "even" 2.5 (Agg.median [ 4.; 1.; 3.; 2. ])

let test_percentiles () =
  let xs = [ 10; 0; 9; 1; 8; 2; 7; 3; 6; 4; 5 ] in
  Alcotest.(check int) "p50" 5 (Agg.percentile 50. xs);
  Alcotest.(check int) "p90" 9 (Agg.percentile 90. xs);
  Alcotest.(check int) "p100" 10 (Agg.percentile 100. xs);
  Alcotest.(check int) "singleton" 7 (Agg.percentile 90. [ 7 ]);
  Alcotest.(check int) "empty" 0 (Agg.percentile 50. [])

(* Two cells: the second cell's root is larger, so its 300-pivot node
   is not over its own root although it is over the first cell's. *)
let test_node_summary () =
  let cells =
    [
      {
        Agg.root = Some (lp 100 1.0);
        nodes = [ lp 0 0.1; lp 5 0.1; lp 150 2.0; lp 25_800 6.0 ];
        total_s = 9.2;
      };
      { Agg.root = Some (lp 400 1.0); nodes = [ lp 300 0.5 ]; total_s = 1.5 };
    ]
  in
  let s = Agg.node_summary cells in
  Alcotest.(check int) "lps" 5 s.lps;
  Alcotest.(check int) "pivots" 26_255 s.node_pivots;
  Alcotest.(check (float 1e-12)) "node_s" 8.7 s.node_s;
  Alcotest.(check int) "p50" 150 s.p50;
  Alcotest.(check int) "p90" 25_800 s.p90;
  Alcotest.(check int) "max" 25_800 s.max;
  Alcotest.(check int) "over root" 2 s.over_root;
  Alcotest.(check (float 1e-12)) "over-root time share" (8.0 /. 10.7)
    s.over_root_time_share;
  let none = Agg.node_summary [ { Agg.root = Some (lp 435 0.2); nodes = []; total_s = 0.2 } ] in
  Alcotest.(check int) "root only: no node LPs" 0 none.lps;
  Alcotest.(check (float 0.)) "root only: no share" 0. none.over_root_time_share

let record dom seq ev = { Ilp.Trace.dom; dname = ""; seq; ts = Float.of_int seq; ev }

let solve pivots dt =
  Ilp.Trace.Lp_solve
    { kind = Ilp.Trace.Lp_dual; pivots; flips = 0; obj = 0.; primal_res = 0.; dual_res = 0.; dt }

let node_open id parent = Ilp.Trace.Node_open { id; parent; depth = 0; bound = 0. }
let node_close id = Ilp.Trace.Node_close { id; obj = 0.; reason = Ilp.Trace.Integral }

(* Interleaved writers: each LP goes to the node open on its own
   domain, a restart inside one node sums into it, and an LP outside
   any node only counts towards total LP time. *)
let test_cell_lps () =
  let records =
    [|
      record 0 0 (node_open 1 (-1));
      record 0 1 (solve 40 0.4);
      record 0 2 (node_close 1);
      record 1 3 (node_open 2 1);
      record 2 4 (node_open 3 1);
      record 1 5 (solve 10 0.1);
      record 2 6 (solve 7 0.05);
      record 1 7 (solve 90 0.9);
      record 1 8 (node_close 2);
      record 2 9 (node_close 3);
      record 0 10 (solve 3 0.03);
    |]
  in
  let c = Agg.cell_lps records in
  Alcotest.(check (option int)) "root pivots" (Some 40)
    (Option.map (fun (l : Agg.lp) -> l.pivots) c.root);
  Alcotest.(check (list int)) "node pivots" [ 100; 7 ]
    (List.map (fun (l : Agg.lp) -> l.pivots) c.nodes);
  Alcotest.(check (float 1e-12)) "total" 1.48 c.total_s;
  Alcotest.(check int) "over root" 1 (Agg.node_summary [ c ]).over_root

let verdicts = Alcotest.testable (fun ppf r ->
    Format.pp_print_string ppf (match r with Ok () -> "ok" | Error e -> e))
    ( = )

let test_check () =
  let ok v = { Agg.verdict = v; root_certified = true } in
  Alcotest.check verdicts "infeasible as expected" (Ok ())
    (Agg.check Agg.Expect_infeasible (ok Agg.Infeasible));
  Alcotest.check verdicts "optimum as expected" (Ok ())
    (Agg.check (Agg.Expect_optimal 6) (ok (Agg.Optimal 6)));
  let fails name exp obs =
    Alcotest.(check bool) name true (Result.is_error (Agg.check exp obs))
  in
  fails "wrong verdict" Agg.Expect_infeasible (ok (Agg.Optimal 6));
  fails "wrong cost" (Agg.Expect_optimal 6) (ok (Agg.Optimal 7));
  fails "timeout" (Agg.Expect_optimal 6) (ok Agg.Timed_out);
  fails "exception" Agg.Expect_infeasible (ok (Agg.Raised "Failure"));
  fails "uncertified root" Agg.Expect_infeasible
    { Agg.verdict = Agg.Infeasible; root_certified = false }

let () =
  Alcotest.run "perfbench"
    [
      ( "agg",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "node summary" `Quick test_node_summary;
          Alcotest.test_case "cell lps from trace" `Quick test_cell_lps;
          Alcotest.test_case "expected table" `Quick test_check;
        ] );
    ]
