(* Table-4 end-to-end benchmark.

   Runs Table-4 cells the way [tpart solve] does by default: the
   tightened model with step cuts, paper branching with the
   scheduler-completion hook, devex pricing with bucket LU, root
   certification and [Solution.validate] on. Every cell's verdict is
   checked against the expected-answer table.

     t4bench.exe --workload W --seed N --seconds S --trace 0|1

   [--trace 0] reports end-to-end metrics with tracing and metrics off,
   their times scaled to a nominal host speed (see [host_probe]).
   [--trace 1] reports per-layer metrics: the benchmark's own timing of
   calls into [Formulation.build], [Presolve.presolve],
   [Simplex.create]/[primal] and [Solver.solve], plus the counters the
   solver already exposes ([Branch_bound.stats], [Simplex.stats]) and
   its [Ilp.Trace] events. The last stdout line is one JSON object
   [{correct, attempted, failed, metrics}]; the exit code is 1 when any
   cell failed. *)

module G = Taskgraph.Graph
module Bb = Ilp.Branch_bound
module Solver = Temporal.Solver

(* Device parameters of every Table-4 run in this repo (bench/main.ml). *)
let capacity = 70
let scratch = 30

(* Seed under which graphs 2-6 are exactly [Examples.paper_graph]
   (generator seed 100 + n). *)
let default_seed = 100

type cell = {
  graph : int;
  n : int;  (** Partition bound N. *)
  ams : int * int * int;  (** Adders + multipliers + subtractors. *)
  l : int;  (** Latency relaxation L. *)
  expect : Agg.expected;
}

(* The five cells the default engine decides at the root node: all
   infeasible with an exact Farkas certificate. Table-4 cells that never
   reach a verdict today -- g2 (N4 L1), g4 (N2 L1), g4 (N3 L0) -- stay
   out: their time would measure the limit plus the overrun. *)
let root_cells =
  List.map
    (fun (graph, n, l) ->
      { graph; n; ams = (2, 2, 2); l; expect = Agg.Expect_infeasible })
    [ (3, 3, 1); (5, 3, 0); (5, 2, 1); (6, 3, 0); (6, 2, 1) ]

(* Table-4 row 1: graph 1, decided by a ~115-node tree. *)
let tree_cell =
  { graph = 1; n = 3; ams = (2, 2, 1); l = 1; expect = Agg.Expect_optimal 6 }

type workload = {
  name : string;
  cells : cell list;
  jobs : int;
  time_limit : float;  (** Per cell, seconds. *)
  probe_s : float;
      (** Seconds of host probing at each pass boundary (at least one
          probe). A tree pass is one 30-60 s solve with only two
          boundaries, so one ~0.15 s probe each would put the probe's
          own noise into every run. *)
}

let workloads =
  [
    { name = "t4-root"; cells = root_cells; jobs = 1; time_limit = 30.; probe_s = 0. };
    { name = "t4-tree"; cells = [ tree_cell ]; jobs = 1; time_limit = 85.; probe_s = 1. };
    { name = "t4-tree-j2"; cells = [ tree_cell ]; jobs = 2; time_limit = 85.; probe_s = 1. };
  ]

let cell_name c =
  let a, m, s = c.ams in
  Printf.sprintf "g%d N%d %d+%d+%d L%d" c.graph c.n a m s c.l

(* ------------------------------------------------------------------ *)
(* Inputs                                                               *)
(* ------------------------------------------------------------------ *)

(* An isomorphic copy of [g] with tasks and operations renumbered by a
   seeded permutation. The instance -- and so its verdict and optimal
   cost -- is unchanged; the LP sees its rows and columns in another
   order. *)
let relabel rng g =
  let perm k =
    let order = Array.init k Fun.id in
    Taskgraph.Prng.shuffle rng order;
    let new_of_old = Array.make k 0 in
    Array.iteri (fun i old -> new_of_old.(old) <- i) order;
    (order, new_of_old)
  in
  let task_order, new_task = perm (G.num_tasks g) in
  let op_order, new_op = perm (G.num_ops g) in
  let b = G.builder ~name:(G.name g) () in
  Array.iter (fun t -> ignore (G.add_task b ~name:(G.task_name g t) ())) task_order;
  Array.iter
    (fun i ->
      ignore (G.add_op b ~task:new_task.(G.op_task g i) (G.op_kind g i)))
    op_order;
  List.iter (fun (i, j) -> G.add_op_dep b new_op.(i) new_op.(j)) (G.op_deps g);
  List.iter
    (fun (t1, t2, bw) -> G.set_bandwidth b new_task.(t1) new_task.(t2) bw)
    (G.task_edges g);
  G.build b

(* Graph 1 is the hand-built figure-1 graph and never changes. Graphs
   2-6 are the paper's seeded graphs. Under a non-default workload seed
   every pass renumbers them afresh, so a run averages over many
   presentations of the same instances. (Regenerating them from
   generator seed s + n instead changes the instances: for s = 1, 3 and
   6 of 1-7 some cells need a tree that runs past a 20 s limit, so the
   workload would no longer be root-decided.) *)
let graph_of ~seed ~pass n =
  let g = Taskgraph.Examples.paper_graph n in
  if n = 1 || seed = default_seed then g
  else relabel (Taskgraph.Prng.create (Hashtbl.hash (seed, pass, n))) g

(* ------------------------------------------------------------------ *)
(* Timing helpers                                                       *)
(* ------------------------------------------------------------------ *)

let now = Ilp.Mono.now

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let major_words () = (Gc.quick_stat ()).Gc.major_words

(* Host-speed probe. The host this benchmark was built on runs the same
   pass of identical inputs anywhere from 1.0 s to 2.7 s, in stretches
   of tens of seconds to minutes that every process on the VM sees at
   once, so raw wall times of runs a minute apart spread by more than any
   change worth measuring. The probe is fixed work of the benchmark's
   own -- sorting 200 k ints, then chasing 400 k pointers through a
   16 MB array -- that slows with the host much as a solve does
   (correlation 0.9 per pass) and allocates nothing, so the solver's heap
   cannot change its time. End-to-end times are scaled by
   [probe_nominal_s] over the probe time measured beside them. *)
let probe_ints = Array.init 200_000 (fun i -> i * 2654435761 land 0xffffff)
let probe_sorted = Array.make (Array.length probe_ints) 0

(* A full-period LCG over 2^21 slots: one cycle through the whole array
   in an order no prefetcher follows. *)
let probe_chain =
  let mask = (1 lsl 21) - 1 in
  Array.init (mask + 1) (fun i -> (i * 1664525 + 1013904223) land mask)

let host_probe () =
  let t0 = now () in
  Array.blit probe_ints 0 probe_sorted 0 (Array.length probe_ints);
  Array.sort Int.compare probe_sorted;
  let j = ref 0 in
  for _ = 1 to 400_000 do
    j := Array.unsafe_get probe_chain !j
  done;
  ignore (Sys.opaque_identity !j);
  now () -. t0

(* Mean time of probes repeated for at least [budget] seconds, at least
   one. *)
let host_probe_for budget =
  let t0 = now () in
  let rec go n sum =
    let sum = sum +. host_probe () in
    if now () -. t0 >= budget then sum /. Float.of_int n else go (n + 1) sum
  in
  go 1 0.

(* Probe time on the 2-core x86-64 VM of README.md in its fast stretches,
   so scaled times read as seconds on that host when unloaded. *)
let probe_nominal_s = 0.10

(* ------------------------------------------------------------------ *)
(* Setup: graphs and formulations                                       *)
(* ------------------------------------------------------------------ *)

type setup_time = {
  total_s : float;  (** Graph generation + formulation. *)
  build_s : float;  (** [Formulation.build] alone. *)
}

let setup_once ~seed ~pass w =
  let t0 = now () in
  let graphs = Hashtbl.create 4 in
  let build_s = ref 0. in
  let vars =
    List.map
      (fun c ->
        let g =
          match Hashtbl.find_opt graphs c.graph with
          | Some g -> g
          | None ->
            let g = graph_of ~seed ~pass c.graph in
            Hashtbl.add graphs c.graph g;
            g
        in
        let spec =
          Temporal.Spec.make ~graph:g ~allocation:(Hls.Component.ams c.ams)
            ~capacity ~scratch ~latency_relax:c.l ~num_partitions:c.n ()
        in
        let v, dt =
          timed (fun () ->
              Temporal.Formulation.build
                ~options:Temporal.Formulation.default_options spec)
        in
        build_s := !build_s +. dt;
        (c, v))
      w.cells
  in
  (vars, { total_s = now () -. t0; build_s = !build_s })

(* ------------------------------------------------------------------ *)
(* Solving and checking                                                 *)
(* ------------------------------------------------------------------ *)

type outcome = {
  cell : cell;
  seconds : float;
  result : (unit, string) result;
  report : Solver.report option;
}

let observe (report : Solver.report) =
  let verdict =
    match report.Solver.outcome with
    | Solver.Feasible sol -> Agg.Optimal sol.Temporal.Solution.comm_cost
    | Solver.Infeasible_model -> Agg.Infeasible
    | Solver.Timed_out _ -> Agg.Timed_out
  in
  let root_certified =
    match report.Solver.stats.Bb.certification.Bb.root_certificate with
    | Some c -> c.Ilp.Certify.verdict = Ilp.Certify.Certified
    | None -> false
  in
  { Agg.verdict; root_certified }

let solve_cell ?tracer w (cell, vars) =
  let t0 = now () in
  match
    Solver.solve ~time_limit:w.time_limit ~jobs:w.jobs ~certify:Bb.Cert_root
      ?tracer vars
  with
  | report ->
    let seconds = now () -. t0 in
    { cell; seconds; result = Agg.check cell.expect (observe report); report = Some report }
  | exception e ->
    let seconds = now () -. t0 in
    let obs = { Agg.verdict = Agg.Raised (Printexc.to_string e); root_certified = false } in
    { cell; seconds; result = Agg.check cell.expect obs; report = None }

(* One pass over every cell of the workload; no cell is skipped after a
   failure. A full major collection first gives every pass the same
   starting heap. *)
let pass w vars =
  Gc.full_major ();
  let mw0 = major_words () in
  let outcomes = List.map (solve_cell w) vars in
  let seconds = List.fold_left (fun acc o -> acc +. o.seconds) 0. outcomes in
  (outcomes, seconds, (major_words () -. mw0) /. 1e6)

(* ------------------------------------------------------------------ *)
(* Per-layer probes (traced run)                                        *)
(* ------------------------------------------------------------------ *)

type probe = {
  presolve_s : float;
  rows_removed : int;
  root_s : float;
  root_pivots : int;
  root_flips : int;
}

(* The benchmark's own calls into the presolve and LP layers for one
   cell: presolve, then a cold devex primal (engine creation included)
   on the presolved LP -- on the original LP when presolve alone proves
   infeasibility. Times are medians of three calls. *)
let probe vars =
  let thrice f =
    let runs = List.init 3 (fun _ -> timed f) in
    (fst (List.hd runs), Agg.median (List.map snd runs))
  in
  let lp = vars.Temporal.Vars.lp in
  let presolved, presolve_s = thrice (fun () -> Ilp.Presolve.presolve lp) in
  let reduced, rows_removed =
    match presolved with
    | Ilp.Presolve.Reduced (r, st) -> (r, st.Ilp.Presolve.rows_removed)
    | Ilp.Presolve.Infeasible _ -> (lp, 0)
  in
  let (root_pivots, root_flips), root_s =
    thrice (fun () ->
        let st = Ilp.Simplex.create reduced in
        let r = Ilp.Simplex.primal st in
        (r.Ilp.Simplex.iterations, (Ilp.Simplex.stats st).Ilp.Simplex.bound_flips))
  in
  { presolve_s; rows_removed; root_s; root_pivots; root_flips }

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let json_of_metrics ms =
  Ilp.Json.Obj
    (List.map
       (fun (name, value, unit) ->
         (name, Ilp.Json.Obj [ ("value", Ilp.Json.Num value); ("unit", Ilp.Json.Str unit) ]))
       ms)

let host_json () =
  Ilp.Json.Obj
    [
      ("cores", Ilp.Json.Num (Float.of_int (Domain.recommended_domain_count ())));
      ("ocaml", Ilp.Json.Str Sys.ocaml_version);
    ]

(* One information line (seed, host, every pass's raw wall time and
   host scale, per-cell verdicts of the first pass) ahead of the result
   line. *)
let print_info ~w ~seed ~trace ~passes_s ~scales outcomes =
  let cell o =
    Ilp.Json.Obj
      [
        ("cell", Ilp.Json.Str (cell_name o.cell));
        ("expected", Ilp.Json.Str (Agg.expected_name o.cell.expect));
        ("ok", Ilp.Json.Bool (Result.is_ok o.result));
        ( "detail",
          Ilp.Json.Str (match o.result with Ok () -> "" | Error e -> e) );
        ("solve_s", Ilp.Json.Num o.seconds);
      ]
  in
  print_endline
    (Ilp.Json.to_string
       (Ilp.Json.Obj
          [
            ("workload", Ilp.Json.Str w.name);
            ("seed", Ilp.Json.Num (Float.of_int seed));
            ("trace", Ilp.Json.Bool trace);
            ("host", host_json ());
            ("passes_s", Ilp.Json.Arr (List.map (fun s -> Ilp.Json.Num s) passes_s));
            ("host_scales", Ilp.Json.Arr (List.map (fun s -> Ilp.Json.Num s) scales));
            ("cells", Ilp.Json.Arr (List.map cell outcomes));
          ]))

let print_result ~attempted ~failed metrics =
  print_endline
    (Ilp.Json.to_string
       (Ilp.Json.Obj
          [
            ("correct", Ilp.Json.Bool (failed = 0));
            ("attempted", Ilp.Json.Num (Float.of_int attempted));
            ("failed", Ilp.Json.Num (Float.of_int failed));
            ("metrics", json_of_metrics metrics);
          ]))

let count_failed outcomes =
  List.length (List.filter (fun o -> Result.is_error o.result) outcomes)

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                       *)
(* ------------------------------------------------------------------ *)

(* Each pass builds its own inputs, repeating the setup at least three
   times and for about 0.2 s (at most 200 times), so that setup time is
   a median over samples spread through the run and work moved into
   setup shows. Returns the formulations of the last repetition and the
   timings of all. *)
let setup_pass ~seed ~pass w =
  let t0 = now () in
  let rec go k timings =
    let vars, t = setup_once ~seed ~pass w in
    if k >= 200 || (k >= 3 && now () -. t0 >= 0.2) then (vars, t :: timings)
    else go (k + 1) (t :: timings)
  in
  go 1 []

(* Runs [f k vars] on the inputs of pass k = 0, 1, ... for [seconds]:
   at least once, and no further pass once the last one's duration
   would carry the run past [seconds]. The host is probed before the
   first pass and after each one, for [w.probe_s]; a pass's scale is [probe_nominal_s]
   over the mean of the probes on either side of it. Returns each
   pass's result with its scale, and every setup timing with the scale
   of its pass. *)
let passes ~seed ~seconds w f =
  let t0 = now () in
  let rec loop k acc setups before last =
    if acc <> [] && now () -. t0 +. last > seconds then (List.rev acc, setups)
    else
      let t1 = now () in
      let vars, timings = setup_pass ~seed ~pass:k w in
      let r = f k vars in
      let after = host_probe_for w.probe_s in
      let scale = probe_nominal_s /. ((before +. after) /. 2.) in
      loop (k + 1) ((r, scale) :: acc)
        (List.map (fun t -> (t, scale)) timings @ setups)
        after (now () -. t1)
  in
  loop 0 [] [] (host_probe_for w.probe_s) 0.

(* Pass time and allocation are means over the run's passes, so that a
   stretch of the run counts by its length, as it does in one long solve.
   Setup samples are short and take GC pauses, so their median is
   reported. Times are scaled to the nominal host speed pass by pass. *)
let mean xs = List.fold_left ( +. ) 0. xs /. Float.of_int (List.length xs)

let end_to_end ~seed ~seconds w =
  let passes, setups = passes ~seed ~seconds w (fun _ vars -> pass w vars) in
  let outcomes = List.concat_map (fun ((o, _, _), _) -> o) passes in
  let (first, _, _), _ = List.hd passes in
  print_info ~w ~seed ~trace:false
    ~passes_s:(List.map (fun ((_, s, _), _) -> s) passes)
    ~scales:(List.map snd passes) first;
  let metrics =
    [
      ("solve_s", mean (List.map (fun ((_, s, _), scale) -> s *. scale) passes), "s");
      ("setup_s", Agg.median (List.map (fun (t, scale) -> t.total_s *. scale) setups), "s");
      ("major_mwords", mean (List.map (fun ((_, _, mw), _) -> mw) passes), "Mwords");
    ]
  in
  (List.length outcomes, count_failed outcomes, metrics)

(* ------------------------------------------------------------------ *)
(* Traced run                                                           *)
(* ------------------------------------------------------------------ *)

let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let sumi f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* Per-layer metrics of one traced pass. [traced] pairs each cell's
   outcome with its trace. *)
let layer_metrics ~vars ~setups ~probes traced =
  (* Cells whose solve raised have no report and count only in the
     node-LP figures. *)
  let solved =
    List.filter_map
      (fun (o, recs) ->
        Option.map
          (fun r -> (r.Solver.stats, Ilp.Trace_export.Summary.of_records recs))
          o.report)
      traced
  in
  let stats = List.map fst solved and summaries = List.map snd solved in
  let lp = List.map (fun s -> s.Bb.lp_stats) stats in
  let nodes = Agg.node_summary (List.map (fun (_, recs) -> Agg.cell_lps recs) traced) in
  let workers = List.concat_map (fun s -> Array.to_list s.Bb.workers) stats in
  let refactors = sumi (fun (l : Ilp.Simplex.stats) -> l.refactor_eta + l.refactor_numeric + l.refactor_residual) lp in
  let numeric = sumi (fun (l : Ilp.Simplex.stats) -> l.refactor_numeric) lp in
  let w_pivots = List.map (fun w -> Float.of_int w.Bb.w_pivots) workers in
  let pivot_imbalance =
    match w_pivots with
    | [] -> 0.
    | _ ->
      let m = mean w_pivots in
      if m > 0. then List.fold_left Float.max 0. w_pivots /. m else 0.
  in
  let idle = sumf (fun w -> w.Bb.w_idle) workers in
  (* Search self time minus LP, certification and pool idle time: node
     bookkeeping and the scheduler-completion hook. *)
  let other_s =
    List.fold_left
      (fun acc ((s : Bb.stats), (sm : Ilp.Trace_export.Summary.t)) ->
        let span =
          sumf
            (fun (p : Ilp.Trace_export.Summary.phase) ->
              if List.mem p.phase [ "search"; "seed"; "worker" ] then p.seconds else 0.)
            sm.phases
        in
        let idle = sumf (fun w -> w.Bb.w_idle) (Array.to_list s.Bb.workers) in
        acc +. Float.max 0. (span -. sm.lp_seconds -. sm.cert_seconds -. idle))
      0. solved
  in
  let first_incumbent_s =
    sumf
      (fun s ->
        match s.Bb.timeline with
        | [||] -> 0.
        | tl ->
          let t, _, _, _ = tl.(0) in
          t)
      stats
  in
  let hook_pruned =
    sumi
      (fun (sm : Ilp.Trace_export.Summary.t) ->
        Option.value ~default:0 (List.assoc_opt "hook" sm.close_reasons))
      summaries
  in
  let cert = List.map (fun s -> s.Bb.certification) stats in
  let i x = Float.of_int x in
  [
    ("formulation.build_s", Agg.median (List.map (fun s -> s.build_s) setups), "s");
    ("formulation.vars", i (sumi (fun (_, v) -> Temporal.Vars.num_vars v) vars), "count");
    ("formulation.constrs", i (sumi (fun (_, v) -> Temporal.Vars.num_constrs v) vars), "count");
    ("presolve.s", sumf (fun p -> p.presolve_s) probes, "s");
    ("presolve.rows_removed", i (sumi (fun p -> p.rows_removed) probes), "count");
    ("simplex.root_s", sumf (fun p -> p.root_s) probes, "s");
    ("simplex.root_pivots", i (sumi (fun p -> p.root_pivots) probes), "count");
    ("simplex.root_flips", i (sumi (fun p -> p.root_flips) probes), "count");
    ("simplex.node_lps", i nodes.lps, "count");
    ("simplex.node_s", nodes.node_s, "s");
    ("simplex.node_pivots", i nodes.node_pivots, "count");
    ("simplex.node_pivots_p50", i nodes.p50, "count");
    ("simplex.node_pivots_p90", i nodes.p90, "count");
    ("simplex.node_pivots_max", i nodes.max, "count");
    ("simplex.node_over_root", i nodes.over_root, "count");
    ("simplex.node_over_root_time_share", nodes.over_root_time_share, "ratio");
    ("lu.factorizations", i (sumi (fun (l : Ilp.Simplex.stats) -> l.factorizations) lp), "count");
    ("lu.factor_s", sumf (fun (l : Ilp.Simplex.stats) -> l.factor_time_s) lp, "s");
    ("lu.refactor_eta", i (sumi (fun (l : Ilp.Simplex.stats) -> l.refactor_eta) lp), "count");
    ("lu.refactor_numeric", i numeric, "count");
    ("lu.numeric_share", (if refactors > 0 then i numeric /. i refactors else 0.), "ratio");
    ("lu.ftran_s", sumf (fun (l : Ilp.Simplex.stats) -> l.ftran_seconds) lp, "s");
    ("lu.btran_s", sumf (fun (l : Ilp.Simplex.stats) -> l.btran_seconds) lp, "s");
    ("gc.lp_minor_mwords", sumf (fun (l : Ilp.Simplex.stats) -> l.minor_words) lp /. 1e6, "Mwords");
    ("gc.lp_major_mwords", sumf (fun (l : Ilp.Simplex.stats) -> l.major_words) lp /. 1e6, "Mwords");
    ("bnb.nodes", i (sumi (fun s -> s.Bb.nodes) stats), "count");
    ("bnb.max_depth", i (List.fold_left (fun acc s -> max acc s.Bb.max_depth) 0 stats), "count");
    ("bnb.incumbents", i (sumi (fun s -> s.Bb.incumbents) stats), "count");
    ("bnb.first_incumbent_s", first_incumbent_s, "s");
    ("bnb.hook_pruned", i hook_pruned, "count");
    ("bnb.other_s", other_s, "s");
    ("certify.s", sumf (fun (sm : Ilp.Trace_export.Summary.t) -> sm.cert_seconds) summaries, "s");
    ("certify.checked", i (sumi (fun c -> c.Bb.cert_checked) cert), "count");
    ("certify.certified", i (sumi (fun c -> c.Bb.cert_certified) cert), "count");
    ("pool.steals", i (sumi (fun w -> w.Bb.w_steals) workers), "count");
    ("pool.handoffs", i (sumi (fun w -> w.Bb.w_handoffs) workers), "count");
    ("pool.idle_s", idle, "s");
    ("pool.pivot_imbalance", pivot_imbalance, "ratio");
  ]

(* Runs an untraced and a traced pass on the same inputs, pair after
   pair for [seconds] (at least one pair): the median of the pairs'
   time ratios is the tracing overhead, and the first pair's inputs and
   traced pass give the per-layer numbers. *)
let traced ~seed ~seconds w =
  let traced_pass vars =
    Gc.full_major ();
    List.map
      (fun cv ->
        let tracer = Ilp.Trace.create () in
        let o = solve_cell ~tracer w cv in
        (o, Ilp.Trace.collect tracer))
      vars
  in
  let first_inputs = ref None in
  let scaled_pairs, setups =
    passes ~seed ~seconds w (fun k vars ->
        if k = 0 then first_inputs := Some (vars, List.map (fun (_, v) -> probe v) vars);
        let plain, plain_s, _ = pass w vars in
        (plain, plain_s, traced_pass vars))
  in
  let pairs = List.map fst scaled_pairs in
  let vars, probes = Option.get !first_inputs in
  let overhead_pct =
    Agg.median
      (List.map
         (fun (_, plain_s, tr) ->
           100. *. (sumf (fun (o, _) -> o.seconds) tr -. plain_s) /. plain_s)
         pairs)
  in
  let outcomes =
    List.concat_map (fun (plain, _, tr) -> plain @ List.map fst tr) pairs
  in
  let _, _, first = List.hd pairs in
  print_info ~w ~seed ~trace:true
    ~passes_s:(List.map (fun (_, s, _) -> s) pairs)
    ~scales:(List.map snd scaled_pairs) (List.map fst first);
  let metrics =
    layer_metrics ~vars ~setups:(List.map fst setups) ~probes first
    @ [ ("trace.overhead_pct", overhead_pct, "%") ]
  in
  (List.length outcomes, count_failed outcomes, metrics)

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 60.
  and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload,
       " " ^ String.concat " | " (List.map (fun w -> w.name) workloads));
      ("--seed", Arg.Set_int seed, " workload seed (default 100: the paper graphs)");
      ("--seconds", Arg.Set_float seconds, " measuring time per run (default 60)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "t4bench.exe --workload W [--seed N] [--seconds S] [--trace 0|1]";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("t4bench: unknown workload " ^ !workload);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "t4bench: --trace takes 0 or 1";
    exit 2
  end;
  let attempted, failed, metrics =
    if !trace = 1 then traced ~seed:!seed ~seconds:!seconds w
    else end_to_end ~seed:!seed ~seconds:!seconds w
  in
  print_result ~attempted ~failed metrics;
  exit (if failed = 0 then 0 else 1)
