(* Aggregation for the Table-4 benchmark: order statistics, the node-LP
   stall signal read from a solver trace, and the expected-answer gate.
   Kept free of timing and I/O so the tests can pin every rule on
   hand-built inputs. *)

let median = function
  | [] -> invalid_arg "Agg.median: empty"
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile: the smallest value with at least [p] % of
   the sample at or below it. [0] on an empty sample. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (Float.ceil (p /. 100. *. Float.of_int n)) in
    List.nth sorted (max 0 (min (n - 1) (rank - 1)))

(* ------------------------------------------------------------------ *)
(* Node LPs                                                             *)
(* ------------------------------------------------------------------ *)

type lp = { pivots : int; seconds : float }

type cell_lps = {
  root : lp option;  (** LP work of the root node; [None] if never solved. *)
  nodes : lp list;  (** LP work of every other node that solved one. *)
  total_s : float;  (** All LP time in the trace, root and nodes. *)
}

(* Attributes every [Lp_solve] event to the node open on its writer
   (domain) at that moment and sums per node, so a node whose warm dual
   gives up and restarts primal counts as one node LP with the pivots
   of both. The root is the node opened with parent [-1]. *)
let cell_lps (records : Ilp.Trace.record array) =
  let current = Hashtbl.create 4 in
  let per_node = Hashtbl.create 64 in
  let order = ref [] in
  let root_id = ref None in
  let total_s = ref 0. in
  Array.iter
    (fun (r : Ilp.Trace.record) ->
      match r.ev with
      | Ilp.Trace.Node_open { id; parent; _ } ->
        if parent < 0 && !root_id = None then root_id := Some id;
        Hashtbl.replace current r.dom id
      | Node_close _ -> Hashtbl.remove current r.dom
      | Lp_solve { pivots; dt; _ } -> (
        total_s := !total_s +. dt;
        match Hashtbl.find_opt current r.dom with
        | None -> ()
        | Some id -> (
          match Hashtbl.find_opt per_node id with
          | Some l ->
            Hashtbl.replace per_node id
              { pivots = l.pivots + pivots; seconds = l.seconds +. dt }
          | None ->
            order := id :: !order;
            Hashtbl.replace per_node id { pivots; seconds = dt }))
      | _ -> ())
    records;
  let root = Option.bind !root_id (Hashtbl.find_opt per_node) in
  let nodes =
    List.rev !order
    |> List.filter (fun id -> Some id <> !root_id)
    |> List.map (Hashtbl.find per_node)
  in
  { root; nodes; total_s = !total_s }

type node_summary = {
  lps : int;
  node_s : float;
  node_pivots : int;
  p50 : int;
  p90 : int;
  max : int;
  over_root : int;
      (** Node LPs with more pivots than their own cell's root LP. *)
  over_root_time_share : float;
      (** Their share of all LP time (root and nodes), in [0, 1]. *)
}

let node_summary cells =
  let nodes = List.concat_map (fun c -> c.nodes) cells in
  let pivots = List.map (fun l -> l.pivots) nodes in
  let over =
    List.concat_map
      (fun c ->
        let root = match c.root with Some r -> r.pivots | None -> 0 in
        List.filter (fun l -> l.pivots > root) c.nodes)
      cells
  in
  let sum_s = List.fold_left (fun acc l -> acc +. l.seconds) 0. in
  let total_s = List.fold_left (fun acc c -> acc +. c.total_s) 0. cells in
  {
    lps = List.length nodes;
    node_s = sum_s nodes;
    node_pivots = List.fold_left ( + ) 0 pivots;
    p50 = percentile 50. pivots;
    p90 = percentile 90. pivots;
    max = List.fold_left max 0 pivots;
    over_root = List.length over;
    over_root_time_share = (if total_s > 0. then sum_s over /. total_s else 0.);
  }

(* ------------------------------------------------------------------ *)
(* Expected answers                                                     *)
(* ------------------------------------------------------------------ *)

type expected = Expect_infeasible | Expect_optimal of int

type verdict =
  | Infeasible
  | Optimal of int  (** Communication cost of the proven optimum. *)
  | Timed_out
  | Raised of string  (** The solve raised (e.g. failed validation). *)

type observed = { verdict : verdict; root_certified : bool }

let verdict_name = function
  | Infeasible -> "infeasible"
  | Optimal c -> Printf.sprintf "optimal (cost %d)" c
  | Timed_out -> "timed out"
  | Raised msg -> "raised " ^ msg

let expected_name = function
  | Expect_infeasible -> "infeasible"
  | Expect_optimal c -> Printf.sprintf "optimal (cost %d)" c

(* A cell passes only with the expected verdict (and cost) and a root
   certificate that verified exactly. *)
let check expected obs =
  let verdict_ok =
    match (expected, obs.verdict) with
    | Expect_infeasible, Infeasible -> true
    | Expect_optimal c, Optimal c' -> c = c'
    | _ -> false
  in
  if not verdict_ok then
    Error
      (Printf.sprintf "expected %s, got %s" (expected_name expected)
         (verdict_name obs.verdict))
  else if not obs.root_certified then Error "root certificate not Certified"
  else Ok ()
