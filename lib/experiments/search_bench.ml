(* Large-tier search benchmark: one {!Compare.run_point} on a
   {!Dtr_topology.Large} preset — the run [dtr optimize --preset P]
   makes — metered per search: time to first accepted improvement and
   iterations per second, next to the search outcome.

   Everything except the timing columns (ttfi_s, elapsed_s,
   iters_per_sec) is deterministic in (preset, seed, cfg, model) for a
   run that is never stopped; under a budget the iteration counts
   depend on the machine, which is the point of the bench. *)

module Lexico = Dtr_cost.Lexico
module Graph = Dtr_graph.Graph
module Large = Dtr_topology.Large
module Problem = Dtr_core.Problem
module Multistart = Dtr_core.Multistart

type row = {
  preset : string;
  algo : string;
  nodes : int;
  arcs : int;
  iterations : int;
  improvements : int;
  evaluations : int;
  memo_hits : int;
  memo_misses : int;
  ttfi_s : float option;
  elapsed_s : float;
  iters_per_sec : float;
  objective : Lexico.t;
  stopped_early : bool;
}

let default_util = 0.6

(* One search's meter: armed when the search starts (run_point's stop
   hook), fed the best-so-far objective after every iteration. *)
type meter = {
  mutable t0 : float;
  mutable history : (float * Lexico.t) list;  (** newest first *)
  mutable hit_budget : bool;
}

let run ?(cfg = Dtr_core.Search_config.quick) ?(seed = 1) ?time_budget
    ?(progress = fun _ -> ()) ~model p =
  progress
    (Printf.sprintf "%s: generating topology + demand (%d nodes)..."
       p.Large.name (Large.node_count p));
  let inst =
    Scenario.make
      {
        Scenario.topology = Scenario.Large p;
        fraction = 0.30;
        hp = Scenario.Random_density 0.10;
        seed;
      }
  in
  let meters =
    List.map
      (fun algo -> (algo, { t0 = 0.; history = []; hit_budget = false }))
      [ Multistart.Str; Multistart.Dtr ]
  in
  let stop algo =
    let m = List.assoc algo meters in
    progress
      (Printf.sprintf "%s: %s search..." p.Large.name
         (String.uppercase_ascii (Multistart.algo_name algo)));
    m.t0 <- Unix.gettimeofday ();
    fun () ->
      match time_budget with
      | None -> false
      | Some b ->
          let over = Unix.gettimeofday () -. m.t0 > b in
          if over then m.hit_budget <- true;
          over
  in
  let on_progress algo best =
    let m = List.assoc algo meters in
    m.history <- (Unix.gettimeofday () -. m.t0, best) :: m.history
  in
  let point =
    Compare.run_point ~cfg ~seed ~stop ~on_progress inst ~model
      ~target_util:default_util
  in
  let t_end = Unix.gettimeofday () in
  let g = inst.Scenario.graph in
  let wh0, wl0 = point.Compare.w0 in
  let row algo (r : Multistart.report) ~o0 ~t_stop =
    let m = List.assoc algo meters in
    let rs = r.Multistart.restarts.(0) in
    (* Time to first improvement over the starting objective. *)
    let ttfi =
      List.fold_left
        (fun acc (t, best) ->
          if Lexico.lt ~rel_tol:Dtr_core.Search_config.rel_tol best o0 then
            Some t
          else acc)
        None m.history
    in
    let elapsed = t_stop -. m.t0 in
    let iterations = rs.Multistart.iterations in
    progress
      (Printf.sprintf "%s: %s done (%d iterations, %d improvements, %.1f s)"
         p.Large.name
         (String.uppercase_ascii (Multistart.algo_name algo))
         iterations rs.Multistart.improvements elapsed);
    {
      preset = p.Large.name;
      algo = Multistart.algo_name algo;
      nodes = Graph.node_count g;
      arcs = Graph.arc_count g;
      iterations;
      improvements = rs.Multistart.improvements;
      evaluations = rs.Multistart.evaluations;
      memo_hits = rs.Multistart.memo_hits;
      memo_misses = rs.Multistart.memo_misses;
      ttfi_s = ttfi;
      elapsed_s = elapsed;
      iters_per_sec =
        (if elapsed > 0. then float_of_int iterations /. elapsed else 0.);
      objective = r.Multistart.objective;
      stopped_early = m.hit_budget;
    }
  in
  let problem = point.Compare.problem in
  (* STR's search ends where DTR's starts. *)
  let dtr_t0 = (List.assoc Multistart.Dtr meters).t0 in
  let str_row =
    row Multistart.Str point.Compare.str
      ~o0:(Problem.objective (Problem.eval_str problem ~w:wh0))
      ~t_stop:dtr_t0
  in
  let dtr_row =
    row Multistart.Dtr point.Compare.dtr
      ~o0:(Problem.objective (Problem.eval_dtr problem ~wh:wh0 ~wl:wl0))
      ~t_stop:t_end
  in
  [ str_row; dtr_row ]

let table rows =
  let t =
    Dtr_util.Table.create ~title:"large-tier search benchmark"
      ~columns:
        [
          "preset"; "algo"; "nodes"; "arcs"; "iters"; "improved"; "evals";
          "memo h/m"; "ttfi s"; "elapsed s"; "iters/s"; "objective";
        ]
  in
  List.iter
    (fun r ->
      Dtr_util.Table.add_row t
        [
          r.preset;
          r.algo;
          string_of_int r.nodes;
          string_of_int r.arcs;
          string_of_int r.iterations;
          string_of_int r.improvements;
          string_of_int r.evaluations;
          Printf.sprintf "%d/%d" r.memo_hits r.memo_misses;
          (match r.ttfi_s with
          | Some s -> Printf.sprintf "%.2f" s
          | None -> "-");
          Printf.sprintf "%.1f" r.elapsed_s;
          Printf.sprintf "%.1f" r.iters_per_sec;
          Printf.sprintf "%.6g" r.objective.Lexico.primary;
        ])
    rows;
  t

let to_json ~seed rows =
  let row_json r =
    Printf.sprintf
      "    { \"preset\": %S, \"algo\": %S, \"nodes\": %d, \"arcs\": %d,\n\
      \      \"iterations\": %d, \"improvements\": %d, \"evaluations\": %d,\n\
      \      \"memo_hits\": %d, \"memo_misses\": %d,\n\
      \      \"ttfi_s\": %s, \"elapsed_s\": %.3f, \"iters_per_sec\": %.2f,\n\
      \      \"objective_primary\": %.9g, \"objective_secondary\": %.9g,\n\
      \      \"stopped_early\": %b }"
      r.preset r.algo r.nodes r.arcs r.iterations r.improvements r.evaluations
      r.memo_hits r.memo_misses
      (match r.ttfi_s with
      | Some s -> Printf.sprintf "%.3f" s
      | None -> "null")
      r.elapsed_s r.iters_per_sec r.objective.Lexico.primary
      r.objective.Lexico.secondary r.stopped_early
  in
  Printf.sprintf
    "{\n\
    \  \"benchmark\": \"large-search\",\n\
    \  \"manifest\": %s,\n\
    \  \"seed\": %d,\n\
    \  \"rows\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    (Large_bench.stamp ~seed) seed
    (String.concat ",\n" (List.map row_json rows))
