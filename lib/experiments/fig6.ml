module Table = Dtr_util.Table
module Objective = Dtr_routing.Objective
module Evaluate = Dtr_routing.Evaluate
module Problem = Dtr_core.Problem
module Str_search = Dtr_core.Str_search
module Prng = Dtr_util.Prng

let sorted_h_utilization ?cfg ~seed ~target_util density =
  let spec =
    {
      Scenario.topology = Scenario.Random_topo;
      fraction = 0.30;
      hp = Scenario.Random_density density;
      seed;
    }
  in
  let inst = Scenario.make spec in
  let inst = Scenario.scale_to_utilization inst ~target:target_util in
  let problem = Scenario.problem inst ~model:Objective.Load in
  let cfg = match cfg with Some c -> c | None -> Dtr_core.Search_config.default in
  let report = Str_search.run (Prng.create (seed + 1)) cfg problem in
  let view =
    Problem.ctx_result problem
      (Problem.ctx_of_solution problem report.Str_search.best)
  in
  let h_util = Evaluate.h_utilization view.Objective.eval in
  Array.sort (fun a b -> Float.compare b a) h_util;
  h_util

let run ?cfg ?(seed = 41) ?(target_util = 0.6) ?(densities = [ 0.10; 0.30 ])
    ?(stride = 10) () =
  if stride < 1 then invalid_arg "Fig6.run: stride must be positive";
  let curves =
    List.map
      (fun k -> (k, sorted_h_utilization ?cfg ~seed ~target_util k))
      densities
  in
  let table =
    Table.create
      ~title:"Fig 6: sorted per-link H-utilization under STR (random, load cost, f=30%)"
      ~columns:
        ("link-rank"
        :: List.map
             (fun k -> Printf.sprintf "H-util (k=%.0f%%)" (k *. 100.))
             densities)
  in
  let len =
    List.fold_left (fun acc (_, c) -> min acc (Array.length c)) max_int curves
  in
  let rank = ref 0 in
  while !rank < len do
    Table.add_row table
      (string_of_int (!rank + 1)
      :: List.map (fun (_, c) -> Printf.sprintf "%.3f" c.(!rank)) curves);
    rank := !rank + stride
  done;
  (* Flatness summary: the paper reads "flatter" off the plot; the Gini
     coefficient quantifies it (lower = more even spread). *)
  Table.add_row table
    ("gini"
    :: List.map
         (fun (_, c) -> Printf.sprintf "%.3f" (Dtr_util.Stats.gini c))
         curves);
  table
