module Table = Dtr_util.Table
module Graph = Dtr_graph.Graph
module Objective = Dtr_routing.Objective
module Evaluate = Dtr_routing.Evaluate
module Problem = Dtr_core.Problem
module Sim = Dtr_netsim.Sim
module Prng = Dtr_util.Prng

let run ?cfg ?(seed = 61) ?(target_util = 0.5) ?sim_config () =
  let sim_config =
    match sim_config with Some c -> c | None -> Sim.default_config
  in
  let spec =
    {
      Scenario.topology = Scenario.Isp;
      fraction = 0.30;
      hp = Scenario.Random_density 0.10;
      seed;
    }
  in
  let inst = Scenario.make spec in
  let inst = Scenario.scale_to_utilization inst ~target:target_util in
  let problem = Scenario.problem inst ~model:Objective.Load in
  let cfg = match cfg with Some c -> c | None -> Dtr_core.Search_config.quick in
  let report = Dtr_core.Dtr_search.run (Prng.create (seed + 2)) cfg problem in
  let sol = report.Dtr_core.Dtr_search.best in
  let eval =
    (Problem.ctx_result problem (Problem.ctx_of_solution problem sol))
      .Objective.eval
  in
  let predicted_util = Evaluate.utilization eval in
  let sim =
    Sim.run inst.Scenario.graph ~wh:sol.Problem.wh ~wl:sol.Problem.wl
      ~th:inst.Scenario.th ~tl:inst.Scenario.tl sim_config
  in
  let abs_err =
    Array.mapi
      (fun i p -> Float.abs (p -. sim.Sim.link_utilization.(i)))
      predicted_util
  in
  let table =
    Table.create
      ~title:"Validation: flow-level model vs packet-level simulation (ISP, DTR weights)"
      ~columns:[ "metric"; "flow-level"; "packet-level" ]
  in
  Table.add_row table
    [
      "avg link utilization";
      Printf.sprintf "%.4f" (Dtr_util.Stats.mean predicted_util);
      Printf.sprintf "%.4f" (Dtr_util.Stats.mean sim.Sim.link_utilization);
    ];
  Table.add_row table
    [
      "max link utilization";
      Printf.sprintf "%.4f" (Array.fold_left Float.max 0. predicted_util);
      Printf.sprintf "%.4f"
        (Array.fold_left Float.max 0. sim.Sim.link_utilization);
    ];
  Table.add_row table
    [
      "mean abs per-arc util error";
      "-";
      Printf.sprintf "%.4f" (Dtr_util.Stats.mean abs_err);
    ];
  Table.add_row table
    [
      "HP packets delivered";
      "-";
      string_of_int sim.Sim.high.Sim.delivered;
    ];
  Table.add_row table
    [
      "HP mean delay (ms)";
      "-";
      Printf.sprintf "%.3f" sim.Sim.high.Sim.mean_delay;
    ];
  Table.add_row table
    [
      "LP mean delay (ms)";
      "-";
      Printf.sprintf "%.3f" sim.Sim.low.Sim.mean_delay;
    ];
  table
