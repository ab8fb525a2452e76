module Table = Dtr_util.Table
module Graph = Dtr_graph.Graph
module Objective = Dtr_routing.Objective
module Evaluate = Dtr_routing.Evaluate
module Problem = Dtr_core.Problem

let run ?cfg ?(seed = 43) ?(target_util = 0.5) ?(buckets = 5) () =
  if buckets < 1 then invalid_arg "Fig7.run: need at least one bucket";
  let spec =
    {
      Scenario.topology = Scenario.Random_topo;
      fraction = 0.30;
      hp = Scenario.Random_density 0.30;
      seed;
    }
  in
  let inst = Scenario.make spec in
  let model = Objective.Sla Dtr_cost.Sla.default in
  let point = Compare.run_point ?cfg inst ~model ~target_util in
  let g = inst.Scenario.graph in
  let delays = Graph.delays g in
  let str_util =
    Evaluate.utilization
      point.Compare.str.Dtr_core.Multistart.best.Problem.result.Objective.eval
  in
  let dtr_util =
    Evaluate.utilization
      point.Compare.dtr.Dtr_core.Multistart.best.Problem.result.Objective.eval
  in
  let dmin = Array.fold_left Float.min Float.infinity delays in
  let dmax = Array.fold_left Float.max Float.neg_infinity delays in
  let width = (dmax -. dmin) /. float_of_int buckets in
  let width = if width <= 0. then 1. else width in
  let sums_str = Array.make buckets 0. in
  let sums_dtr = Array.make buckets 0. in
  let counts = Array.make buckets 0 in
  Array.iteri
    (fun i d ->
      let b = int_of_float ((d -. dmin) /. width) in
      let b = if b >= buckets then buckets - 1 else b in
      sums_str.(b) <- sums_str.(b) +. str_util.(i);
      sums_dtr.(b) <- sums_dtr.(b) +. dtr_util.(i);
      counts.(b) <- counts.(b) + 1)
    delays;
  let table =
    Table.create
      ~title:
        "Fig 7: mean link utilization by propagation delay (random, SLA cost, f=30%, k=30%)"
      ~columns:[ "delay-bucket (ms)"; "links"; "STR mean util"; "DTR mean util" ]
  in
  for b = 0 to buckets - 1 do
    let lo = dmin +. (float_of_int b *. width) in
    let hi = lo +. width in
    let mean sums =
      if counts.(b) = 0 then 0. else sums.(b) /. float_of_int counts.(b)
    in
    Table.add_row table
      [
        Printf.sprintf "%.1f-%.1f" lo hi;
        string_of_int counts.(b);
        Printf.sprintf "%.3f" (mean sums_str);
        Printf.sprintf "%.3f" (mean sums_dtr);
      ]
  done;
  table
