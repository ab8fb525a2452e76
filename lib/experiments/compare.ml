module Prng = Dtr_util.Prng
module Table = Dtr_util.Table
module Lexico = Dtr_cost.Lexico
module Evaluate = Dtr_routing.Evaluate
module Objective = Dtr_routing.Objective
module Weights = Dtr_routing.Weights
module Problem = Dtr_core.Problem
module Multistart = Dtr_core.Multistart
module Trace = Dtr_core.Trace

type point = {
  target_util : float;
  measured_util : float;
  rh : float;
  rl : float;
  problem : Problem.t;
  w0 : int array * int array;
  str : Multistart.report;
  dtr : Multistart.report;
}

let ratio ~num ~den =
  let eps = 1e-12 in
  if den <= eps then if num <= eps then 1. else Float.infinity
  else num /. den

let run_point ?(cfg = Dtr_core.Search_config.default) ?(seed = 0)
    ?(trace = Trace.disabled) ?pool ?(restarts = 1) ?iters ?stop ?on_progress
    ?w0 inst ~model ~target_util =
  let inst = Scenario.scale_to_utilization inst ~target:target_util in
  let problem = Scenario.problem inst ~model in
  let g = inst.Scenario.graph in
  let root = Prng.create (seed + (inst.Scenario.spec.Scenario.seed * 7919)) in
  let str_rng = Prng.split root in
  let dtr_rng = Prng.split root in
  (* Start weights: mid-range uniform, except on the large presets,
     whose full-mesh cores make the uniform start shortest-hop-route
     every PoP pair over its direct core link — already a local
     optimum, leaving the searches nothing to do.  They start from a
     seeded random pair drawn from a third stream instead. *)
  let w0 =
    match (w0, inst.Scenario.spec.Scenario.topology) with
    | Some w, _ -> w
    | None, Scenario.Large _ ->
        let weight_rng = Prng.split root in
        (* W_L is drawn first: the pair every large-preset run has
           started from. *)
        let wl = Weights.random weight_rng g in
        let wh = Weights.random weight_rng g in
        (wh, wl)
    | None, _ ->
        let mid = (Weights.min_weight + Weights.max_weight) / 2 in
        (Weights.uniform g mid, Weights.uniform g mid)
  in
  Weights.validate g (fst w0);
  Weights.validate g (snd w0);
  let search algo rng =
    Multistart.run ?pool ~trace ~w0 ?iters
      ?stop:(Option.map (fun f -> f algo) stop)
      ?on_progress:(Option.map (fun f -> f algo) on_progress)
      ~restarts ~algo rng cfg problem
  in
  let str = search Multistart.Str str_rng in
  let dtr = search Multistart.Dtr dtr_rng in
  {
    target_util;
    measured_util =
      Evaluate.avg_utilization str.Multistart.best.Problem.result.Objective.eval;
    rh =
      ratio ~num:str.Multistart.objective.Lexico.primary
        ~den:dtr.Multistart.objective.Lexico.primary;
    rl =
      ratio ~num:str.Multistart.objective.Lexico.secondary
        ~den:dtr.Multistart.objective.Lexico.secondary;
    problem;
    w0;
    str;
    dtr;
  }

let sweep ?cfg ?seed spec ~model ~targets =
  let inst = Scenario.make spec in
  List.map (fun t -> run_point ?cfg ?seed inst ~model ~target_util:t) targets

let points_table ~title points =
  let table =
    Table.create ~title
      ~columns:[ "avg-util"; "H-cost-ratio (RH)"; "L-cost-ratio (RL)" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          Printf.sprintf "%.3f" p.measured_util;
          Printf.sprintf "%.3f" p.rh;
          Printf.sprintf "%.2f" p.rl;
        ])
    points;
  table
