(* SLA-driven backbone engineering: an ISP sells premium transport with
   a 25 ms delay bound on the 16-node North-American backbone.  The
   example optimizes routing against the SLA cost (Eq. 4), then shows
   the per-pair delay budget and what the dual topology buys the
   best-effort class.

   Run with:  dune exec examples/sla_backbone.exe *)

module Prng = Dtr_util.Prng
module Scenario = Dtr_experiments.Scenario
module Objective = Dtr_routing.Objective
module Evaluate = Dtr_routing.Evaluate
module Problem = Dtr_core.Problem
module Lexico = Dtr_cost.Lexico

let () =
  let sla = Dtr_cost.Sla.default in
  Printf.printf "SLA: theta = %g ms, penalty = %g + %g per excess ms\n\n"
    sla.Dtr_cost.Sla.theta sla.Dtr_cost.Sla.a sla.Dtr_cost.Sla.b;
  let spec =
    {
      Scenario.topology = Scenario.Isp;
      fraction = 0.30;
      hp = Scenario.Random_density 0.15;
      seed = 9;
    }
  in
  let inst = Scenario.make spec in
  let inst = Scenario.scale_to_utilization inst ~target:0.6 in
  let model = Objective.Sla sla in
  let point =
    Dtr_experiments.Compare.run_point ~cfg:Dtr_core.Search_config.quick inst
      ~model ~target_util:0.6
  in
  let describe name (sol : Problem.solution) =
    match sol.Problem.result.Objective.sla with
    | None -> ()
    | Some s ->
        Printf.printf
          "%s: SLA violations = %d, worst pair delay = %.2f ms, Phi_L = %.4g\n"
          name s.Evaluate.violations s.Evaluate.worst_delay
          (Problem.objective sol).Lexico.secondary
  in
  describe "STR" point.Dtr_experiments.Compare.str.Dtr_core.Multistart.best;
  describe "DTR" point.Dtr_experiments.Compare.dtr.Dtr_core.Multistart.best;
  let dtr_sol = point.Dtr_experiments.Compare.dtr.Dtr_core.Multistart.best in
  (match dtr_sol.Problem.result.Objective.sla with
  | None -> ()
  | Some s ->
      print_endline "\nDTR premium-pair delays (worst five):";
      let sorted =
        List.sort
          (fun (_, _, a) (_, _, b) -> Float.compare b a)
          s.Evaluate.pair_delays
      in
      List.iteri
        (fun i (src, dst, d) ->
          if i < 5 then
            Printf.printf "  %-13s -> %-13s : %6.2f ms %s\n"
              (Dtr_topology.Isp.city_name src)
              (Dtr_topology.Isp.city_name dst)
              d
              (if d > sla.Dtr_cost.Sla.theta then "VIOLATED" else "ok"))
        sorted);
  Printf.printf
    "\nBest-effort (low-priority) cost ratio STR/DTR at this load: %.2f\n"
    point.Dtr_experiments.Compare.rl
