module Table = Dtr_util.Table
module Objective = Dtr_routing.Objective
module Evaluate = Dtr_routing.Evaluate
module Problem = Dtr_core.Problem
module Lexico = Dtr_cost.Lexico

let run ?cfg ?(seed = 53) ?(target_util = 0.5)
    ?(thetas = [ 25.; 27.5; 30.; 32.5; 35. ]) () =
  let spec =
    {
      Scenario.topology = Scenario.Random_topo;
      fraction = 0.30;
      hp = Scenario.Random_density 0.30;
      seed;
    }
  in
  let inst = Scenario.make spec in
  let table =
    Table.create
      ~title:
        "Fig 9: SLA-bound sweep (random, f=30%, k=30%, avg util ~ 0.5)"
      ~columns:
        [
          "theta (ms)";
          "violations STR";
          "violations DTR";
          "PhiL STR";
          "PhiL DTR";
          "max-util STR";
          "max-util DTR";
        ]
  in
  List.iter
    (fun theta ->
      let model = Objective.Sla { Dtr_cost.Sla.default with theta } in
      let point = Compare.run_point ?cfg inst ~model ~target_util in
      let str_sol = point.Compare.str.Dtr_core.Multistart.best in
      let dtr_sol = point.Compare.dtr.Dtr_core.Multistart.best in
      let violations (sol : Problem.solution) =
        match sol.Problem.result.Objective.sla with
        | Some s -> s.Evaluate.violations
        | None -> 0
      in
      Table.add_row table
        [
          Printf.sprintf "%.1f" theta;
          string_of_int (violations str_sol);
          string_of_int (violations dtr_sol);
          Printf.sprintf "%.3g"
            (Problem.objective str_sol).Lexico.secondary;
          Printf.sprintf "%.3g"
            (Problem.objective dtr_sol).Lexico.secondary;
          Printf.sprintf "%.3f"
            (Evaluate.max_utilization str_sol.Problem.result.Objective.eval);
          Printf.sprintf "%.3f"
            (Evaluate.max_utilization dtr_sol.Problem.result.Objective.eval);
        ])
    thetas;
  table
