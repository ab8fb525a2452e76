module Table = Dtr_util.Table
module Objective = Dtr_routing.Objective
module Lexico = Dtr_cost.Lexico
module Str_search = Dtr_core.Str_search
module Multistart = Dtr_core.Multistart

let run ?cfg ?(seed = 59) ?(targets = [ 0.45; 0.55; 0.65; 0.75; 0.85 ])
    ?(epsilons = [ 0.05; 0.30 ]) ~topology () =
  let spec =
    {
      Scenario.topology;
      fraction = 0.30;
      hp = Scenario.Random_density 0.10;
      seed;
    }
  in
  let points = Compare.sweep ?cfg spec ~model:Objective.Load ~targets in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Table 1: relaxed STR vs DTR, %s topology (load cost, f=30%%, k=10%%)"
           (Scenario.topology_name topology))
      ~columns:
        ("AD (avg util)" :: "RL"
        :: List.map
             (fun e -> Printf.sprintf "RL,%.0f%%" (e *. 100.))
             epsilons)
  in
  List.iter
    (fun p ->
      let str = p.Compare.str in
      let archive =
        str.Multistart.restarts.(str.Multistart.best_index).Multistart.archive
      in
      let dtr_phi_l = p.Compare.dtr.Multistart.objective.Lexico.secondary in
      let relaxed_cells =
        List.map
          (fun epsilon ->
            match Str_search.relaxed_best archive ~epsilon with
            | None -> "n/a"
            | Some a ->
                Printf.sprintf "%.2f"
                  (Compare.ratio ~num:a.Str_search.phi_l ~den:dtr_phi_l))
          epsilons
      in
      Table.add_row table
        (Printf.sprintf "%.2f" p.Compare.measured_util
        :: Printf.sprintf "%.2f" p.Compare.rl
        :: relaxed_cells))
    points;
  table
