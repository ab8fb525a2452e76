(* dtr — command-line driver for the dual-topology-routing library.

   Subcommands:
     topo        generate a topology and print/save it
     optimize    run the STR and DTR weight searches on a scenario
     experiment  regenerate a paper figure/table (or all of them)
     simulate    packet-level replay of an optimized scenario
     mtospf      flood a weight pair through the MT-OSPF control plane
     inspect     print (and explain) the network state of a setting
     diff        churn report between two weight settings
     report      fold a JSONL trace into one aggregated run report
     gen         generate a 1k-10k-node topology preset + PoP demand
     bench       run the large-topology benchmark tier *)

open Cmdliner

module Scenario = Dtr_experiments.Scenario
module Objective = Dtr_routing.Objective
module Problem = Dtr_core.Problem
module Lexico = Dtr_cost.Lexico

(* ------------------------------------------------------------------ *)
(* Shared argument parsers                                            *)

let topology_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "random" -> Ok Scenario.Random_topo
    | "power-law" | "powerlaw" -> Ok Scenario.Power_law
    | "isp" -> Ok Scenario.Isp
    | "waxman" -> Ok Scenario.Waxman
    | "transit-stub" | "transitstub" -> Ok Scenario.Transit_stub
    | "abilene" -> Ok Scenario.Abilene
    | _ ->
        Error
          (`Msg
             "expected one of: random, power-law, isp, waxman, transit-stub, abilene")
  in
  let print ppf k = Format.pp_print_string ppf (Scenario.topology_name k) in
  Arg.conv (parse, print)

let model_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "load" -> Ok Objective.Load
    | "sla" -> Ok (Objective.Sla Dtr_cost.Sla.default)
    | _ -> Error (`Msg "expected one of: load, sla")
  in
  let print ppf m = Format.pp_print_string ppf (Objective.model_name m) in
  Arg.conv (parse, print)

let preset_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "quick" -> Ok Dtr_core.Search_config.quick
    | "default" -> Ok Dtr_core.Search_config.default
    | "paper" -> Ok Dtr_core.Search_config.paper
    | _ -> Error (`Msg "expected one of: quick, default, paper")
  in
  let print ppf _ = Format.pp_print_string ppf "<preset>" in
  Arg.conv (parse, print)

(* optimize's --preset additionally accepts a large-topology preset
   name (ts-1k .. pl-10k), which selects that preset's scenario. *)
let opt_preset_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "quick" -> Ok (`Budget Dtr_core.Search_config.quick)
    | "default" -> Ok (`Budget Dtr_core.Search_config.default)
    | "paper" -> Ok (`Budget Dtr_core.Search_config.paper)
    | s -> (
        match Dtr_topology.Large.find s with
        | Some p -> Ok (`Large p)
        | None ->
            Error
              (`Msg
                 (Printf.sprintf
                    "expected a search budget (quick, default, paper) or a \
                     large-topology preset (%s)"
                    (String.concat ", " (Dtr_topology.Large.names ())))))
  in
  let print ppf = function
    | `Budget _ -> Format.pp_print_string ppf "<budget>"
    | `Large p -> Format.pp_print_string ppf p.Dtr_topology.Large.name
  in
  Arg.conv (parse, print)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel execution (default 1 = \
           sequential).  Results are bit-identical for every value.")

let preset_arg =
  Arg.(
    value
    & opt preset_conv Dtr_core.Search_config.default
    & info [ "preset" ] ~docv:"PRESET"
        ~doc:"Search budget: quick, default or paper.")

let time_budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "time-budget" ] ~docv:"SECS"
        ~doc:
          "Wall-clock budget in seconds, granted to each search \
           separately: STR and DTR (each with all its restarts) get \
           the whole budget, measured from that search's start.  \
           Searches check the clock once per iteration and wind down \
           early when the budget is spent (at least one iteration \
           always runs).  Iteration counts under a binding budget are \
           machine-dependent.")

let init_weights_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "init-weights" ] ~docv:"FILE"
        ~doc:
          "Warm-start the searches from this saved weight setting \
           (Weights_io format: 1 topology seeds both classes, 2 seed \
           W_H and W_L; e.g. a previous run's --save-weights output).  \
           Weights are range-validated on load.")

(* Warm-start file -> (wh0, wl0).  Out-of-range or malformed files die
   with the parser's line-numbered message. *)
let load_init_weights = function
  | None -> None
  | Some path -> (
      match Dtr_routing.Weights_io.load path with
      | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
      | Ok [| w |] -> Some (w, w)
      | Ok [| wh; wl |] -> Some (wh, wl)
      | Ok sets ->
          failwith
            (Printf.sprintf "%s: expected 1 or 2 weight topologies, found %d"
               path (Array.length sets)))

let scan_jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "scan-jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the neighborhood-scan engine inside each \
           search (default 1 = sequential).  Orthogonal to --jobs, \
           which parallelizes across restarts/experiments; results are \
           bit-identical for every value.")

let with_scan_jobs preset scan_jobs =
  { preset with Dtr_core.Search_config.scan_jobs }

let trace_sample_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "trace-sample" ] ~docv:"N"
        ~doc:
          "Keep every N-th probe event in the trace (counter-based per \
           search run, so a sampled trace is still byte-identical for \
           every --jobs and --scan-jobs value).  Probes dominate trace \
           volume; non-probe events always pass.  Default: every probe \
           on the quick/default/paper presets; on a large preset \
           probes are off entirely unless this flag is given.")

(* --trace-sample N opts probe events in at one in N.  Without it,
   probes are traced in full on the dense budgets and not at all on a
   large preset, where per-probe traces run to multi-GB files. *)
let with_trace_sample cfg ~large = function
  | Some n ->
      {
        cfg with
        Dtr_core.Search_config.trace_probes = true;
        trace_sample = n;
      }
  | None ->
      if large then { cfg with Dtr_core.Search_config.trace_probes = false }
      else cfg

(* Machine-readable rendering of the report tables: title, columns and
   rows verbatim.  OCaml's %S escaping is JSON-compatible for the
   ASCII cell content the tables produce. *)
let tables_json tables =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"tables\": [";
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "{\"title\": %S, \"columns\": [%s], \"rows\": ["
           (Dtr_util.Table.title t)
           (String.concat ", "
              (List.map (Printf.sprintf "%S") (Dtr_util.Table.columns t))));
      List.iteri
        (fun j row ->
          if j > 0 then Buffer.add_string b ", ";
          Buffer.add_string b
            (Printf.sprintf "[%s]"
               (String.concat ", " (List.map (Printf.sprintf "%S") row))))
        (Dtr_util.Table.rows t);
      Buffer.add_string b "]}")
    tables;
  Buffer.add_string b "]}\n";
  Buffer.contents b

let write_file path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

(* An arc given on the command line: a bare arc id, or SRC-DST /
   SRC->DST endpoints (first matching arc wins). *)
let parse_arc_spec g spec =
  let m = Dtr_graph.Graph.arc_count g in
  let find_endpoints src dst =
    let found = ref None in
    for a = m - 1 downto 0 do
      let arc = Dtr_graph.Graph.arc g a in
      if arc.Dtr_graph.Graph.src = src && arc.Dtr_graph.Graph.dst = dst then
        found := Some a
    done;
    match !found with
    | Some a -> a
    | None -> failwith (Printf.sprintf "no arc %d->%d in this topology" src dst)
  in
  match int_of_string_opt spec with
  | Some a ->
      if a < 0 || a >= m then
        failwith (Printf.sprintf "arc id %d out of range (0..%d)" a (m - 1));
      a
  | None -> (
      match
        try Some (Scanf.sscanf spec "%d->%d%!" (fun s d -> (s, d)))
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> (
          try Some (Scanf.sscanf spec "%d-%d%!" (fun s d -> (s, d)))
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
      with
      | Some (s, d) -> find_endpoints s d
      | None ->
          failwith
            (Printf.sprintf
               "bad link spec %S (expected an arc id, SRC-DST or SRC->DST)"
               spec))

let robust_arg =
  let mode_conv =
    let parse s =
      match String.lowercase_ascii s with
      | "single-link" -> Ok ()
      | _ -> Error (`Msg "expected: single-link")
    in
    Arg.conv (parse, fun ppf () -> Format.pp_print_string ppf "single-link")
  in
  Arg.(
    value
    & opt (some mode_conv) None
    & info [ "robust" ] ~docv:"MODE"
        ~doc:
          "Optimize the robust objective J = normal + alpha * penalty, \
           where the penalty is the mean of the top-k worst finite \
           single-link post-failure costs of a candidate (MODE: \
           single-link).  Disconnecting failures are priced as \
           infinite but excluded from the penalty — single-link \
           reachability does not depend on the weights.")

let alpha_arg =
  Arg.(
    value
    & opt float 1.0
    & info [ "alpha" ] ~docv:"A"
        ~doc:"Failure-penalty weight for --robust (default 1).")

let top_k_arg =
  Arg.(
    value
    & opt int 1
    & info [ "top-k" ] ~docv:"K"
        ~doc:
          "How many worst finite failures the --robust penalty \
           averages (default 1 = pure worst case).")

let with_robust preset robust ~alpha ~top_k =
  match robust with
  | None -> preset
  | Some () ->
      {
        preset with
        Dtr_core.Search_config.robust =
          Some { Dtr_core.Search_config.alpha; top_k };
      }

let topology_arg =
  Arg.(
    value
    & opt topology_conv Scenario.Random_topo
    & info [ "topology" ] ~docv:"KIND"
        ~doc:"Topology: random, power-law, isp, waxman, transit-stub, abilene.")

let model_arg =
  Arg.(
    value
    & opt model_conv Objective.Load
    & info [ "model" ] ~docv:"MODEL" ~doc:"Cost model: load or sla.")

let util_arg =
  Arg.(
    value
    & opt float 0.6
    & info [ "util" ] ~docv:"U" ~doc:"Target average link utilization.")

let fraction_arg =
  Arg.(
    value
    & opt float 0.3
    & info [ "fraction"; "f" ] ~docv:"F"
        ~doc:"High-priority share of total traffic volume.")

let density_arg =
  Arg.(
    value
    & opt float 0.1
    & info [ "density"; "k" ] ~docv:"K"
        ~doc:"Fraction of SD pairs carrying high-priority traffic.")

let make_spec topology fraction density seed =
  {
    Scenario.topology;
    fraction;
    hp = Scenario.Random_density density;
    seed;
  }

(* ------------------------------------------------------------------ *)
(* topo                                                               *)

let topo_cmd =
  let run topology seed out dot =
    let spec = make_spec topology 0.3 0.1 seed in
    let inst = Scenario.make spec in
    let g = inst.Scenario.graph in
    Printf.printf "%s topology: %d nodes, %d arcs, strongly connected: %b\n"
      (Scenario.topology_name topology)
      (Dtr_graph.Graph.node_count g)
      (Dtr_graph.Graph.arc_count g)
      (Dtr_graph.Graph.is_strongly_connected g);
    (match out with
    | Some path ->
        Dtr_topology.Topo_io.save g path;
        Printf.printf "saved to %s\n" path
    | None -> ());
    if dot then print_string (Dtr_graph.Graph.to_dot g)
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Save the topology to a file.")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Print Graphviz output.")
  in
  Cmd.v
    (Cmd.info "topo" ~doc:"Generate a topology")
    Term.(const run $ topology_arg $ seed_arg $ out_arg $ dot_arg)

(* ------------------------------------------------------------------ *)
(* optimize                                                           *)

(* --metrics FILE: [start_metrics] before the searches, [write_metrics]
   after them writes FILE (Prometheus text), FILE.json and
   FILE.manifest.json. *)
let start_metrics metrics_file =
  if metrics_file <> None then begin
    Dtr_util.Metrics.set_enabled true;
    Dtr_util.Metrics.reset ()
  end

let write_metrics metrics_file ~manifest =
  match metrics_file with
  | None -> ()
  | Some path ->
      write_file path (Dtr_util.Metrics.to_prometheus ());
      write_file (path ^ ".json") (Dtr_util.Metrics.to_json ());
      Dtr_core.Manifest.write ~path:(path ^ ".manifest.json") (manifest ());
      Printf.printf "metrics written to %s (+.json, +.manifest.json)\n" path

(* Every optimize run is one Compare.run_point: the scenario (a large
   preset only swaps in its 1k-10k-node PoP-demand topology), then STR
   and DTR through Multistart.  Stdout is deterministic in the
   arguments whenever no --time-budget binds, and byte-identical for
   every --jobs and --scan-jobs value. *)
let optimize_cmd =
  let run topology model fraction density util preset seed restarts jobs
      scan_jobs robust alpha top_k time_budget search_iters init_weights
      save_weights trace_file trace_no_time metrics_file trace_sample =
    let module Trace = Dtr_core.Trace in
    let module Multistart = Dtr_core.Multistart in
    let module Compare = Dtr_experiments.Compare in
    if restarts < 1 then failwith "--restarts must be >= 1";
    let topology, cfg, large =
      match preset with
      | `Budget cfg -> (topology, cfg, false)
      | `Large p -> (Scenario.Large p, Dtr_core.Search_config.quick, true)
    in
    let cfg = with_scan_jobs cfg scan_jobs in
    let cfg = with_robust cfg robust ~alpha ~top_k in
    let cfg = with_trace_sample cfg ~large trace_sample in
    let cfg =
      match search_iters with
      | None -> cfg
      | Some n -> { cfg with Dtr_core.Search_config.n_iters = n; k_iters = n }
    in
    let w0 = load_init_weights init_weights in
    (* Each algorithm's search gets the whole budget, measured from its
       own start. *)
    let stop =
      Option.map
        (fun b _algo ->
          let t0 = Unix.gettimeofday () in
          fun () -> Unix.gettimeofday () -. t0 > b)
        time_budget
    in
    start_metrics metrics_file;
    let inst = Scenario.make (make_spec topology fraction density seed) in
    (* One provenance record shared by every artifact of this run. *)
    let manifest () =
      Dtr_core.Manifest.to_json ~seed ~jobs ~restarts
        ~model:(Objective.model_name model)
        ~topology:(Scenario.topology_name topology)
        ~config:cfg ~graph:inst.Scenario.graph ()
    in
    Printf.printf
      "scenario: %s topology, %s cost, f=%.0f%%, k=%.0f%%, target util %.2f\n%!"
      (Scenario.topology_name topology)
      (Objective.model_name model)
      (fraction *. 100.) (density *. 100.) util;
    (* One JSONL writer plus a ring kept for the convergence tables. *)
    let trace_oc = Option.map open_out trace_file in
    let ring =
      match trace_oc with Some _ -> Trace.ring () | None -> Trace.disabled
    in
    let trace =
      match trace_oc with
      | Some oc -> Trace.tee (Trace.jsonl ~timestamps:(not trace_no_time) oc) ring
      | None -> Trace.disabled
    in
    let point =
      Dtr_util.Pool.with_pool ~jobs @@ fun pool ->
      Compare.run_point ~cfg ~seed ~trace ~pool ~restarts ?iters:search_iters
        ?stop ?w0 inst ~model ~target_util:util
    in
    let str = point.Compare.str and dtr = point.Compare.dtr in
    let totals (r : Multistart.report) f =
      Array.fold_left (fun acc x -> acc + f x) 0 r.Multistart.restarts
    in
    List.iter
      (fun (name, (r : Multistart.report)) ->
        let o = r.Multistart.objective in
        Printf.printf
          "%-4s objective: primary=%.6g secondary=%.6g (%d improvements, %d \
           iterations, %d evaluations)\n"
          name o.Lexico.primary o.Lexico.secondary
          (totals r (fun x -> x.Multistart.improvements))
          (totals r (fun x -> x.Multistart.iterations))
          r.Multistart.evaluations;
        if restarts > 1 then
          Printf.printf "%-4s restarts: best of %d is #%d\n" name restarts
            r.Multistart.best_index)
      [ ("STR", str); ("DTR", dtr) ];
    (match cfg.Dtr_core.Search_config.robust with
    | None -> ()
    | Some rb ->
        (* In robust mode the reported objective is J; show the
           normal-cost share so the penalty is visible. *)
        List.iter
          (fun (name, (r : Multistart.report)) ->
            Printf.printf
              "%-4s robust: J primary=%.6g (normal %.6g, alpha=%g, top-k=%d)\n"
              name r.Multistart.objective.Lexico.primary
              (Problem.objective r.Multistart.best).Lexico.primary
              rb.Dtr_core.Search_config.alpha rb.Dtr_core.Search_config.top_k)
          [ ("STR", str); ("DTR", dtr) ]);
    List.iter
      (fun (name, r) ->
        Printf.printf "%-4s memo: %d hits / %d misses\n" name
          (totals r (fun x -> x.Multistart.memo_hits))
          (totals r (fun x -> x.Multistart.memo_misses)))
      [ ("STR", str); ("DTR", dtr) ];
    Printf.printf "measured avg utilization: %.3f\n" point.Compare.measured_util;
    Printf.printf "H-cost ratio RH = %.3f\nL-cost ratio RL = %.3f\n"
      point.Compare.rh point.Compare.rl;
    (match trace_file with
    | None -> ()
    | Some path ->
        Option.iter close_out trace_oc;
        (* STR's restart segments come first, then DTR's. *)
        let segs = Trace.segments (Trace.events ring) in
        let str_evs = List.concat (List.filteri (fun i _ -> i < restarts) segs)
        and dtr_evs =
          List.concat (List.filteri (fun i _ -> i >= restarts) segs)
        in
        List.iter
          (fun (name, evs) ->
            print_endline
              (Dtr_util.Table.to_string
                 (Dtr_routing.Report.convergence_table
                    ~title:
                      (Printf.sprintf
                         "%s convergence (best objective vs. evaluations)" name)
                    (Trace.convergence evs))))
          [ ("STR", str_evs); ("DTR", dtr_evs) ];
        Dtr_core.Manifest.write ~path:(path ^ ".manifest.json") (manifest ());
        Printf.printf "trace written to %s\n" path);
    (match save_weights with
    | None -> ()
    | Some path ->
        let best = dtr.Multistart.best in
        Dtr_routing.Weights_io.save [| best.Problem.wh; best.Problem.wl |] path;
        Printf.printf "DTR weight pair saved to %s\n" path);
    write_metrics metrics_file ~manifest
  in
  let restarts_arg =
    Arg.(
      value
      & opt int 1
      & info [ "restarts" ] ~docv:"N"
          ~doc:
            "Independent search restarts per algorithm; the best \
             solution wins.  Restart 0 is exactly the single run (same \
             stream, same start weights), so more restarts never give \
             a worse result; the others start from random weights.  \
             The restarts run on the --jobs domain pool.")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-weights" ] ~docv:"FILE"
          ~doc:"Save the best DTR weight pair to a file.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write one JSONL search-telemetry event per line to FILE \
             and print best-so-far convergence tables.  Every field \
             except the trailing t_us timestamp is byte-identical for \
             every --jobs and --scan-jobs value.  A FILE.manifest.json \
             provenance record is written alongside.")
  in
  let trace_no_time_arg =
    Arg.(
      value
      & flag
      & info [ "trace-no-time" ]
          ~doc:
            "Zero the t_us timestamp field of every trace event at \
             emission, making the JSONL output fully deterministic \
             (byte-diffable without post-processing).")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Enable runtime metrics and write them to FILE \
             (Prometheus text format) and FILE.json on exit, with a \
             FILE.manifest.json provenance record.  Counter values \
             above the nondeterministic marker are bit-identical for \
             every --jobs and --scan-jobs value.")
  in
  let opt_preset_arg =
    Arg.(
      value
      & opt opt_preset_conv (`Budget Dtr_core.Search_config.default)
      & info [ "preset" ] ~docv:"PRESET"
          ~doc:
            "Search budget (quick, default, paper) or a large-topology \
             preset (ts-1k, ts-5k, ts-10k, pl-1k, pl-5k, pl-10k).  A \
             large preset replaces --topology with its 1k-10k-node \
             PoP-demand scenario, starts the searches from seeded \
             random weights, uses the quick budget, and traces no \
             probe events unless --trace-sample is given; everything \
             else is the same run.")
  in
  let search_iters_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "search-iters" ] ~docv:"N"
          ~doc:
            "Cap every search loop at N iterations (STR's value-scan \
             count and DTR's three routines alike), overriding the \
             preset's budget.  Mostly for the large presets, whose \
             default STR iteration count grows with the arc count.")
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Run the STR and DTR weight searches on one scenario")
    Term.(
      const run $ topology_arg $ model_arg $ fraction_arg $ density_arg
      $ util_arg $ opt_preset_arg $ seed_arg $ restarts_arg $ jobs_arg
      $ scan_jobs_arg $ robust_arg $ alpha_arg $ top_k_arg $ time_budget_arg
      $ search_iters_arg $ init_weights_arg $ save_arg $ trace_arg
      $ trace_no_time_arg $ metrics_arg $ trace_sample_arg)

(* ------------------------------------------------------------------ *)
(* experiment                                                         *)

let experiment_cmd =
  let run names list preset seed jobs scan_jobs =
    let preset = with_scan_jobs preset scan_jobs in
    if list then begin
      List.iter
        (fun e ->
          Printf.printf "%-16s %s\n" e.Dtr_experiments.Registry.name
            e.Dtr_experiments.Registry.description)
        Dtr_experiments.Registry.all;
      `Ok ()
    end
    else begin
      let targets =
        match names with
        | [ "all" ] -> Some Dtr_experiments.Registry.all
        | [] -> None
        | names -> (
            let resolved =
              List.map
                (fun n -> (n, Dtr_experiments.Registry.find n))
                names
            in
            match List.find_opt (fun (_, e) -> e = None) resolved with
            | Some (n, _) -> (
                Printf.eprintf "unknown experiment: %s\n" n;
                None)
            | None -> Some (List.filter_map snd resolved))
      in
      match targets with
      | None ->
          `Error (false, "pass experiment names, or 'all', or --list")
      | Some experiments ->
          (* Compute all tables first (in parallel when --jobs > 1),
             then print in input order: byte-identical for every
             --jobs. *)
          let results =
            Dtr_experiments.Registry.run_all ~jobs ~cfg:preset ~seed
              experiments
          in
          List.iter
            (fun (e, tables) ->
              Printf.printf "== %s: %s ==\n%!" e.Dtr_experiments.Registry.name
                e.Dtr_experiments.Registry.description;
              List.iter
                (fun t -> print_endline (Dtr_util.Table.to_string t))
                tables)
            results;
          `Ok ()
    end
  in
  let names_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"NAME" ~doc:"Experiment names (or 'all').")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List available experiments.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a paper figure or table")
    Term.(
      ret
        (const run $ names_arg $ list_arg $ preset_arg $ seed_arg $ jobs_arg
        $ scan_jobs_arg))

(* ------------------------------------------------------------------ *)
(* simulate                                                           *)

let simulate_cmd =
  let run topology fraction density util preset seed duration scan_jobs =
    let preset = with_scan_jobs preset scan_jobs in
    let spec = make_spec topology fraction density seed in
    let inst = Scenario.make spec in
    let inst = Scenario.scale_to_utilization inst ~target:util in
    let problem = Scenario.problem inst ~model:Objective.Load in
    Printf.printf "optimizing DTR weights...\n%!";
    let report =
      Dtr_core.Dtr_search.run (Dtr_util.Prng.create seed) preset problem
    in
    let sol = report.Dtr_core.Dtr_search.best in
    Printf.printf "simulating %g ms of traffic...\n%!" duration;
    let cfg = { Dtr_netsim.Sim.default_config with duration; seed } in
    let r =
      Dtr_netsim.Sim.run inst.Scenario.graph ~wh:sol.Problem.wh
        ~wl:sol.Problem.wl ~th:inst.Scenario.th ~tl:inst.Scenario.tl cfg
    in
    let pr name (s : Dtr_netsim.Sim.class_stats) =
      Printf.printf
        "%-4s injected=%d delivered=%d mean-delay=%.3fms p95=%.3fms hops=%.2f\n"
        name s.Dtr_netsim.Sim.injected s.Dtr_netsim.Sim.delivered
        s.Dtr_netsim.Sim.mean_delay s.Dtr_netsim.Sim.p95_delay
        s.Dtr_netsim.Sim.mean_hops
    in
    pr "high" r.Dtr_netsim.Sim.high;
    pr "low" r.Dtr_netsim.Sim.low;
    Printf.printf "mean simulated link utilization: %.3f\n"
      (Dtr_util.Stats.mean r.Dtr_netsim.Sim.link_utilization)
  in
  let duration_arg =
    Arg.(
      value
      & opt float 2000.
      & info [ "duration" ] ~docv:"MS" ~doc:"Simulated milliseconds.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Packet-level replay of an optimized scenario")
    Term.(
      const run $ topology_arg $ fraction_arg $ density_arg $ util_arg
      $ preset_arg $ seed_arg $ duration_arg $ scan_jobs_arg)

(* ------------------------------------------------------------------ *)
(* mtospf                                                             *)

let mtospf_cmd =
  let run topology seed =
    let spec = make_spec topology 0.3 0.1 seed in
    let inst = Scenario.make spec in
    let g = inst.Scenario.graph in
    let m = Dtr_graph.Graph.arc_count g in
    let rng = Dtr_util.Prng.create seed in
    let wh = Dtr_routing.Weights.random rng g in
    let wl = Dtr_routing.Weights.random rng g in
    let net = Dtr_mtospf.Network.create g ~weight_sets:[| wh; wl |] in
    let stats = Dtr_mtospf.Network.flood net in
    Printf.printf
      "flooded %d-router area (%d arcs, 2 topologies): %d rounds, %d messages, converged: %b\n"
      (Dtr_graph.Graph.node_count g) m stats.Dtr_mtospf.Network.rounds
      stats.Dtr_mtospf.Network.messages
      (Dtr_mtospf.Network.converged net);
    let update = Dtr_mtospf.Network.set_weight net ~topology:0 ~arc:0 ~weight:7 in
    Printf.printf "single weight change reflood: %d rounds, %d messages\n"
      update.Dtr_mtospf.Network.rounds update.Dtr_mtospf.Network.messages
  in
  Cmd.v
    (Cmd.info "mtospf" ~doc:"Flood a dual weight set through the MT-OSPF control plane")
    Term.(const run $ topology_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* inspect                                                            *)

let inspect_cmd =
  let run topology model fraction density util preset seed top scan_jobs
      weights_file explain explain_top json_out =
    let module Report = Dtr_routing.Report in
    let module Attribution = Dtr_routing.Attribution in
    let preset = with_scan_jobs preset scan_jobs in
    let spec = make_spec topology fraction density seed in
    let inst = Scenario.make spec in
    let inst = Scenario.scale_to_utilization inst ~target:util in
    let wh, wl, result =
      match weights_file with
      | Some path -> (
          (* Inspect a deployed weight setting as-is — no search. *)
          match Dtr_routing.Weights_io.load path with
          | Error msg -> failwith msg
          | Ok [| w |] ->
              ( w,
                w,
                Objective.evaluate model inst.Scenario.graph ~wh:w ~wl:w
                  ~th:inst.Scenario.th ~tl:inst.Scenario.tl )
          | Ok [| wh; wl |] ->
              ( wh,
                wl,
                Objective.evaluate model inst.Scenario.graph ~wh ~wl
                  ~th:inst.Scenario.th ~tl:inst.Scenario.tl )
          | Ok sets ->
              failwith
                (Printf.sprintf
                   "%s: expected 1 or 2 weight topologies, found %d" path
                   (Array.length sets)))
      | None ->
          let problem = Scenario.problem inst ~model in
          Printf.printf "optimizing DTR weights...\n%!";
          let report =
            Dtr_core.Dtr_search.run (Dtr_util.Prng.create seed) preset problem
          in
          let best = report.Dtr_core.Dtr_search.best in
          (best.Problem.wh, best.Problem.wl, best.Problem.result)
    in
    let eval = result.Dtr_routing.Objective.eval in
    let sla = result.Dtr_routing.Objective.sla in
    (* Every printed table is also collected for --json. *)
    let shown = ref [] in
    let show t =
      shown := t :: !shown;
      print_endline (Dtr_util.Table.to_string t)
    in
    show (Report.summary_table ?sla eval);
    show (Report.utilization_percentiles_table eval);
    show (Report.per_link_table ~top eval);
    show (Report.top_phi_table ~top eval);
    (* Single-link robustness of the inspected setting: one delta
       sweep against a live context. *)
    let ctx =
      Dtr_routing.Eval_ctx.create inst.Scenario.graph ~weights:[| wh; wl |]
        ~matrices:[| inst.Scenario.th; inst.Scenario.tl |]
    in
    let outcomes = Dtr_routing.Failure_sweep.sweep ~model ~th:inst.Scenario.th ctx in
    show
      (Report.robustness_table
         ~baseline:result.Dtr_routing.Objective.objective outcomes);
    (match (model, sla) with
    | Objective.Sla params, Some sla ->
        let node_name =
          match topology with
          | Scenario.Isp -> Dtr_topology.Isp.city_name
          | Scenario.Abilene -> Dtr_topology.Abilene.city_name
          | Scenario.Random_topo | Scenario.Power_law | Scenario.Waxman
          | Scenario.Transit_stub | Scenario.Large _ ->
              string_of_int
        in
        show (Report.per_pair_delay_table ~top ~node_name sla params)
    | _ -> ());
    (* Flow attribution: which destinations/pairs put the load on one
       link, and the hottest links with their dominant flows. *)
    (match explain with
    | None -> ()
    | Some spec ->
        let arc = parse_arc_spec inst.Scenario.graph spec in
        show (Attribution.destinations_table ~top ctx ~arc);
        show (Attribution.explain_table ~top ctx ~arc));
    (match explain_top with
    | None -> ()
    | Some k -> show (Attribution.hottest_table ~top:k ctx));
    match json_out with
    | None -> ()
    | Some path ->
        write_file path (tables_json (List.rev !shown));
        Dtr_core.Manifest.write
          ~path:(path ^ ".manifest.json")
          (Dtr_core.Manifest.to_json ~seed
             ~model:(Objective.model_name model)
             ~topology:(Scenario.topology_name topology)
             ~config:preset ~graph:inst.Scenario.graph ());
        Printf.printf "inspect tables written to %s (+.manifest.json)\n" path
  in
  let top_arg =
    Arg.(
      value
      & opt int 15
      & info [ "top" ] ~docv:"N" ~doc:"Rows per table.")
  in
  let weights_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "weights" ] ~docv:"FILE"
          ~doc:
            "Inspect this saved weight setting (1 topology = STR, 2 = \
             DTR) on the scenario instead of optimizing one.")
  in
  let explain_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "explain" ] ~docv:"LINK"
          ~doc:
            "Explain one link's load: its top contributing destinations \
             (exact committed subtotals) and OD pairs (exact ECMP \
             shares) per class.  LINK is an arc id, SRC-DST or \
             SRC->DST.")
  in
  let explain_top_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "explain-top" ] ~docv:"K"
          ~doc:
            "Show the K costliest links by total Fortz cost with each \
             class's dominant OD pair.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write every printed table (titles, columns, rows) to \
             FILE as JSON, with a FILE.manifest.json provenance \
             record.")
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Print the network state of a weight setting: summary, \
          utilization percentiles, per-link and costliest-link tables, \
          per-pair SLA margins, per-link flow attribution")
    Term.(
      const run $ topology_arg $ model_arg $ fraction_arg $ density_arg
      $ util_arg $ preset_arg $ seed_arg $ top_arg $ scan_jobs_arg
      $ weights_arg $ explain_arg $ explain_top_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* diff                                                               *)

(* A saved weight file as a (wh, wl) pair: one topology seeds both
   classes (STR), two are W_H and W_L (DTR). *)
let load_weight_pair path =
  match Dtr_routing.Weights_io.load path with
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
  | Ok [| w |] -> (w, w)
  | Ok [| wh; wl |] -> (wh, wl)
  | Ok sets ->
      failwith
        (Printf.sprintf "%s: expected 1 or 2 weight topologies, found %d" path
           (Array.length sets))

let diff_cmd =
  let run topology model fraction density util seed jobs top weights json_out
      =
    let module Diff = Dtr_routing.Diff in
    let path_a, path_b =
      match weights with
      | [ a; b ] -> (a, b)
      | _ -> failwith "pass exactly two --weights FILEs (before and after)"
    in
    let spec = make_spec topology fraction density seed in
    let inst = Scenario.make spec in
    let inst = Scenario.scale_to_utilization inst ~target:util in
    let g = inst.Scenario.graph in
    let matrices = [| inst.Scenario.th; inst.Scenario.tl |] in
    let wha, wla = load_weight_pair path_a in
    let whb, wlb = load_weight_pair path_b in
    let ctx_a = Dtr_routing.Eval_ctx.create g ~weights:[| wha; wla |] ~matrices in
    let ctx_b = Dtr_routing.Eval_ctx.create g ~weights:[| whb; wlb |] ~matrices in
    let sla =
      match model with
      | Objective.Sla params -> Some (params, inst.Scenario.th)
      | Objective.Load -> None
    in
    let d = Diff.compute ~jobs ?sla ctx_a ctx_b in
    let reconv = Diff.reconvergence ctx_a ctx_b in
    print_endline (Dtr_util.Table.to_string (Diff.summary_table d));
    if Diff.is_empty d then print_endline "no difference: the settings route identically\n"
    else print_endline (Dtr_util.Table.to_string (Diff.changed_arcs_table ~top ctx_a d));
    print_endline (Dtr_util.Table.to_string (Diff.reconvergence_table reconv));
    match json_out with
    | None -> ()
    | Some path ->
        write_file path (Diff.to_json ~reconv d);
        Dtr_core.Manifest.write
          ~path:(path ^ ".manifest.json")
          (Dtr_core.Manifest.to_json ~seed
             ~model:(Objective.model_name model)
             ~topology:(Scenario.topology_name topology)
             ~graph:g ());
        Printf.printf "diff written to %s (+.manifest.json)\n" path
  in
  let weights_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "weights" ] ~docv:"FILE"
          ~doc:
            "Weight setting to compare; give the option twice (before, \
             then after).  Each FILE holds 1 (STR) or 2 (DTR) \
             topologies.")
  in
  let top_arg =
    Arg.(
      value
      & opt int 20
      & info [ "top" ] ~docv:"N" ~doc:"Rows of the per-arc diff table.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the diff (churn numbers, deltas, reconvergence \
             price) to FILE as JSON, with a FILE.manifest.json \
             provenance record.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two weight settings of one scenario: changed arcs, \
          per-class rerouted pairs and demand, traffic moved, \
          utilization/Φ/Λ deltas, and the MT-OSPF \
          reconvergence price of deploying the change as one batch")
    Term.(
      const run $ topology_arg $ model_arg $ fraction_arg $ density_arg
      $ util_arg $ seed_arg $ jobs_arg $ top_arg $ weights_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* report                                                             *)

let report_cmd =
  let run trace metrics manifest out weights topology model fraction density
      util seed top =
    let module Report_gen = Dtr_core.Report_gen in
    let module Report = Dtr_routing.Report in
    match Report_gen.load ?metrics ?manifest trace with
    | Error e -> failwith e
    | Ok r ->
        (* Optional final-state section: re-evaluate a saved weight
           setting on the scenario and append the inspect summary. *)
        let final_tables =
          match weights with
          | None -> []
          | Some path ->
              let spec = make_spec topology fraction density seed in
              let inst = Scenario.make spec in
              let inst = Scenario.scale_to_utilization inst ~target:util in
              let wh, wl = load_weight_pair path in
              let result =
                Objective.evaluate model inst.Scenario.graph ~wh ~wl
                  ~th:inst.Scenario.th ~tl:inst.Scenario.tl
              in
              let eval = result.Dtr_routing.Objective.eval in
              [
                Report.summary_table ?sla:result.Dtr_routing.Objective.sla eval;
                Report.top_phi_table ~top eval;
              ]
        in
        let markdown () =
          let b = Buffer.create 4096 in
          Buffer.add_string b (Report_gen.to_markdown r);
          if final_tables <> [] then begin
            Buffer.add_string b "## Final state\n\n";
            List.iter
              (fun t ->
                Buffer.add_string b "```\n";
                Buffer.add_string b (Dtr_util.Table.to_string t);
                Buffer.add_string b "```\n\n")
              final_tables
          end;
          Buffer.contents b
        in
        (match out with
        | None -> print_string (markdown ())
        | Some path ->
            if Filename.check_suffix path ".json" then
              write_file path (Report_gen.to_json r)
            else write_file path (markdown ());
            Printf.printf "report written to %s\n" path)
  in
  let trace_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"JSONL trace file (optimize --trace).")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Metrics snapshot (optimize --metrics FILE writes \
             FILE.json) — adds the profiler-span table.")
  in
  let manifest_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:
            "Manifest sidecar to embed verbatim as the provenance \
             section.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write the report to FILE: Markdown, or JSON when FILE \
             ends in .json.  Default: Markdown on stdout.")
  in
  let weights_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "weights" ] ~docv:"FILE"
          ~doc:
            "Append a final-state section (inspect summary and \
             costliest links) by evaluating this saved weight setting \
             on the scenario given by --topology and friends.")
  in
  let top_arg =
    Arg.(
      value
      & opt int 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Rows of the final-state costliest-links table.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Fold a JSONL search trace (plus optional metrics snapshot and \
          manifest) into one self-contained run report: convergence, \
          acceptance/diversification/memo rates by phase, wall-clock \
          per phase, restart outcomes")
    Term.(
      const run $ trace_arg $ metrics_arg $ manifest_arg $ out_arg
      $ weights_arg $ topology_arg $ model_arg $ fraction_arg $ density_arg
      $ util_arg $ seed_arg $ top_arg)

(* ------------------------------------------------------------------ *)
(* gen                                                                *)

let gen_cmd =
  let run preset_name list seed out dot =
    let module Large = Dtr_topology.Large in
    let module Graph = Dtr_graph.Graph in
    if list then begin
      Array.iter
        (fun p ->
          Printf.printf "%-8s %6d nodes  (%d PoPs)\n" p.Large.name
            (Large.node_count p) p.Large.pops)
        Large.presets;
      `Ok ()
    end
    else
      match preset_name with
      | None -> `Error (false, "pass a preset name (see --list)")
      | Some name -> (
          match Large.find name with
          | None ->
              `Error
                ( false,
                  Printf.sprintf "unknown preset: %s (expected one of: %s)"
                    name
                    (String.concat ", " (Large.names ())) )
          | Some p ->
              let root = Dtr_util.Prng.create seed in
              let topo_rng = Dtr_util.Prng.split root in
              let traffic_rng = Dtr_util.Prng.split root in
              let t0 = Unix.gettimeofday () in
              let g = Large.generate topo_rng p in
              let gen_s = Unix.gettimeofday () -. t0 in
              let n = Graph.node_count g in
              let m = Graph.arc_count g in
              let degs = Array.make n 0 in
              for a = 0 to m - 1 do
                degs.(Graph.src g a) <- degs.(Graph.src g a) + 1
              done;
              let dmin = Array.fold_left min max_int degs in
              let dmax = Array.fold_left max 0 degs in
              Printf.printf
                "%s: %d nodes, %d arcs, strongly connected: %b (%.2f s)\n"
                p.Large.name n m
                (Graph.is_strongly_connected g)
                gen_s;
              Printf.printf "out-degree: min %d, mean %.1f, max %d\n" dmin
                (float_of_int m /. float_of_int n)
                dmax;
              let pops = Large.pop_nodes g p in
              let tm =
                Dtr_traffic.Gravity.generate_pop traffic_rng ~n ~pops
                  Dtr_traffic.Gravity.default
              in
              let pairs = ref 0 and volume = ref 0. in
              Dtr_traffic.Matrix.iter tm (fun _ _ v ->
                  incr pairs;
                  volume := !volume +. v);
              Printf.printf
                "PoP gravity demand: %d PoPs, %d pairs, total volume %.0f\n"
                (Array.length pops) !pairs !volume;
              (match out with
              | Some path ->
                  Dtr_topology.Topo_io.save g path;
                  Printf.printf "saved to %s\n" path
              | None -> ());
              if dot then print_string (Graph.to_dot g);
              `Ok ())
  in
  let preset_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"PRESET"
          ~doc:"Large-topology preset (ts-1k, ts-5k, ts-10k, pl-1k, pl-5k, pl-10k).")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List available presets.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Save the topology to a file.")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Print Graphviz output.")
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a real-ISP-scale topology preset (1k-10k nodes) with its \
          PoP-level gravity demand and print summary statistics")
    Term.(
      ret (const run $ preset_arg $ list_arg $ seed_arg $ out_arg $ dot_arg))

(* ------------------------------------------------------------------ *)
(* bench                                                              *)

let bench_cmd =
  let run presets seed probes json_out search time_budget scan_jobs =
    let module Large_bench = Dtr_experiments.Large_bench in
    let module Search_bench = Dtr_experiments.Search_bench in
    let write_json to_json =
      match json_out with
      | None -> ()
      | Some path ->
          write_file path (to_json ());
          Printf.printf "wrote %s\n" path
    in
    if search then begin
      (* Search tier: full STR + DTR runs per preset — default to the
         smallest preset only; 5k/10k are explicit opt-ins. *)
      let names = match presets with [] -> [ "ts-1k" ] | ps -> ps in
      let cfg =
        with_scan_jobs Dtr_core.Search_config.quick scan_jobs
      in
      let rows =
        List.concat_map
          (fun name ->
            match Dtr_topology.Large.find name with
            | None ->
                failwith
                  (Printf.sprintf "unknown large preset: %s (expected one \
                                   of: %s)"
                     name
                     (String.concat ", " (Dtr_topology.Large.names ())))
            | Some p ->
                Search_bench.run ~cfg ~seed ?time_budget
                  ~progress:(Printf.eprintf "%s\n%!")
                  ~model:Dtr_routing.Objective.Load p)
          names
      in
      print_endline (Dtr_util.Table.to_string (Search_bench.table rows));
      write_json (fun () -> Search_bench.to_json ~seed rows)
    end
    else begin
      let names =
        match presets with [] -> Dtr_topology.Large.names () | ps -> ps
      in
      let rows =
        Large_bench.run ~probes ~progress:(Printf.printf "%s\n%!") ~seed names
      in
      print_endline (Dtr_util.Table.to_string (Large_bench.table rows));
      write_json (fun () -> Large_bench.to_json ~seed ~probes rows)
    end
  in
  let presets_arg =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"PRESET"
          ~doc:
            "Large-topology presets to benchmark (default: all six, in \
             ascending node-count order).")
  in
  let probes_arg =
    Arg.(
      value
      & opt int Dtr_experiments.Large_bench.default_probes
      & info [ "probes" ] ~docv:"N"
          ~doc:"Timed single-weight-change probes per preset.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the rows and a provenance stamp to FILE as JSON.")
  in
  let search_arg =
    Arg.(
      value
      & flag
      & info [ "search" ]
          ~doc:
            "Benchmark the search loops instead of the evaluation \
             plumbing: run the STR and DTR searches (quick budget) on \
             each preset and report time-to-first-improvement and \
             iterations/sec — the BENCH_search_large.json tier.  \
             Defaults to ts-1k only; pass presets explicitly for the \
             5k/10k tiers.  --probes is ignored in this mode.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the large-topology benchmark tier: demand-only evaluation \
          contexts at 1k-10k nodes, full-eval time, probe latency \
          percentiles, evals/sec and peak RSS per preset — or, with \
          --search, the search loops themselves")
    Term.(
      const run $ presets_arg $ seed_arg $ probes_arg $ json_arg $ search_arg
      $ time_budget_arg $ scan_jobs_arg)

(* ------------------------------------------------------------------ *)
(* version                                                            *)

let version_cmd =
  let run () = print_endline (Dtr_core.Manifest.build_info ()) in
  Cmd.v
    (Cmd.info "version" ~doc:"Print version, source revision and build info")
    Term.(const run $ const ())

let main_cmd =
  let info =
    Cmd.info "dtr" ~version:Dtr_core.Manifest.version
      ~doc:"Dual-topology routing for service differentiation (CoNEXT 2007 reproduction)"
  in
  Cmd.group info
    [ topo_cmd; optimize_cmd; experiment_cmd; simulate_cmd; mtospf_cmd;
      inspect_cmd; diff_cmd; report_cmd; gen_cmd; bench_cmd; version_cmd ]

(* Exit codes: 0 success, 1 runtime failure (bad input file, invalid
   scenario, I/O error — one line on stderr), 2 usage error (Cmdliner
   already printed the diagnostic). *)
let () =
  try
    match Cmd.eval_value ~catch:false main_cmd with
    | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
    | Error _ -> exit 2
  with
  | Invalid_argument msg | Failure msg | Sys_error msg ->
      Printf.eprintf "dtr: error: %s\n" msg;
      exit 1
  | e ->
      Printf.eprintf "dtr: error: %s\n" (Printexc.to_string e);
      exit 1
