(* Tests for the deterministic parallel layer: the Dtr_util.Pool domain
   pool itself (ordering, exception selection, reuse, lifecycle), the
   Multistart driver's jobs-invariance, the parallel failure sweep and
   Registry.run_all against their sequential runs, and the atomic /
   domain-local evaluation counters that keep per-report numbers
   scheduling-independent. *)

module Prng = Dtr_util.Prng
module Pool = Dtr_util.Pool
module Matrix = Dtr_traffic.Matrix
module Lexico = Dtr_cost.Lexico
module Objective = Dtr_routing.Objective
module Weights = Dtr_routing.Weights
module Failure_sweep = Dtr_routing.Failure_sweep
module Search_config = Dtr_core.Search_config
module Problem = Dtr_core.Problem
module Scan = Dtr_core.Scan
module Str_search = Dtr_core.Str_search
module Dtr_search = Dtr_core.Dtr_search
module Vmemo = Dtr_util.Vmemo
module Anneal_search = Dtr_core.Anneal_search
module Multistart = Dtr_core.Multistart
module Scenario = Dtr_experiments.Scenario
module Classic = Dtr_topology.Classic

let tiny_config =
  {
    Search_config.quick with
    Search_config.n_iters = 15;
    k_iters = 20;
    diversify_after = 8;
  }

let ring_problem ?(model = Objective.Load) () =
  let g = Classic.ring ~capacity:1.0 ~delay:2.0 6 in
  let th = Matrix.create 6 and tl = Matrix.create 6 in
  Matrix.set th 0 3 0.3;
  Matrix.set th 1 4 0.2;
  Matrix.set tl 0 3 0.4;
  Matrix.set tl 2 5 0.5;
  Matrix.set tl 4 1 0.3;
  Problem.create ~graph:g ~th ~tl ~model

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_ordering () =
  (* Unequal task sizes perturb completion order; results must still
     land by task index. *)
  let f i =
    let acc = ref 0 in
    for k = 0 to (23 - i) * 5000 do
      acc := !acc + k
    done;
    ignore !acc;
    i * i
  in
  List.iter
    (fun jobs ->
      let r = Pool.run ~jobs 24 ~f in
      Alcotest.(check int) "length" 24 (Array.length r);
      Array.iteri
        (fun i v -> Alcotest.(check int) (Printf.sprintf "task %d" i) (i * i) v)
        r)
    [ 1; 2; 4 ]

let test_pool_empty_and_single () =
  Pool.with_pool ~jobs:3 @@ fun p ->
  Alcotest.(check int) "jobs" 3 (Pool.jobs p);
  Alcotest.(check int) "empty batch" 0 (Array.length (Pool.map p 0 ~f:(fun _ -> assert false)));
  Alcotest.(check (array int)) "singleton" [| 7 |] (Pool.map p 1 ~f:(fun _ -> 7))

exception Task_failed of int

let test_pool_exception_lowest_index () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs @@ fun p ->
      (try
         ignore
           (Pool.map p 16 ~f:(fun i ->
                if i = 5 || i = 12 then raise (Task_failed i) else i));
         Alcotest.fail "expected Task_failed"
       with Task_failed i ->
         Alcotest.(check int) "lowest failing index wins" 5 i);
      (* The pool survives a failing batch. *)
      let r = Pool.map p 4 ~f:(fun i -> i + 1) in
      Alcotest.(check (array int)) "reusable after failure" [| 1; 2; 3; 4 |] r)
    [ 1; 3 ]

let test_pool_reuse () =
  Pool.with_pool ~jobs:2 @@ fun p ->
  for round = 1 to 5 do
    let r = Pool.map p 8 ~f:(fun i -> (round * 100) + i) in
    Array.iteri
      (fun i v -> Alcotest.(check int) "round result" ((round * 100) + i) v)
      r
  done

let test_pool_lifecycle () =
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0));
  let p = Pool.create ~jobs:2 in
  Pool.shutdown p;
  Pool.shutdown p;
  (* idempotent *)
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Pool.map: pool is shut down") (fun () ->
      ignore (Pool.map p 3 ~f:(fun i -> i)))

(* ------------------------------------------------------------------ *)
(* Multistart determinism *)

let check_same_report (a : Multistart.report) (b : Multistart.report) =
  Alcotest.(check int) "same winner index" a.Multistart.best_index
    b.Multistart.best_index;
  Alcotest.(check int) "same objective (exact)" 0
    (Lexico.compare a.Multistart.objective b.Multistart.objective);
  Alcotest.(check (array int)) "same wh" a.Multistart.best.Problem.wh
    b.Multistart.best.Problem.wh;
  Alcotest.(check (array int)) "same wl" a.Multistart.best.Problem.wl
    b.Multistart.best.Problem.wl;
  Array.iteri
    (fun i (r : Multistart.restart) ->
      Alcotest.(check int)
        (Printf.sprintf "restart %d objective" i)
        0
        (Lexico.compare r.Multistart.objective
           b.Multistart.restarts.(i).Multistart.objective))
    a.Multistart.restarts

let test_multistart_jobs_invariance () =
  let p = ring_problem () in
  List.iter
    (fun algo ->
      let run jobs =
        Multistart.run ~jobs ~restarts:4 ~algo (Prng.create 11) tiny_config p
      in
      let seq = run 1 in
      let par = run 4 in
      check_same_report seq par)
    [ Multistart.Str; Multistart.Dtr ]

let test_multistart_picks_best () =
  let p = ring_problem () in
  let r =
    Multistart.run ~jobs:2 ~restarts:4 ~algo:Multistart.Dtr (Prng.create 3)
      tiny_config p
  in
  Alcotest.(check int) "all restarts reported" 4 (Array.length r.Multistart.restarts);
  Array.iter
    (fun (restart : Multistart.restart) ->
      Alcotest.(check bool) "winner is minimal" true
        (Lexico.compare r.Multistart.objective restart.Multistart.objective <= 0))
    r.Multistart.restarts;
  Alcotest.check_raises "restarts must be positive"
    (Invalid_argument "Multistart.run: restarts must be >= 1") (fun () ->
      ignore
        (Multistart.run ~restarts:0 ~algo:Multistart.Str (Prng.create 1)
           tiny_config p))

(* Restart 0 is the single run: same stream, same start, same hooks. *)

let isp_problem () =
  let inst =
    Scenario.make
      {
        Scenario.topology = Scenario.Isp;
        fraction = 0.30;
        hp = Scenario.Random_density 0.10;
        seed = 3;
      }
  in
  Scenario.problem
    (Scenario.scale_to_utilization inst ~target:0.6)
    ~model:Objective.Load

(* One direct search on a fresh stream, as (weights, objective,
   evaluations). *)
let direct_run p algo seed =
  let rng = Prng.create seed in
  match algo with
  | Multistart.Str ->
      let r = Str_search.run rng tiny_config p in
      (r.Str_search.best, r.Str_search.objective, r.Str_search.evaluations)
  | Multistart.Dtr ->
      let r = Dtr_search.run rng tiny_config p in
      (r.Dtr_search.best, r.Dtr_search.objective, r.Dtr_search.evaluations)
  | Multistart.Anneal ->
      let r = Anneal_search.run rng tiny_config p in
      ( r.Anneal_search.best,
        r.Anneal_search.objective,
        r.Anneal_search.evaluations )

let check_restart_is_direct name (r : Multistart.restart) (best, obj, evals) =
  Alcotest.(check (array int)) (name ^ ": wh") best.Problem.wh
    r.Multistart.solution.Problem.wh;
  Alcotest.(check (array int)) (name ^ ": wl") best.Problem.wl
    r.Multistart.solution.Problem.wl;
  Alcotest.(check int) (name ^ ": objective (exact)") 0
    (Lexico.compare obj r.Multistart.objective);
  Alcotest.(check int) (name ^ ": evaluations") evals r.Multistart.evaluations

let all_algos = [ Multistart.Str; Multistart.Dtr; Multistart.Anneal ]

let test_multistart_one_restart_is_direct () =
  let p = isp_problem () in
  List.iter
    (fun algo ->
      let name = Multistart.algo_name algo in
      let ms =
        Multistart.run ~restarts:1 ~algo (Prng.create 5) tiny_config p
      in
      let direct = direct_run p algo 5 in
      check_restart_is_direct name ms.Multistart.restarts.(0) direct;
      Alcotest.(check int) (name ^ ": report evaluations")
        ms.Multistart.restarts.(0).Multistart.evaluations
        ms.Multistart.evaluations)
    all_algos

let test_multistart_restart0_is_single_run () =
  let p = isp_problem () in
  List.iter
    (fun algo ->
      let name = Multistart.algo_name algo in
      let ms =
        Multistart.run ~jobs:2 ~restarts:3 ~algo (Prng.create 5) tiny_config p
      in
      check_restart_is_direct name ms.Multistart.restarts.(0)
        (direct_run p algo 5);
      Alcotest.(check bool) (name ^ ": winner no worse than restart 0") true
        (Lexico.compare ms.Multistart.objective
           ms.Multistart.restarts.(0).Multistart.objective
        <= 0))
    all_algos

(* ------------------------------------------------------------------ *)
(* Parallel failure sweep and experiment runner vs sequential *)

let test_failure_sweep_jobs_invariance () =
  let spec =
    {
      Scenario.topology = Scenario.Isp;
      fraction = 0.30;
      hp = Scenario.Random_density 0.10;
      seed = 5;
    }
  in
  let inst = Scenario.make spec in
  let rng = Prng.create 17 in
  let wh = Weights.random rng inst.Scenario.graph in
  let wl = Weights.random rng inst.Scenario.graph in
  let seq = Dtr_experiments.Failure.post_failure_costs inst ~wh ~wl in
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let par = Dtr_experiments.Failure.post_failure_costs ~pool inst ~wh ~wl in
  Alcotest.(check int) "same count" (Array.length seq) (Array.length par);
  Array.iter2
    (fun (a : Failure_sweep.outcome) (b : Failure_sweep.outcome) ->
      Alcotest.(check int) "same severed pairs" a.Failure_sweep.unreachable_pairs
        b.Failure_sweep.unreachable_pairs;
      Alcotest.(check int) "same cost (exact)" 0
        (Lexico.compare a.Failure_sweep.cost b.Failure_sweep.cost))
    seq par

let test_run_all_jobs_invariance () =
  (* fig1 is search-free, so the whole comparison stays cheap. *)
  let fig1 =
    match Dtr_experiments.Registry.find "fig1" with
    | Some e -> e
    | None -> Alcotest.fail "fig1 not registered"
  in
  let render results =
    List.concat_map
      (fun (e, tables) ->
        e.Dtr_experiments.Registry.name
        :: List.map Dtr_util.Table.to_string tables)
      results
  in
  let cfg = Search_config.quick in
  let seq =
    Dtr_experiments.Registry.run_all ~jobs:1 ~cfg ~seed:1 [ fig1; fig1 ]
  in
  let par =
    Dtr_experiments.Registry.run_all ~jobs:2 ~cfg ~seed:1 [ fig1; fig1 ]
  in
  Alcotest.(check (list string)) "identical rendering" (render seq) (render par)

(* ------------------------------------------------------------------ *)
(* Evaluation counters under concurrency *)

let test_counters_exact_across_domains () =
  let p = ring_problem () in
  let w = Weights.uniform p.Problem.graph 15 in
  let eval0 = Problem.evaluations () in
  let full0 = Problem.full_evaluations () in
  let n = 32 in
  ignore (Pool.run ~jobs:4 n ~f:(fun _ -> ignore (Problem.eval_str p ~w)));
  Alcotest.(check int) "global total is exact" n (Problem.evaluations () - eval0);
  Alcotest.(check int) "full total is exact" n
    (Problem.full_evaluations () - full0)

let test_report_evaluations_scheduling_independent () =
  (* Each task's report.evaluations comes from the domain-local
     counter, so running other searches concurrently on sibling domains
     must not leak into it. *)
  let p = ring_problem () in
  let counts jobs =
    Pool.run ~jobs 6 ~f:(fun i ->
        let r = Str_search.run (Prng.create (100 + i)) tiny_config p in
        r.Str_search.evaluations)
  in
  Alcotest.(check (array int)) "same per-report evals" (counts 1) (counts 3)

(* ------------------------------------------------------------------ *)
(* Scan engine: scan-jobs invariance and memoization accounting *)

let with_scan_jobs cfg scan_jobs = { cfg with Search_config.scan_jobs }

let test_str_scan_jobs_invariance () =
  List.iter
    (fun model ->
      let p = ring_problem ~model () in
      let run scan_jobs =
        Str_search.run (Prng.create 7) (with_scan_jobs tiny_config scan_jobs) p
      in
      let a = run 1 in
      let b = run 4 in
      Alcotest.(check int) "same objective (exact)" 0
        (Lexico.compare a.Str_search.objective b.Str_search.objective);
      Alcotest.(check (array int)) "same weights" a.Str_search.best.Problem.wh
        b.Str_search.best.Problem.wh;
      Alcotest.(check int) "same evaluations" a.Str_search.evaluations
        b.Str_search.evaluations;
      Alcotest.(check int) "same improvements" a.Str_search.improvements
        b.Str_search.improvements;
      Alcotest.(check int) "same memo hits" a.Str_search.memo_hits
        b.Str_search.memo_hits;
      Alcotest.(check int) "same memo misses" a.Str_search.memo_misses
        b.Str_search.memo_misses;
      Alcotest.(check int) "same archive size"
        (List.length a.Str_search.archive)
        (List.length b.Str_search.archive);
      List.iter2
        (fun (x : Str_search.archive_point) (y : Str_search.archive_point) ->
          Alcotest.(check bool) "same archive point" true
            (x.Str_search.phi_h = y.Str_search.phi_h
            && x.Str_search.phi_l = y.Str_search.phi_l
            && x.Str_search.w = y.Str_search.w))
        a.Str_search.archive b.Str_search.archive)
    [ Objective.Load; Objective.Sla Dtr_cost.Sla.default ]

let test_dtr_scan_jobs_invariance () =
  let p = ring_problem () in
  let run scan_jobs =
    Dtr_search.run (Prng.create 9) (with_scan_jobs tiny_config scan_jobs) p
  in
  let a = run 1 in
  let b = run 4 in
  Alcotest.(check int) "same objective (exact)" 0
    (Lexico.compare a.Dtr_search.objective b.Dtr_search.objective);
  Alcotest.(check (array int)) "same wh" a.Dtr_search.best.Problem.wh
    b.Dtr_search.best.Problem.wh;
  Alcotest.(check (array int)) "same wl" a.Dtr_search.best.Problem.wl
    b.Dtr_search.best.Problem.wl;
  Alcotest.(check int) "same evaluations" a.Dtr_search.evaluations
    b.Dtr_search.evaluations;
  Alcotest.(check int) "same improvements" a.Dtr_search.improvements
    b.Dtr_search.improvements;
  Alcotest.(check int) "same memo hits" a.Dtr_search.memo_hits
    b.Dtr_search.memo_hits;
  Alcotest.(check int) "same memo misses" a.Dtr_search.memo_misses
    b.Dtr_search.memo_misses;
  List.iter2
    (fun (pa, oa) (pb, ob) ->
      Alcotest.(check bool) "same phase" true (pa = pb);
      Alcotest.(check int) "same phase objective" 0 (Lexico.compare oa ob))
    a.Dtr_search.phase_objectives b.Dtr_search.phase_objectives

(* Engine-level memo accounting, exact to the evaluation: a scan of n
   fresh candidates counts n evaluations and n misses; rescanning the
   same neighborhood counts nothing and serves bitwise-equal summaries;
   committing the winner is uncounted; and after the commit only the
   one candidate that restores the (never-memoized) starting vector
   misses.  Identical at every jobs value — this also pins the
   parallel count-transfer scheme (per-task measurement rolled back
   and re-added on the calling domain). *)
let test_scan_memo_exact_counts () =
  List.iter
    (fun jobs ->
      let p = ring_problem () in
      let mid = (Weights.min_weight + Weights.max_weight) / 2 in
      let w0 = Weights.uniform p.Problem.graph mid in
      Scan.with_engine ~jobs p @@ fun scan ->
      let sol = Problem.eval_str p ~w:w0 in
      let ctx = Problem.ctx_of_solution p sol in
      let memo = Vmemo.create () in
      let candidates_excluding current =
        let acc = ref [] in
        for v = Weights.max_weight downto Weights.min_weight do
          if v <> current then acc := v :: !acc
        done;
        Array.of_list !acc
      in
      let vals = candidates_excluding w0.(0) in
      let n = Array.length vals in
      let changes_of i = [ (0, vals.(i)) ] in
      let e0 = Problem.domain_evaluations () in
      let s1 = Scan.evaluate scan ctx ~memo ~cls:`H ~changes_of n in
      Alcotest.(check int) "first scan: all misses" n (Vmemo.misses memo);
      Alcotest.(check int) "first scan: no hits" 0 (Vmemo.hits memo);
      Alcotest.(check int) "first scan: n counted evaluations" n
        (Problem.domain_evaluations () - e0);
      let s2 = Scan.evaluate scan ctx ~memo ~cls:`H ~changes_of n in
      Alcotest.(check int) "revisit: all hits" n (Vmemo.hits memo);
      Alcotest.(check int) "revisit: no new misses" n (Vmemo.misses memo);
      Alcotest.(check int) "revisit: zero new evaluations" n
        (Problem.domain_evaluations () - e0);
      Array.iteri
        (fun i (x : Scan.summary) ->
          let y = s2.(i) in
          Alcotest.(check bool) "cached summary bitwise-equal" true
            (Lexico.compare x.Scan.objective y.Scan.objective = 0
            && x.Scan.phi_h = y.Scan.phi_h
            && x.Scan.phi_l = y.Scan.phi_l))
        s1;
      let sol' = Scan.commit scan ctx ~cls:`H ~changes:(changes_of 0) in
      Alcotest.(check int) "commit is uncounted" n
        (Problem.domain_evaluations () - e0);
      Alcotest.(check int) "committed weight installed" vals.(0)
        sol'.Problem.wh.(0);
      let vals' = candidates_excluding vals.(0) in
      ignore
        (Scan.evaluate scan ctx ~memo ~cls:`H
           ~changes_of:(fun i -> [ (0, vals'.(i)) ])
           (Array.length vals'));
      Alcotest.(check int) "post-commit: one miss (the starting vector)"
        (n + 1) (Vmemo.misses memo);
      Alcotest.(check int) "post-commit: every other candidate hits"
        ((2 * n) - 1)
        (Vmemo.hits memo);
      Alcotest.(check int) "post-commit: one counted evaluation" (n + 1)
        (Problem.domain_evaluations () - e0))
    [ 1; 3 ]

(* ------------------------------------------------------------------ *)
(* Trace determinism: the event stream (not just the result) must be
   identical at every jobs/scan_jobs value once t_us is normalized. *)

module Trace = Dtr_core.Trace

let norm_event (e : Trace.event) = Trace.to_json { e with Trace.time_us = 0. }

let check_same_trace a b =
  Alcotest.(check (list string)) "same events (t_us normalized)"
    (List.map norm_event (Trace.events a))
    (List.map norm_event (Trace.events b))

let test_str_trace_scan_jobs_invariance () =
  List.iter
    (fun model ->
      let p = ring_problem ~model () in
      let run scan_jobs =
        let ring = Trace.ring () in
        ignore
          (Str_search.run ~trace:ring (Prng.create 7)
             (with_scan_jobs tiny_config scan_jobs) p);
        ring
      in
      let a = run 1 in
      Alcotest.(check bool) "trace not empty" true (Trace.length a > 0);
      check_same_trace a (run 4))
    [ Objective.Load; Objective.Sla Dtr_cost.Sla.default ]

let test_dtr_trace_scan_jobs_invariance () =
  let p = ring_problem () in
  let run scan_jobs =
    let ring = Trace.ring () in
    ignore
      (Dtr_search.run ~trace:ring (Prng.create 9)
         (with_scan_jobs tiny_config scan_jobs) p);
    ring
  in
  let a = run 1 in
  Alcotest.(check bool) "trace not empty" true (Trace.length a > 0);
  check_same_trace a (run 4)

let test_multistart_trace_jobs_invariance () =
  let p = ring_problem () in
  List.iter
    (fun algo ->
      let run jobs =
        let ring = Trace.ring () in
        ignore
          (Multistart.run ~jobs ~trace:ring ~restarts:3 ~algo (Prng.create 11)
             tiny_config p);
        ring
      in
      let a = run 1 in
      Alcotest.(check bool) "trace not empty" true (Trace.length a > 0);
      (* Worker-domain events must come back tagged with their restart
         and serialized in restart order. *)
      let restarts_seen =
        List.map (fun (e : Trace.event) -> e.Trace.restart) (Trace.events a)
      in
      Alcotest.(check bool) "restart order non-decreasing" true
        (List.for_all2 ( <= ) restarts_seen (List.tl restarts_seen @ [ 2 ]));
      check_same_trace a (run 2))
    [ Multistart.Str; Multistart.Dtr ]

let test_trace_disabled_noop () =
  Alcotest.(check bool) "disabled" false (Trace.enabled Trace.disabled);
  Trace.emit Trace.disabled ~kind:Trace.Str_scan ~iteration:0 ();
  Alcotest.(check int) "still empty" 0 (Trace.length Trace.disabled);
  Alcotest.(check (list string)) "no events" []
    (List.map norm_event (Trace.events Trace.disabled))

let test_trace_convergence_monotone () =
  let p = ring_problem () in
  let ring = Trace.ring () in
  let report = Str_search.run ~trace:ring (Prng.create 13) tiny_config p in
  let curve = Trace.convergence (Trace.events ring) in
  Alcotest.(check bool) "curve not empty" true (curve <> []);
  let rec check = function
    | (e1, o1) :: ((e2, o2) :: _ as rest) ->
        Alcotest.(check bool) "evaluations increase" true (e1 < e2);
        Alcotest.(check bool) "objective strictly improves" true (o2 < o1);
        check rest
    | _ -> ()
  in
  check curve;
  let _, last = List.nth curve (List.length curve - 1) in
  Alcotest.(check bool) "curve ends at the reported optimum" true
    (last = Trace.pair report.Str_search.objective)

let test_trace_ring_capacity () =
  let ring = Trace.ring ~capacity:4 () in
  for i = 0 to 9 do
    Trace.emit ring ~kind:Trace.Probe ~iteration:i ()
  done;
  let evs = Trace.events ring in
  Alcotest.(check int) "bounded" 4 (List.length evs);
  Alcotest.(check (list int)) "keeps the most recent" [ 6; 7; 8; 9 ]
    (List.map (fun (e : Trace.event) -> e.Trace.iteration) evs)

(* ------------------------------------------------------------------ *)
(* Anneal energy cache: evaluation count and trajectory *)

let light_schedule =
  {
    Anneal_search.t0_ratio = 0.05;
    cooling = 0.8;
    moves_per_temp = 5;
    t_min_ratio = 0.01;
  }

(* Temperature levels of one phase: scale-invariant in the initial
   energy (t_min is defined as a ratio of t0), so e0 = 1 reproduces the
   search's own loop. *)
let phase_temps s =
  let t = ref s.Anneal_search.t0_ratio in
  let t_min = !t *. s.Anneal_search.t_min_ratio in
  let n = ref 0 in
  while !t > t_min do
    incr n;
    t := !t *. s.Anneal_search.cooling
  done;
  !n

let test_anneal_one_eval_per_move () =
  let p = ring_problem () in
  let eval0 = Problem.evaluations () in
  let report =
    Anneal_search.run ~schedule:light_schedule (Prng.create 21) tiny_config p
  in
  let spent = Problem.evaluations () - eval0 in
  (* 1 initial eval_dtr + 1 re-evaluation between phases + exactly one
     eval_delta probe per proposed move: with the incumbent's energy
     cached, nothing else evaluates. *)
  let temps = phase_temps light_schedule in
  let expected =
    2 + (2 * temps * light_schedule.Anneal_search.moves_per_temp)
  in
  Alcotest.(check int) "one evaluation per proposed move" expected spent;
  Alcotest.(check int) "report agrees with global counter" expected
    report.Anneal_search.evaluations

let test_anneal_deterministic () =
  let p = ring_problem () in
  let run () =
    Anneal_search.run ~schedule:light_schedule (Prng.create 22) tiny_config p
  in
  let a = run () in
  let b = run () in
  Alcotest.(check int) "same objective (exact)" 0
    (Lexico.compare a.Anneal_search.objective b.Anneal_search.objective);
  Alcotest.(check int) "same accepted count" a.Anneal_search.accepted
    b.Anneal_search.accepted;
  Alcotest.(check (array int)) "same wh" a.Anneal_search.best.Problem.wh
    b.Anneal_search.best.Problem.wh

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "ordered results" `Quick test_pool_ordering;
          Alcotest.test_case "empty and singleton" `Quick
            test_pool_empty_and_single;
          Alcotest.test_case "lowest-index exception" `Quick
            test_pool_exception_lowest_index;
          Alcotest.test_case "reuse across batches" `Quick test_pool_reuse;
          Alcotest.test_case "lifecycle" `Quick test_pool_lifecycle;
        ] );
      ( "multistart",
        [
          Alcotest.test_case "jobs-invariant results" `Slow
            test_multistart_jobs_invariance;
          Alcotest.test_case "picks the best restart" `Quick
            test_multistart_picks_best;
          Alcotest.test_case "one restart is the direct search" `Quick
            test_multistart_one_restart_is_direct;
          Alcotest.test_case "restart 0 is the single run" `Quick
            test_multistart_restart0_is_single_run;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "failure sweep jobs-invariant" `Slow
            test_failure_sweep_jobs_invariance;
          Alcotest.test_case "run_all jobs-invariant" `Quick
            test_run_all_jobs_invariance;
        ] );
      ( "counters",
        [
          Alcotest.test_case "atomic totals exact" `Quick
            test_counters_exact_across_domains;
          Alcotest.test_case "per-report counts scheduling-independent" `Slow
            test_report_evaluations_scheduling_independent;
        ] );
      ( "scan",
        [
          Alcotest.test_case "str scan-jobs invariant" `Slow
            test_str_scan_jobs_invariance;
          Alcotest.test_case "dtr scan-jobs invariant" `Slow
            test_dtr_scan_jobs_invariance;
          Alcotest.test_case "memo exact counts" `Quick
            test_scan_memo_exact_counts;
        ] );
      ( "anneal",
        [
          Alcotest.test_case "one eval per proposed move" `Quick
            test_anneal_one_eval_per_move;
          Alcotest.test_case "deterministic with energy cache" `Quick
            test_anneal_deterministic;
        ] );
      ( "trace",
        [
          Alcotest.test_case "str trace scan-jobs invariant" `Slow
            test_str_trace_scan_jobs_invariance;
          Alcotest.test_case "dtr trace scan-jobs invariant" `Slow
            test_dtr_trace_scan_jobs_invariance;
          Alcotest.test_case "multistart trace jobs invariant" `Slow
            test_multistart_trace_jobs_invariance;
          Alcotest.test_case "disabled sink is a no-op" `Quick
            test_trace_disabled_noop;
          Alcotest.test_case "convergence curve monotone" `Quick
            test_trace_convergence_monotone;
          Alcotest.test_case "bounded ring keeps latest" `Quick
            test_trace_ring_capacity;
        ] );
    ]
