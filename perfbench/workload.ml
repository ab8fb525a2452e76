(* The benchmark's workloads: each is a scenario derived from a seed
   plus a fixed-iteration STR and DTR search on it.

   Every search is a closed loop with one client (the search itself)
   and runs to a fixed iteration cap, never to a wall-clock budget, so
   a faster program does exactly the same work.  One domain: scan_jobs
   = 1 and no pool. *)

module Prng = Dtr_util.Prng
module Lexico = Dtr_cost.Lexico
module Problem = Dtr_core.Problem
module Search_config = Dtr_core.Search_config
module Str_search = Dtr_core.Str_search
module Dtr_search = Dtr_core.Dtr_search
module Scenario = Dtr_experiments.Scenario
module Objective = Dtr_routing.Objective
module Weights = Dtr_routing.Weights

type t = {
  name : string;
  topology : Scenario.topology_kind;
  model : Objective.model;
  cfg : Search_config.t;
  pass_s : float;
      (** nominal seconds of one pass (set-ups, STR, DTR, gate) on the
          machine the benchmark was written on; fixes how many passes a
          run makes *)
  setup_reps : int;  (** set-ups timed per pass *)
  why : string;
}

let util = 0.6

let spec w ~seed =
  {
    Scenario.topology = w.topology;
    fraction = 0.30;
    hp = Scenario.Random_density 0.10;
    seed;
  }

(* The CLI's quick preset with its iteration budgets scaled down, on
   one domain. *)
let quick_scaled f =
  { (Search_config.scale Search_config.quick f) with Search_config.scan_jobs = 1 }

let all =
  [
    {
      name = "rand50-load";
      topology = Scenario.Random_topo;
      model = Objective.Load;
      cfg = quick_scaled 0.25;
      pass_s = 0.9;
      setup_reps = 10;
      why =
        "many cheap probes: per-probe overheads (scan dispatch, memo, \
         ranking, Phi fold) dominate";
    };
    {
      name = "rand50-sla";
      topology = Scenario.Random_topo;
      model = Objective.Sla Dtr_cost.Sla.default;
      cfg = quick_scaled 0.0625;
      pass_s = 0.9;
      setup_reps = 10;
      why =
        "SLA objective: H probes fall back to full evaluation, so \
         Problem's full path, Spf and the delay/Lambda walk dominate";
    };
    {
      name = "isp-robust";
      topology = Scenario.Isp;
      model = Objective.Load;
      cfg =
        {
          (quick_scaled 0.125) with
          Search_config.robust = Some { Search_config.alpha = 0.5; top_k = 1 };
        };
      pass_s = 0.45;
      setup_reps = 20;
      why =
        "16-node ISP backbone, single-link robust mode: the only workload \
         running Failure_sweep and Eval_ctx.fail_probe";
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Passes per untraced run and untraced/traced pass pairs per traced
   run: a fixed function of the workload and [--seconds], never of the
   measured speed. *)
let passes w ~seconds = max 5 (int_of_float (seconds /. w.pass_s))

let trace_rounds w ~seconds = max 2 (int_of_float (seconds /. (4. *. w.pass_s)))

(* ------------------------------------------------------------------ *)
(* Set-up: scenario generation, utilization scaling, Problem.create and
   the first full evaluation of the start point. *)

type setup = {
  inst : Scenario.instance;
  problem : Problem.t;
  wh0 : int array;
  wl0 : int array;
  str_rng : Prng.t;
  dtr_rng : Prng.t;
}

let setup w ~seed =
  let inst = Scenario.make (spec w ~seed) in
  let inst = Scenario.scale_to_utilization inst ~target:util in
  let problem = Scenario.problem inst ~model:w.model in
  (* Compare.run_point's derivation, as [dtr optimize --seed SEED]. *)
  let root = Prng.create (seed + (seed * 7919)) in
  let str_rng = Prng.split root in
  let dtr_rng = Prng.split root in
  (* The searches' own default start: mid-range uniform weights. *)
  let g = inst.Scenario.graph in
  let mid = (Weights.min_weight + Weights.max_weight) / 2 in
  let wh0 = Weights.uniform g mid and wl0 = Weights.uniform g mid in
  ignore (Problem.eval_dtr problem ~wh:wh0 ~wl:wl0);
  { inst; problem; wh0; wl0; str_rng; dtr_rng }

(* ------------------------------------------------------------------ *)
(* One measured STR + DTR pass.  The rngs are copied so repeated passes
   on one set-up replay the same trajectories. *)

type pass = {
  str : Str_search.report;
  dtr : Dtr_search.report;
  str_s : float;
  dtr_s : float;
  dtr_ttq_s : float;
}

let within_1pct x final = x <= final +. (0.01 *. Float.abs final)

let search w s =
  let t0 = Unix.gettimeofday () in
  let str =
    Str_search.run ~w0:s.wh0 (Prng.copy s.str_rng) w.cfg s.problem
  in
  let t1 = Unix.gettimeofday () in
  (* Incumbent history, newest first: (seconds since DTR start, normal
     objective).  The time-to-quality is read from it once the final
     objective is known. *)
  let hist = ref [] in
  let on_progress (p : Dtr_search.progress) =
    hist := (Unix.gettimeofday () -. t1, p.Dtr_search.best_objective) :: !hist
  in
  let dtr =
    Dtr_search.run ~w0:(s.wh0, s.wl0) ~on_progress (Prng.copy s.dtr_rng) w.cfg
      s.problem
  in
  let t2 = Unix.gettimeofday () in
  let final = Problem.objective dtr.Dtr_search.best in
  (* Earliest time from which the incumbent stayed within 1 % of the
     final objective on both components. *)
  let rec settle acc = function
    | (t, (o : Lexico.t)) :: older
      when within_1pct o.Lexico.primary final.Lexico.primary
           && within_1pct o.Lexico.secondary final.Lexico.secondary ->
        settle t older
    | _ -> acc
  in
  {
    str;
    dtr;
    str_s = t1 -. t0;
    dtr_s = t2 -. t1;
    dtr_ttq_s = settle (t2 -. t1) !hist;
  }
