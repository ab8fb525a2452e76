(* Correctness gate: every check compares a fast path with a
   from-scratch specification, bit for bit.  A mismatch or an
   exception counts as one failed check; the first failure is named. *)

module Lexico = Dtr_cost.Lexico
module Problem = Dtr_core.Problem
module Eval_ctx = Dtr_routing.Eval_ctx
module Failure_sweep = Dtr_routing.Failure_sweep
module Scenario = Dtr_experiments.Scenario

type t = { mutable attempted : int; mutable failed : int; mutable first : string option }

let create () = { attempted = 0; failed = 0; first = None }

let fail g what =
  g.failed <- g.failed + 1;
  if g.first = None then g.first <- Some what

let check g name f =
  g.attempted <- g.attempted + 1;
  match f () with
  | true -> ()
  | false -> fail g (name ^ ": mismatch")
  | exception e -> fail g (name ^ ": " ^ Printexc.to_string e)

(* [f ()], or [None] after counting its exception as a failed check. *)
let guard g name f =
  match f () with
  | x -> Some x
  | exception e ->
      g.attempted <- g.attempted + 1;
      fail g (name ^ ": " ^ Printexc.to_string e);
      None

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_lexico (a : Lexico.t) (b : Lexico.t) =
  same_float a.Lexico.primary b.Lexico.primary
  && same_float a.Lexico.secondary b.Lexico.secondary

let same_floats a b =
  Array.length a = Array.length b && Array.for_all2 same_float a b

(* The objective a search reports for [sol]: the normal cost, or in
   robust mode J = normal + alpha * penalty. *)
let reported_objective (w : Workload.t) problem (sol : Problem.solution) =
  let normal = Problem.objective sol in
  match w.Workload.cfg.Dtr_core.Search_config.robust with
  | None -> normal
  | Some r ->
      let ctx = Problem.ctx_of_solution problem sol in
      (Problem.robust_price problem ctx ~alpha:r.Dtr_core.Search_config.alpha
         ~top_k:r.Dtr_core.Search_config.top_k ~normal)
        .Problem.rp_objective

(* Re-evaluate both searches' returned weights on a fresh problem. *)
let searches g (w : Workload.t) (s : Workload.setup) (p : Workload.pass) =
  let fresh () = Scenario.problem s.Workload.inst ~model:w.Workload.model in
  check g (w.Workload.name ^ " STR result vs from-scratch evaluation")
    (fun () ->
      let problem = fresh () in
      let best = p.Workload.str.Dtr_core.Str_search.best in
      let sol = Problem.eval_str problem ~w:best.Problem.wh in
      same_lexico
        (reported_objective w problem sol)
        p.Workload.str.Dtr_core.Str_search.objective);
  check g (w.Workload.name ^ " DTR result vs from-scratch evaluation")
    (fun () ->
      let problem = fresh () in
      let best = p.Workload.dtr.Dtr_core.Dtr_search.best in
      let sol =
        Problem.eval_dtr problem ~wh:best.Problem.wh ~wl:best.Problem.wl
      in
      same_lexico
        (reported_objective w problem sol)
        p.Workload.dtr.Dtr_core.Dtr_search.objective)

(* Weight vectors of [ctx] with [(arc, v)] applied to [klass]'s
   vector, keeping classes that share a vector physically shared. *)
let changed_weights ctx ~klass ~arc ~v =
  let k = Eval_ctx.class_count ctx in
  let ws = Array.init k (fun c -> Eval_ctx.weights_view ctx c) in
  let moved = Array.copy ws.(klass) in
  moved.(arc) <- v;
  Array.init k (fun c ->
      if c = klass || Eval_ctx.shares_group ctx c klass then moved else ws.(c))

(* A probe's objective vector against a context built from scratch on
   the changed weights. *)
let probe g ~name ~dest_mode ~matrices ctx ~klass ~arc ~v =
  check g name (fun () ->
      let pr = Eval_ctx.probe ctx ~klass ~changes:[ (arc, v) ] in
      let got = Eval_ctx.probe_phi pr in
      Eval_ctx.abort ctx pr;
      let fresh =
        Eval_ctx.create ~dest_mode (Eval_ctx.graph ctx)
          ~weights:(changed_weights ctx ~klass ~arc ~v)
          ~matrices
      in
      same_floats got (Eval_ctx.phi fresh))

(* The delta failure sweep against the reduced-graph oracle. *)
let failures g ~name ~model (s : Workload.setup) ~wh ~wl =
  check g name (fun () ->
      let inst = s.Workload.inst in
      let th = inst.Scenario.th and tl = inst.Scenario.tl in
      let ctx =
        Eval_ctx.create
          ~dest_mode:s.Workload.problem.Problem.dest_mode inst.Scenario.graph
          ~weights:[| wh; wl |] ~matrices:[| th; tl |]
      in
      let fast = Failure_sweep.sweep ~model ~th ctx in
      let slow =
        Failure_sweep.oracle_sweep ~model inst.Scenario.graph ~wh ~wl ~th ~tl
      in
      Array.length fast = Array.length slow
      && Array.for_all2
           (fun (a : Failure_sweep.outcome) (b : Failure_sweep.outcome) ->
             same_lexico a.Failure_sweep.cost b.Failure_sweep.cost
             && a.Failure_sweep.unreachable_pairs
                = b.Failure_sweep.unreachable_pairs)
           fast slow)
