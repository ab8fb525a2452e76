(* Property tests for the incremental evaluation engine: Spf_delta
   against from-scratch SPF, Eval_ctx probes/commits/aborts against
   from-scratch Multi/Evaluate, and the Problem-level ctx API against
   eval_str/eval_dtr and, independently, Objective.evaluate — on random
   topologies under random single-weight change sequences, to 1e-12
   (the engine is in fact built to be bitwise-identical) — and loads
   against an independent ECMP oracle. *)

module Prng = Dtr_util.Prng
module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Spf_delta = Dtr_graph.Spf_delta
module Matrix = Dtr_traffic.Matrix
module Gravity = Dtr_traffic.Gravity
module Highpri = Dtr_traffic.Highpri
module Weights = Dtr_routing.Weights
module Loads = Dtr_routing.Loads
module Evaluate = Dtr_routing.Evaluate
module Eval_ctx = Dtr_routing.Eval_ctx
module Multi = Dtr_routing.Multi
module Objective = Dtr_routing.Objective
module Lexico = Dtr_cost.Lexico
module Problem = Dtr_core.Problem

(* The engine is designed to be bitwise-reproducible (same summation
   order, re-folded totals), so the comparison tolerance is zero. *)
let eps = 0.

(* ------------------------------------------------------------------ *)
(* Random fixtures *)

(* Strongly connected random topology: Waxman and power-law families
   alternate with the degree-balanced random generator (all three emit
   symmetric arcs, so connected implies strongly connected). *)
let random_graph seed =
  let rec go attempt =
    let rng = Prng.create (seed + (1000 * attempt)) in
    let g =
      match (seed + attempt) mod 3 with
      | 0 ->
          Dtr_topology.Waxman.generate rng
            { Dtr_topology.Waxman.default with nodes = 14 }
      | 1 ->
          Dtr_topology.Power_law.generate rng
            { Dtr_topology.Power_law.default with nodes = 14; m0 = 4; m = 2 }
      | _ ->
          Dtr_topology.Random_topo.generate rng
            { Dtr_topology.Random_topo.default with nodes = 14; links = 28 }
    in
    if Graph.is_strongly_connected g then g
    else if attempt > 50 then Alcotest.fail "no connected topology found"
    else go (attempt + 1)
  in
  go 0

let random_matrices rng g =
  let n = Graph.node_count g in
  let tl = Gravity.generate rng ~n Gravity.default in
  let pairs = Highpri.random_pairs rng ~n ~density:0.2 in
  let th = Highpri.volumes rng ~low:tl ~fraction:0.3 ~pairs in
  (th, tl)

let random_change rng w =
  let arc = Prng.int rng (Array.length w) in
  let v = ref (Prng.int_incl rng Weights.min_weight Weights.max_weight) in
  while !v = w.(arc) do
    v := Prng.int_incl rng Weights.min_weight Weights.max_weight
  done;
  (arc, !v)

(* ------------------------------------------------------------------ *)
(* Structural dag comparison *)

let check_dag_equal ~what expected actual =
  Alcotest.(check int) (what ^ ": dst") expected.Spf.dst actual.Spf.dst;
  Alcotest.(check (array int)) (what ^ ": dist") expected.Spf.dist actual.Spf.dist;
  Alcotest.(check (array int))
    (what ^ ": order") expected.Spf.order_desc actual.Spf.order_desc;
  Array.iteri
    (fun v exp ->
      Alcotest.(check (array int))
        (Printf.sprintf "%s: next_arcs(%d)" what v)
        exp actual.Spf.next_arcs.(v))
    expected.Spf.next_arcs

(* ------------------------------------------------------------------ *)
(* Spf_delta vs from-scratch SPF *)

let spf_delta_matches_scratch seed =
  let g = random_graph seed in
  let rng = Prng.create (seed * 7 + 1) in
  let w = Weights.random rng g in
  let dags = ref (Spf.all_destinations g ~weights:w) in
  let ws = Spf_delta.workspace () in
  for step = 1 to 8 do
    let arc, v = random_change rng w in
    let before = w.(arc) in
    w.(arc) <- v;
    let next, dirty =
      Spf_delta.update ~ws g ~weights:w ~prev:!dags
        ~changes:[ { Spf_delta.arc; before; after = v } ]
    in
    let scratch = Spf.all_destinations g ~weights:w in
    Array.iteri
      (fun t expected ->
        check_dag_equal ~what:(Printf.sprintf "seed %d step %d dst %d" seed step t)
          expected next.(t))
      scratch;
    (* Non-dirty destinations must be the previous dags, shared. *)
    Array.iteri
      (fun t dag ->
        if not (List.mem t dirty) then
          Alcotest.(check bool)
            (Printf.sprintf "clean dst %d shared" t)
            true
            (dag == !dags.(t)))
      next;
    dags := next
  done;
  true

let test_spf_delta_property () =
  QCheck.Test.make ~name:"Spf_delta.update = from-scratch SPF" ~count:15
    QCheck.(int_range 0 10_000)
    spf_delta_matches_scratch

(* Two simultaneous changes (the FindH/FindL two-arc move). *)
let spf_delta_two_changes seed =
  let g = random_graph seed in
  let rng = Prng.create (seed * 11 + 3) in
  let w = Weights.random rng g in
  let dags = Spf.all_destinations g ~weights:w in
  let a1, v1 = random_change rng w in
  let a2 = ref (fst (random_change rng w)) in
  while !a2 = a1 do
    a2 := fst (random_change rng w)
  done;
  let a2 = !a2 in
  let v2 =
    let v = ref (Prng.int_incl rng Weights.min_weight Weights.max_weight) in
    while !v = w.(a2) do
      v := Prng.int_incl rng Weights.min_weight Weights.max_weight
    done;
    !v
  in
  let b1 = w.(a1) and b2 = w.(a2) in
  w.(a1) <- v1;
  w.(a2) <- v2;
  let next, _dirty =
    Spf_delta.update g ~weights:w ~prev:dags
      ~changes:
        [
          { Spf_delta.arc = a1; before = b1; after = v1 };
          { Spf_delta.arc = a2; before = b2; after = v2 };
        ]
  in
  let scratch = Spf.all_destinations g ~weights:w in
  Array.iteri
    (fun t expected ->
      check_dag_equal ~what:(Printf.sprintf "2ch seed %d dst %d" seed t) expected
        next.(t))
    scratch;
  true

let test_spf_delta_two_changes () =
  QCheck.Test.make ~name:"Spf_delta.update handles two-arc moves" ~count:15
    QCheck.(int_range 0 10_000)
    spf_delta_two_changes

(* ------------------------------------------------------------------ *)
(* Loads helper *)

let test_destination_loads_sum () =
  let g = random_graph 42 in
  let rng = Prng.create 5 in
  let th, _ = random_matrices rng g in
  let w = Weights.random rng g in
  let dags = Spf.all_destinations g ~weights:w in
  let full = Loads.of_matrix g ~dags th in
  let n = Graph.node_count g in
  let m = Graph.arc_count g in
  let sum = Array.make m 0. in
  for t = 0 to n - 1 do
    match Loads.destination_demand ~dag:dags.(t) th with
    | None -> ()
    | Some demand ->
        let c = Loads.destination_loads g ~dag:dags.(t) ~demand_to_dst:demand in
        for a = 0 to m - 1 do
          sum.(a) <- sum.(a) +. c.(a)
        done
  done;
  Alcotest.(check bool) "per-destination subtotals recombine exactly" true
    (full = sum)

(* ------------------------------------------------------------------ *)
(* Eval_ctx vs from-scratch Multi/Evaluate *)

let check_arr ~what a b =
  Array.iteri
    (fun i x ->
      if Float.abs (x -. b.(i)) > eps then
        Alcotest.failf "%s: index %d: %.17g vs %.17g" what i x b.(i))
    a

let eval_ctx_matches_scratch seed =
  let g = random_graph seed in
  let rng = Prng.create (seed * 13 + 7) in
  let th, tl = random_matrices rng g in
  let wh = Weights.random rng g in
  let wl = Weights.random rng g in
  let ctx = Eval_ctx.create g ~weights:[| wh; wl |] ~matrices:[| th; tl |] in
  for _step = 1 to 6 do
    let klass = Prng.int rng 2 in
    let w = Eval_ctx.weights ctx klass in
    let arc, v = random_change rng w in
    let pr = Eval_ctx.probe ctx ~klass ~changes:[ (arc, v) ] in
    (* From-scratch evaluation of the candidate. *)
    let cand_w = Array.copy w in
    cand_w.(arc) <- v;
    let weights' =
      if klass = 0 then [| cand_w; Eval_ctx.weights ctx 1 |]
      else [| Eval_ctx.weights ctx 0; cand_w |]
    in
    let scratch = Multi.evaluate g ~weights:weights' ~matrices:[| th; tl |] in
    check_arr ~what:"probe phi" (Eval_ctx.probe_phi pr) scratch.Multi.phi;
    (* Abort path: the context must still match its own base state. *)
    Eval_ctx.abort ctx pr;
    let base =
      Multi.evaluate g
        ~weights:[| Eval_ctx.weights ctx 0; Eval_ctx.weights ctx 1 |]
        ~matrices:[| th; tl |]
    in
    check_arr ~what:"phi after abort" (Eval_ctx.phi ctx) base.Multi.phi;
    (* Commit path: re-probe (aborting loses nothing) and install. *)
    let pr = Eval_ctx.probe ctx ~klass ~changes:[ (arc, v) ] in
    Eval_ctx.commit ctx pr;
    let ev = Eval_ctx.to_evaluate ctx in
    check_arr ~what:"committed h_loads" ev.Evaluate.h_loads scratch.Multi.loads.(0);
    check_arr ~what:"committed l_loads" ev.Evaluate.l_loads scratch.Multi.loads.(1);
    check_arr ~what:"committed residual" ev.Evaluate.residual
      scratch.Multi.capacity_seen.(1);
    check_arr ~what:"committed phi_h_per_arc" ev.Evaluate.phi_h_per_arc
      scratch.Multi.phi_per_arc.(0);
    check_arr ~what:"committed phi_l_per_arc" ev.Evaluate.phi_l_per_arc
      scratch.Multi.phi_per_arc.(1);
    if Float.abs (ev.Evaluate.phi_h -. scratch.Multi.phi.(0)) > eps then
      Alcotest.fail "phi_h drifted";
    if Float.abs (ev.Evaluate.phi_l -. scratch.Multi.phi.(1)) > eps then
      Alcotest.fail "phi_l drifted"
  done;
  true

let test_eval_ctx_property () =
  QCheck.Test.make ~name:"Eval_ctx probe/commit/abort = from-scratch" ~count:12
    QCheck.(int_range 0 10_000)
    eval_ctx_matches_scratch

(* Shared-vector (STR) context: one change moves every class. *)
let eval_ctx_shared_matches seed =
  let g = random_graph seed in
  let rng = Prng.create (seed * 17 + 5) in
  let th, tl = random_matrices rng g in
  let w = Weights.random rng g in
  let ctx = Eval_ctx.create g ~weights:[| w; w |] ~matrices:[| th; tl |] in
  Alcotest.(check bool) "classes alias" true (Eval_ctx.shares_group ctx 0 1);
  let arc, v = random_change rng w in
  let pr = Eval_ctx.probe ctx ~klass:0 ~changes:[ (arc, v) ] in
  let cand = Array.copy w in
  cand.(arc) <- v;
  let scratch = Multi.evaluate g ~weights:[| cand; cand |] ~matrices:[| th; tl |] in
  check_arr ~what:"shared probe phi" (Eval_ctx.probe_phi pr) scratch.Multi.phi;
  Eval_ctx.commit ctx pr;
  check_arr ~what:"shared committed phi" (Eval_ctx.phi ctx) scratch.Multi.phi;
  check_arr ~what:"shared l weights"
    (Array.map float_of_int (Eval_ctx.weights ctx 1))
    (Array.map float_of_int cand);
  true

let test_eval_ctx_shared () =
  QCheck.Test.make ~name:"Eval_ctx shared-vector probes move all classes"
    ~count:10
    QCheck.(int_range 0 10_000)
    eval_ctx_shared_matches

(* Three classes exercise the full residual cascade. *)
let eval_ctx_three_classes seed =
  let g = random_graph seed in
  let rng = Prng.create (seed * 19 + 11) in
  let n = Graph.node_count g in
  let matrices =
    Array.init 3 (fun _ -> Gravity.generate rng ~n Gravity.default)
  in
  let weights = Array.init 3 (fun _ -> Weights.random rng g) in
  let ctx = Eval_ctx.create g ~weights ~matrices in
  let klass = Prng.int rng 3 in
  let w = Eval_ctx.weights ctx klass in
  let arc, v = random_change rng w in
  let pr = Eval_ctx.probe ctx ~klass ~changes:[ (arc, v) ] in
  let weights' = Array.init 3 (Eval_ctx.weights ctx) in
  weights'.(klass).(arc) <- v;
  let scratch = Multi.evaluate g ~weights:weights' ~matrices in
  check_arr ~what:"3-class probe phi" (Eval_ctx.probe_phi pr) scratch.Multi.phi;
  Eval_ctx.commit ctx pr;
  let multi = Eval_ctx.to_multi ctx in
  for k = 0 to 2 do
    check_arr
      ~what:(Printf.sprintf "3-class loads %d" k)
      multi.Multi.loads.(k) scratch.Multi.loads.(k);
    check_arr
      ~what:(Printf.sprintf "3-class capacity %d" k)
      multi.Multi.capacity_seen.(k)
      scratch.Multi.capacity_seen.(k)
  done;
  true

let test_eval_ctx_three_classes () =
  QCheck.Test.make ~name:"Eval_ctx 3-class residual cascade" ~count:10
    QCheck.(int_range 0 10_000)
    eval_ctx_three_classes

(* ------------------------------------------------------------------ *)
(* Problem-level delta API vs eval_str / eval_dtr *)

let check_lex ~what a b =
  if Lexico.compare a b <> 0 then
    Alcotest.failf "%s: ⟨%.17g, %.17g⟩ vs ⟨%.17g, %.17g⟩" what
      a.Lexico.primary a.Lexico.secondary b.Lexico.primary b.Lexico.secondary

(* Single-arc changes alternate with multi-arc ones — a diversification
   step's [Weights.perturb] — so change lists of every length reach the
   probe path. *)
let random_changes rng ~step w =
  if step mod 2 = 0 then [ random_change rng w ]
  else Problem.weight_changes w (Weights.perturb rng ~fraction:0.25 w)

let apply_changes w changes =
  let w' = Array.copy w in
  List.iter (fun (a, v) -> w'.(a) <- v) changes;
  w'

(* A committed context ranks arcs exactly as a fresh context of its
   solution does: under the SLA model the H ranking reads the delay
   row the commit installed, so this pins the installed record. *)
let check_arc_order ~what problem ctx sol =
  let fresh = Problem.ctx_of_solution problem sol in
  let m = Graph.arc_count problem.Problem.graph in
  List.iter
    (fun (name, cmp) ->
      let live = cmp problem ctx and scratch = cmp problem fresh in
      for a = 0 to m - 1 do
        for b = 0 to m - 1 do
          if compare (live a b) 0 <> compare (scratch a b) 0 then
            Alcotest.failf "%s: %s orders arcs %d, %d differently" what name a
              b
        done
      done)
    [ ("ctx_arc_cmp_h", Problem.ctx_arc_cmp_h); ("ctx_arc_cmp_l", Problem.ctx_arc_cmp_l) ]

(* The independent anchor: [Problem]'s from-scratch evaluations run on
   the same engine as its probes, so "probe = from scratch" alone would
   compare the engine with itself.  Every from-scratch side and every
   committed context's live view is also compared, bit for bit, with
   Objective.evaluate — its own SPF sweep, Loads.of_matrix projection
   and Evaluate.assemble. *)
let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let lex_bits (x : Lexico.t) = [| x.Lexico.primary; x.Lexico.secondary |]

(* Two views agree bit for bit: objective, per-arc rows, Φ totals and
   the Λ record. *)
let check_view ~what (r : Objective.result) (o : Objective.result) =
  let a = r.Objective.eval and b = o.Objective.eval in
  List.iter
    (fun (name, x, y) ->
      if not (same_bits x y) then Alcotest.failf "%s: %s differs" what name)
    [
      ("objective", lex_bits r.Objective.objective, lex_bits o.Objective.objective);
      ("h_loads", a.Evaluate.h_loads, b.Evaluate.h_loads);
      ("l_loads", a.Evaluate.l_loads, b.Evaluate.l_loads);
      ("residual", a.Evaluate.residual, b.Evaluate.residual);
      ("phi_h_per_arc", a.Evaluate.phi_h_per_arc, b.Evaluate.phi_h_per_arc);
      ("phi_l_per_arc", a.Evaluate.phi_l_per_arc, b.Evaluate.phi_l_per_arc);
      ("phi", [| a.Evaluate.phi_h; a.Evaluate.phi_l |],
        [| b.Evaluate.phi_h; b.Evaluate.phi_l |]);
    ];
  match (r.Objective.sla, o.Objective.sla) with
  | None, None -> ()
  | Some x, Some y ->
      let delays l = Array.of_list (List.map (fun (_, _, d) -> d) l) in
      let pairs l = List.map (fun (src, dst, _) -> (src, dst)) l in
      if
        not
          (same_bits x.Evaluate.arc_delay y.Evaluate.arc_delay
          && pairs x.Evaluate.pair_delays = pairs y.Evaluate.pair_delays
          && same_bits (delays x.Evaluate.pair_delays)
               (delays y.Evaluate.pair_delays)
          && same_bits
               [| x.Evaluate.lambda; x.Evaluate.worst_delay |]
               [| y.Evaluate.lambda; y.Evaluate.worst_delay |]
          && x.Evaluate.violations = y.Evaluate.violations
          && x.Evaluate.unreachable = y.Evaluate.unreachable)
      then Alcotest.failf "%s: SLA record differs" what
  | _ -> Alcotest.failf "%s: SLA record present on one side only" what

(* [view] is the view of a context evaluating [s]'s weights. *)
let check_oracle ~what problem (s : Problem.solution) view =
  let o =
    Objective.evaluate problem.Problem.model problem.Problem.graph
      ~wh:s.Problem.wh ~wl:s.Problem.wl ~th:problem.Problem.th
      ~tl:problem.Problem.tl
  in
  if not (same_bits (lex_bits (Problem.objective s)) (lex_bits o.Objective.objective))
  then Alcotest.failf "%s: objective differs from Objective.evaluate" what;
  check_view ~what:(what ^ " vs Objective.evaluate") view o

(* A from-scratch solution's view: a fresh context of its weights (a
   shared [wh == wl] is an STR context, as in [eval_str]). *)
let fresh_view problem (s : Problem.solution) =
  Problem.ctx_result problem
    (Problem.ctx_of_weights problem ~wh:s.Problem.wh ~wl:s.Problem.wl)

(* After a commit: the live context's view matches the oracle, and a
   context re-pointed at the committed solution's DAG snapshot
   ([ctx_of_solution]) has that view bit for bit — loads, residual, Φ
   rows and the Λ record rebuilt from scratch. *)
let check_committed ~what problem ctx (committed : Problem.solution) =
  let live = Problem.ctx_result problem ctx in
  check_oracle ~what problem committed live;
  check_view ~what:(what ^ " re-pointed") live
    (Problem.ctx_result problem (Problem.ctx_of_solution problem committed))

let problem_delta_matches seed =
  let g = random_graph seed in
  let rng = Prng.create (seed * 23 + 9) in
  let th, tl = random_matrices rng g in
  List.iter
    (fun (model, dest_mode) ->
      let problem =
        { (Problem.create ~graph:g ~th ~tl ~model) with Problem.dest_mode }
      in
      (* STR context. *)
      let w0 = Weights.random rng g in
      let sol = ref (Problem.eval_str problem ~w:w0) in
      check_oracle ~what:"STR start" problem !sol (fresh_view problem !sol);
      let ctx = Problem.ctx_of_solution problem !sol in
      for step = 1 to 4 do
        let w = !sol.Problem.wh in
        let changes = random_changes rng ~step w in
        let d = Problem.eval_delta problem ctx ~cls:`H ~changes in
        let scratch = Problem.eval_str problem ~w:(apply_changes w changes) in
        check_oracle ~what:"STR scratch" problem scratch
          (fresh_view problem scratch);
        check_lex ~what:"STR probe objective" (Problem.delta_objective d)
          (Problem.objective scratch);
        (* Reject path: context still evaluates the base exactly. *)
        Problem.abort_delta ctx d;
        let again = Problem.eval_delta problem ctx ~cls:`H ~changes in
        check_lex ~what:"STR probe after abort" (Problem.delta_objective again)
          (Problem.objective scratch);
        check_lex ~what:"STR commit returns the delta's objective"
          (Problem.commit_delta ctx again)
          (Problem.delta_objective again);
        let committed = Problem.ctx_solution problem ctx in
        check_lex ~what:"STR committed objective" (Problem.objective committed)
          (Problem.objective scratch);
        check_committed ~what:"STR commit" problem ctx committed;
        Alcotest.(check bool) "committed solution is STR" true
          (Problem.is_str committed);
        check_arc_order ~what:"STR commit" problem ctx committed;
        sol := committed
      done;
      (* DTR context, both classes. *)
      let wh0 = Weights.random rng g and wl0 = Weights.random rng g in
      let sol = ref (Problem.eval_dtr problem ~wh:wh0 ~wl:wl0) in
      check_oracle ~what:"DTR start" problem !sol (fresh_view problem !sol);
      (* One physical array on both sides is still a DTR setting. *)
      let shared = Problem.eval_dtr problem ~wh:wh0 ~wl:wh0 in
      Alcotest.(check bool) "eval_dtr ~wh:w ~wl:w is DTR" false
        (Problem.is_str shared);
      check_oracle ~what:"DTR shared array" problem shared
        (fresh_view problem shared);
      let ctx = Problem.ctx_of_solution problem !sol in
      List.iteri
        (fun step cls ->
          let base =
            match cls with `H -> !sol.Problem.wh | `L -> !sol.Problem.wl
          in
          let changes = random_changes rng ~step base in
          let d = Problem.eval_delta problem ctx ~cls ~changes in
          let w' = apply_changes base changes in
          let scratch =
            match cls with
            | `H -> Problem.eval_dtr problem ~wh:w' ~wl:!sol.Problem.wl
            | `L -> Problem.eval_dtr problem ~wh:!sol.Problem.wh ~wl:w'
          in
          check_oracle ~what:"DTR scratch" problem scratch
            (fresh_view problem scratch);
          check_lex ~what:"DTR probe objective" (Problem.delta_objective d)
            (Problem.objective scratch);
          check_lex ~what:"DTR commit returns the delta's objective"
            (Problem.commit_delta ctx d)
            (Problem.delta_objective d);
          let committed = Problem.ctx_solution problem ctx in
          check_lex ~what:"DTR committed objective"
            (Problem.objective committed) (Problem.objective scratch);
          check_committed ~what:"DTR commit" problem ctx committed;
          check_arc_order ~what:"DTR commit" problem ctx committed;
          sol := committed)
        [ `H; `L; `H; `L ])
    [
      (Objective.Load, Eval_ctx.All);
      (Objective.Sla Dtr_cost.Sla.default, Eval_ctx.All);
      (Objective.Load, Eval_ctx.Demand);
      (Objective.Sla Dtr_cost.Sla.default, Eval_ctx.Demand);
    ];
  true

let test_problem_delta () =
  QCheck.Test.make ~name:"Problem.eval_delta = eval_str/eval_dtr (both models)"
    ~count:8
    QCheck.(int_range 0 10_000)
    problem_delta_matches

(* Every eval_delta is one delta evaluation and no full one — under the
   SLA model too, where a W_H change (DTR [`H], or any STR change) is
   priced by re-walking Λ over the probe's rows. *)
let test_problem_counters () =
  let g = random_graph 7 in
  let rng = Prng.create 31 in
  let th, tl = random_matrices rng g in
  List.iter
    (fun model ->
      let problem = Problem.create ~graph:g ~th ~tl ~model in
      let name = Objective.model_name model in
      let probe_counts what ctx ~cls w =
        let full0 = Problem.full_evaluations ()
        and delta0 = Problem.delta_evaluations () in
        let d =
          Problem.eval_delta problem ctx ~cls ~changes:[ random_change rng w ]
        in
        ignore (Problem.commit_delta ctx d);
        Alcotest.(check int)
          (Printf.sprintf "%s %s: full evaluations" name what)
          0
          (Problem.full_evaluations () - full0);
        Alcotest.(check int)
          (Printf.sprintf "%s %s: delta evaluations" name what)
          1
          (Problem.delta_evaluations () - delta0)
      in
      Problem.reset_evaluations ();
      let w = Weights.random rng g in
      let sol = Problem.eval_str problem ~w in
      probe_counts "STR probe" (Problem.ctx_of_solution problem sol) ~cls:`H w;
      let wh = Weights.random rng g and wl = Weights.random rng g in
      let sol = Problem.eval_dtr problem ~wh ~wl in
      probe_counts "H probe" (Problem.ctx_of_solution problem sol) ~cls:`H wh;
      Alcotest.(check int) (name ^ ": full evaluations") 2
        (Problem.full_evaluations ());
      Alcotest.(check int) (name ^ ": delta evaluations") 2
        (Problem.delta_evaluations ());
      Alcotest.(check int) (name ^ ": total evaluations") 4
        (Problem.evaluations ()))
    [ Objective.Load; Objective.Sla Dtr_cost.Sla.default ];
  Problem.reset_evaluations ()

(* A probe's full Fortz row of a class: its patch over the committed
   row. *)
let probe_phi_row ctx p k =
  let row = Array.copy (Eval_ctx.phi_per_arc ctx k) in
  let arcs, costs = Eval_ctx.probe_phi_patch ctx p k in
  Array.iteri (fun i a -> row.(a) <- costs.(i)) arcs;
  row

let test_eval_ctx_stale_probe () =
  let g = random_graph 3 in
  let rng = Prng.create 23 in
  let th, tl = random_matrices rng g in
  let w = Weights.random rng g in
  let ctx = Eval_ctx.create g ~weights:[| w; w |] ~matrices:[| th; tl |] in
  let arc, v = random_change rng w in
  let p1 = Eval_ctx.probe ctx ~klass:0 ~changes:[ (arc, v) ] in
  let p2 = Eval_ctx.probe ctx ~klass:0 ~changes:[ (arc, v) ] in
  Eval_ctx.commit ctx p1;
  Alcotest.check_raises "stale probe rejected"
    (Invalid_argument "Eval_ctx.commit: stale probe (context has moved on)")
    (fun () -> Eval_ctx.commit ctx p2);
  (* Its rows would mix the probe's and the moved context's state. *)
  Alcotest.check_raises "stale probe rows rejected"
    (Invalid_argument "Eval_ctx.probe_phi_patch: stale probe")
    (fun () -> ignore (Eval_ctx.probe_phi_patch ctx p2 0))

(* An arc listed twice takes its last value: [(a, 5); (a, 7)] probes
   weight 7, and [(a, 5); (a, w_a)] probes no change — the reading
   Problem's memo key (shift_key) already uses. *)
let test_eval_ctx_revisited_arc () =
  let g = random_graph 11 in
  let rng = Prng.create 41 in
  let th, tl = random_matrices rng g in
  let wh = Weights.random rng g and wl = Weights.random rng g in
  let ctx = Eval_ctx.create g ~weights:[| wh; wl |] ~matrices:[| th; tl |] in
  let a = 3 in
  let wa = wh.(a) in
  let v1 = if wa = 5 then 6 else 5 and v2 = if wa = 7 then 8 else 7 in
  let twice = Eval_ctx.probe ctx ~klass:0 ~changes:[ (a, v1); (a, v2) ] in
  let once = Eval_ctx.probe ctx ~klass:0 ~changes:[ (a, v2) ] in
  check_arr ~what:"[(a,v1);(a,v2)] = [(a,v2)]" (Eval_ctx.probe_phi twice)
    (Eval_ctx.probe_phi once);
  let back = Eval_ctx.probe ctx ~klass:0 ~changes:[ (a, v1); (a, wa) ] in
  check_arr ~what:"[(a,v1);(a,w_a)] is no change" (Eval_ctx.probe_phi back)
    (Eval_ctx.phi ctx);
  Alcotest.(check (list int)) "no change touches no arc" []
    (Eval_ctx.probe_touched back);
  (* Through Problem: committing the round trip leaves weights, memo
     key and objective where they were. *)
  let problem = Problem.create ~graph:g ~th ~tl ~model:Objective.Load in
  let sol = Problem.eval_dtr problem ~wh ~wl in
  let pctx = Problem.ctx_of_solution problem sol in
  let key0 = Problem.ctx_base_key pctx in
  let d = Problem.eval_delta problem pctx ~cls:`H ~changes:[ (a, v1); (a, wa) ] in
  check_lex ~what:"round-trip objective" (Problem.delta_objective d)
    (Problem.objective sol);
  ignore (Problem.commit_delta pctx d);
  Alcotest.(check (array int)) "weights unchanged" wh
    (Problem.ctx_weights pctx `H);
  Alcotest.(check int) "memo key unchanged" key0 (Problem.ctx_base_key pctx);
  Alcotest.(check int) "memo key = fresh key"
    (Problem.ctx_base_key_fresh pctx) (Problem.ctx_base_key pctx);
  let d = Problem.eval_delta problem pctx ~cls:`H ~changes:[ (a, v1); (a, v2) ] in
  let wh' = Array.copy wh in
  wh'.(a) <- v2;
  check_lex ~what:"last value wins" (Problem.delta_objective d)
    (Problem.objective (Problem.eval_dtr problem ~wh:wh' ~wl))

(* ------------------------------------------------------------------ *)
(* Sub-DAG flow re-propagation vs the full walk *)

(* Bitwise float comparison (unlike [=], tells 0. from -0.). *)
let check_bits ~what expected actual =
  if Array.length expected <> Array.length actual then
    Alcotest.failf "%s: lengths %d vs %d" what (Array.length expected)
      (Array.length actual);
  Array.iteri
    (fun i x ->
      if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float actual.(i)))
      then Alcotest.failf "%s: index %d: %.17g vs %.17g" what i x actual.(i))
    expected

(* A chain of [k] diamonds (entry -> two middles -> exit) with every
   rung doubled by a parallel arc, and a back arc per rung so weight
   changes can reroute: equal weights split flow many ways, so every
   exit node sums several shares — where a reordered float sum would
   show. *)
let diamond_chain k =
  let n = (3 * k) + 1 in
  let arcs = ref [] in
  let arc src dst = arcs := { Graph.src; dst; capacity = 100.; delay = 1. } :: !arcs in
  for i = 0 to k - 1 do
    let e = 3 * i and m1 = (3 * i) + 1 and m2 = (3 * i) + 2 and x = 3 * (i + 1) in
    arc e m1; arc e m1; arc e m2; arc m1 x; arc m2 x; arc m2 x;
    arc m1 e; arc m2 e; arc x m1; arc x m2; arc m1 m2; arc m2 m1
  done;
  Graph.build ~n (List.rev !arcs)

(* Flows with no short binary expansion, so summation order matters. *)
let awkward_demand rng n ~dst =
  Array.init n (fun s ->
      if s = dst then 0. else 0.1 +. (float_of_int (Prng.int rng 1000) /. 7.))

let repropagate_matches g rng ~steps =
  let n = Graph.node_count g and m = Graph.arc_count g in
  let w = Array.make m 10 in
  let dags = ref (Spf.all_destinations g ~weights:w) in
  let demand = Array.init n (fun dst -> awkward_demand rng n ~dst) in
  let ws = Spf_delta.workspace () and sc = Loads.scratch () in
  for step = 1 to steps do
    let changes =
      List.init (1 + Prng.int rng 2) (fun _ -> Prng.int rng m)
      |> List.sort_uniq compare
      |> List.filter_map (fun arc ->
             let v = Prng.int_incl rng 8 12 in
             if v = w.(arc) then None
             else Some { Spf_delta.arc; before = w.(arc); after = v })
    in
    List.iter (fun c -> w.(c.Spf_delta.arc) <- c.Spf_delta.after) changes;
    let next, dirty =
      Spf_delta.update_rows ~ws g ~weights:w ~prev:!dags ~changes
    in
    List.iter
      (fun (d : Spf_delta.dirty) ->
        let t = d.Spf_delta.dst in
        let prev = !dags.(t) and dag = next.(t) in
        let dem = demand.(t) in
        let flow = Loads.node_throughflow g ~dag:prev ~demand_to_dst:dem in
        let contrib = Loads.destination_loads g ~dag:prev ~demand_to_dst:dem in
        ignore
          (Loads.repropagate sc g ~prev ~dag ~changed:d.Spf_delta.changed
             ~demand_to_dst:dem ~flow ~contrib);
        let apply row (idx, vals) =
          let r = Array.copy row in
          Array.iteri (fun i a -> r.(a) <- vals.(i)) idx;
          r
        in
        let what = Printf.sprintf "step %d dst %d" step t in
        check_bits ~what:(what ^ ": flow")
          (Loads.node_throughflow g ~dag ~demand_to_dst:dem)
          (apply flow (Loads.moved_flows sc));
        check_bits ~what:(what ^ ": contrib")
          (Loads.destination_loads g ~dag ~demand_to_dst:dem)
          (apply contrib (Loads.moved_arcs sc)))
      dirty;
    dags := next
  done

let test_repropagate_flow_order () =
  (* Long chains re-propagate most of the dag (the order_desc walk),
     changes near a destination only a few nodes (the in-arc pull); a
     dense complete digraph with doubled arcs covers the walk on a
     graph where most in-arcs are off the dag. *)
  let rng = Prng.create 2024 in
  List.iter (fun k -> repropagate_matches (diamond_chain k) rng ~steps:60) [ 1; 3; 6 ];
  let complete n =
    let arcs = ref [] in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then begin
          arcs := { Graph.src = i; dst = j; capacity = 100.; delay = 1. } :: !arcs;
          if (i + j) mod 3 = 0 then
            arcs := { Graph.src = i; dst = j; capacity = 100.; delay = 1. } :: !arcs
        end
      done
    done;
    Graph.build ~n (List.rev !arcs)
  in
  repropagate_matches (complete 7) rng ~steps:80

(* ------------------------------------------------------------------ *)
(* Long seeded commit sequences: every committed state against a fresh
   context, every DAG against from-scratch SPF, every failure probe
   against the reduced-graph oracle. *)

(* Two triangles joined by one link: failing the bridge partitions the
   graph. *)
let bridge_graph () =
  let arcs = ref [] in
  let link a b =
    arcs :=
      { Graph.src = b; dst = a; capacity = 80.; delay = 1. }
      :: { Graph.src = a; dst = b; capacity = 80.; delay = 1. }
      :: !arcs
  in
  List.iter (fun (a, b) -> link a b) [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 5); (5, 3) ];
  Graph.build ~n:6 (List.rev !arcs)

(* A ring with doubled links (parallel arcs both ways) and two chords. *)
let parallel_ring () =
  let arcs = ref [] in
  let link a b =
    arcs :=
      { Graph.src = b; dst = a; capacity = 60.; delay = 1. }
      :: { Graph.src = a; dst = b; capacity = 60.; delay = 1. }
      :: !arcs
  in
  for i = 0 to 6 do
    link i ((i + 1) mod 7);
    if i mod 2 = 0 then link i ((i + 1) mod 7)
  done;
  link 0 3;
  link 2 5;
  Graph.build ~n:7 (List.rev !arcs)

let check_ctx_state ~what ctx ~matrices ~dest_mode =
  let g = Eval_ctx.graph ctx in
  let classes = Eval_ctx.class_count ctx in
  let weights =
    (* Re-create the physical sharing of the groups. *)
    let ws = Array.init classes (Eval_ctx.weights ctx) in
    for k = 1 to classes - 1 do
      for j = 0 to k - 1 do
        if Eval_ctx.shares_group ctx j k then ws.(k) <- ws.(j)
      done
    done;
    ws
  in
  let fresh = Eval_ctx.create ~dest_mode g ~weights ~matrices in
  check_bits ~what:(what ^ ": phi") (Eval_ctx.phi fresh) (Eval_ctx.phi ctx);
  for k = 0 to classes - 1 do
    let wk = Printf.sprintf "%s class %d" what k in
    check_bits ~what:(wk ^ ": loads") (Eval_ctx.loads fresh k) (Eval_ctx.loads ctx k);
    check_bits ~what:(wk ^ ": capacity")
      (Eval_ctx.capacity_seen_view fresh k)
      (Eval_ctx.capacity_seen_view ctx k);
    check_bits ~what:(wk ^ ": phi row") (Eval_ctx.phi_per_arc fresh k)
      (Eval_ctx.phi_per_arc ctx k);
    let scratch = Spf.all_destinations g ~weights:weights.(k) in
    let dags = Eval_ctx.dags ctx k in
    for dst = 0 to Graph.node_count g - 1 do
      if not (Spf.is_placeholder dags.(dst)) then
        check_dag_equal ~what:(Printf.sprintf "%s dag %d" wk dst) scratch.(dst)
          dags.(dst);
      check_bits ~what:(Printf.sprintf "%s contrib %d" wk dst)
        (Eval_ctx.contrib_view fresh ~klass:k ~dst)
        (Eval_ctx.contrib_view ctx ~klass:k ~dst);
      check_bits ~what:(Printf.sprintf "%s flow %d" wk dst)
        (Eval_ctx.flow_view fresh ~klass:k ~dst)
        (Eval_ctx.flow_view ctx ~klass:k ~dst)
    done
  done

(* Candidate weights of a probe on [klass]: the last value per arc. *)
let candidate ctx ~klass changes =
  let w = Eval_ctx.weights ctx klass in
  List.iter (fun (a, v) -> w.(a) <- v) changes;
  w

let fresh_phi ctx ~matrices ~dest_mode ~klass changes =
  let g = Eval_ctx.graph ctx in
  let classes = Eval_ctx.class_count ctx in
  let cand = candidate ctx ~klass changes in
  let weights =
    Array.init classes (fun k ->
        if Eval_ctx.shares_group ctx k klass then cand else Eval_ctx.weights ctx k)
  in
  for k = 1 to classes - 1 do
    for j = 0 to k - 1 do
      if Eval_ctx.shares_group ctx j k then weights.(k) <- weights.(j)
    done
  done;
  Eval_ctx.create ~dest_mode g ~weights ~matrices

(* The reduced-graph oracle of a link failure: severed pairs by plain
   reachability, otherwise Multi.evaluate on the graph without the
   link's arcs. *)
let check_failure ~what ctx ~matrices ~link =
  let g = Eval_ctx.graph ctx in
  let n = Graph.node_count g in
  let a, b = link in
  let arcs = if a = b then [ a ] else [ a; b ] in
  let f = Eval_ctx.fail_probe ctx ~arcs in
  let reduced, mapping = Dtr_routing.Failure_sweep.fail_link g ~link in
  let ones = Array.make (Graph.arc_count reduced) 1 in
  let severed = ref 0 in
  for dst = 0 to n - 1 do
    let dist = Dtr_graph.Dijkstra.distances_to reduced ~weights:ones ~dst in
    Array.iter
      (fun tm ->
        for s = 0 to n - 1 do
          if s <> dst && Matrix.get tm s dst > 0. && dist.(s) = Dtr_graph.Dijkstra.unreachable
          then incr severed
        done)
      matrices
  done;
  Alcotest.(check int) (what ^ ": severed pairs") !severed
    (Eval_ctx.failure_unreachable f);
  if !severed = 0 then begin
    let classes = Eval_ctx.class_count ctx in
    let remapped = Array.init classes (fun k ->
        let w = Eval_ctx.weights_view ctx k in
        Array.map (fun orig -> w.(orig)) mapping)
    in
    for k = 1 to classes - 1 do
      for j = 0 to k - 1 do
        if Eval_ctx.shares_group ctx j k then remapped.(k) <- remapped.(j)
      done
    done;
    let oracle = Multi.evaluate reduced ~weights:remapped ~matrices in
    check_bits ~what:(what ^ ": failure phi") oracle.Multi.phi (Eval_ctx.failure_phi f);
    for k = 0 to classes - 1 do
      let row = Eval_ctx.failure_phi_row f k in
      check_bits ~what:(Printf.sprintf "%s: failure phi row %d" what k)
        oracle.Multi.phi_per_arc.(k)
        (Array.map (fun orig -> row.(orig)) mapping);
      List.iter
        (fun x ->
          if row.(x) <> 0. then Alcotest.failf "%s: failed arc %d costs %g" what x row.(x))
        arcs
    done
  end

let stress_ops ~what g ~weights ~matrices ~dest_mode ~seed ~ops =
  let rng = Prng.create seed in
  let ctx = Eval_ctx.create ~dest_mode g ~weights ~matrices in
  let classes = Array.length weights in
  let m = Graph.arc_count g in
  let links = Graph.undirected_link_pairs g in
  let commits = ref 0 in
  let random_value w a =
    match Prng.int rng 6 with
    | 0 -> Weights.min_weight
    | 1 -> Weights.max_weight
    | _ ->
        let v = ref (Prng.int_incl rng Weights.min_weight Weights.max_weight) in
        if !v = w.(a) then v := if w.(a) = Weights.max_weight then 1 else w.(a) + 1;
        !v
  in
  let verify_probe ~klass changes p =
    let fresh = fresh_phi ctx ~matrices ~dest_mode ~klass changes in
    check_bits ~what:(what ^ ": probe phi") (Eval_ctx.phi fresh) (Eval_ctx.probe_phi p);
    fresh
  in
  for op = 1 to ops do
    let what = Printf.sprintf "%s op %d" what op in
    let klass = Prng.int rng classes in
    let w = Eval_ctx.weights ctx klass in
    match Prng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
        (* One- to four-arc probe, committed or aborted. *)
        let changes =
          List.init (1 + Prng.int rng 4) (fun _ ->
              let a = Prng.int rng m in
              (a, random_value w a))
        in
        let p = Eval_ctx.probe ctx ~klass ~changes in
        ignore (verify_probe ~klass changes p);
        if Prng.bool rng then begin
          Eval_ctx.commit ctx p;
          incr commits;
          check_ctx_state ~what ctx ~matrices ~dest_mode
        end
        else Eval_ctx.abort ctx p
    | 4 ->
        (* Raise every tight out-arc of one node towards one destination
           at once: distances upstream must grow. *)
        let dags = Eval_ctx.dags ctx klass in
        let t = Prng.int rng (Graph.node_count g) in
        if not (Spf.is_placeholder dags.(t)) then begin
          let u = Prng.int rng (Graph.node_count g) in
          let tight = Array.to_list dags.(t).Spf.next_arcs.(u) in
          if tight <> [] then begin
            let changes =
              List.map (fun a -> (a, min Weights.max_weight (w.(a) + 1 + Prng.int rng 10))) tight
            in
            let p = Eval_ctx.probe ctx ~klass ~changes in
            ignore (verify_probe ~klass changes p);
            Eval_ctx.commit ctx p;
            incr commits;
            check_ctx_state ~what ctx ~matrices ~dest_mode
          end
        end
    | 5 ->
        (* Stale probes: only the first of two sibling probes commits. *)
        let a = Prng.int rng m in
        let p1 = Eval_ctx.probe ctx ~klass ~changes:[ (a, random_value w a) ] in
        let p2 = Eval_ctx.probe ctx ~klass ~changes:[ (a, random_value w a) ] in
        Eval_ctx.commit ctx p1;
        incr commits;
        Alcotest.check_raises (what ^ ": stale commit")
          (Invalid_argument "Eval_ctx.commit: stale probe (context has moved on)")
          (fun () -> Eval_ctx.commit ctx p2);
        Alcotest.check_raises (what ^ ": stale rows")
          (Invalid_argument "Eval_ctx.probe_phi_patch: stale probe")
          (fun () -> ignore (Eval_ctx.probe_phi_patch ctx p2 klass));
        check_ctx_state ~what ctx ~matrices ~dest_mode
    | 6 | 7 ->
        check_failure ~what ctx ~matrices ~link:(Prng.choose rng links)
    | _ ->
        (* A probe's patched rows match a fresh evaluation. *)
        let a = Prng.int rng m in
        let changes = [ (a, random_value w a) ] in
        let p = Eval_ctx.probe ctx ~klass ~changes in
        let fresh = verify_probe ~klass changes p in
        for k = 0 to classes - 1 do
          check_bits ~what:(Printf.sprintf "%s: probe phi row %d" what k)
            (Eval_ctx.phi_per_arc fresh k) (probe_phi_row ctx p k);
          let pd = Eval_ctx.probe_dags ctx p k and fd = Eval_ctx.dags fresh k in
          Array.iteri
            (fun t d ->
              if not (Spf.is_placeholder d) then
                check_dag_equal ~what:(Printf.sprintf "%s: probe dag %d/%d" what k t) d pd.(t))
            fd
        done;
        Eval_ctx.abort ctx p
  done;
  if !commits = 0 then Alcotest.failf "%s: no commit in %d ops" what ops

let test_long_commit_sequences () =
  let graphs =
    [ ("random 5", random_graph 5); ("random 6", random_graph 6);
      ("random 7", random_graph 7); ("parallel ring", parallel_ring ());
      ("bridge", bridge_graph ()) ]
  in
  List.iteri
    (fun gi (name, g) ->
      let n = Graph.node_count g in
      let rng = Prng.create (100 + gi) in
      let th, tl = random_matrices rng g in
      let zero = Matrix.create n in
      let wa = Weights.random rng g and wb = Weights.random rng g in
      List.iter
        (fun (setup, weights, matrices, dest_mode) ->
          stress_ops
            ~what:(Printf.sprintf "%s %s" name setup)
            g ~weights ~matrices ~dest_mode ~seed:(gi + 1) ~ops:200)
        [
          ("dtr/all", [| Array.copy wa; Array.copy wb |], [| th; tl |], Eval_ctx.All);
          ("str/demand", (let w = Array.copy wa in [| w; w |]), [| th; tl |], Eval_ctx.Demand);
          ( "3-class zero-demand/demand",
            (let w = Array.copy wb in [| w; Array.copy wa; w |]),
            [| th; zero; tl |],
            Eval_ctx.Demand );
          ("3-class zero-demand/all", [| Array.copy wa; Array.copy wb; Array.copy wa |],
            [| th; tl; zero |], Eval_ctx.All);
        ])
    graphs

(* ------------------------------------------------------------------ *)
(* Incremental Λ: long seeded SLA commit/abort sequences, every probe
   against Evaluate.sla_of_rows on the probe's rows and every committed
   ξ against Delay.expected_to_destination. *)

module Lambda = Dtr_routing.Lambda
module Delay = Dtr_routing.Delay

(* A bound tight enough that some pairs violate it on every fixture, so
   penalties and violation counts are exercised, not just zeros. *)
let sla_params = { Dtr_cost.Sla.default with Dtr_cost.Sla.theta = 3. }

let check_lambda ~what (oracle : Evaluate.sla) lam =
  let sla = Lambda.to_sla lam in
  check_bits ~what:(what ^ ": lambda") [| oracle.Evaluate.lambda |] [| Lambda.lambda lam |];
  check_bits ~what:(what ^ ": sla lambda") [| oracle.Evaluate.lambda |] [| sla.Evaluate.lambda |];
  check_bits ~what:(what ^ ": worst delay") [| oracle.Evaluate.worst_delay |]
    [| sla.Evaluate.worst_delay |];
  Alcotest.(check int) (what ^ ": violations") oracle.Evaluate.violations
    sla.Evaluate.violations;
  Alcotest.(check int) (what ^ ": unreachable") oracle.Evaluate.unreachable
    sla.Evaluate.unreachable;
  check_bits ~what:(what ^ ": arc delays") oracle.Evaluate.arc_delay (Lambda.arc_delay lam);
  let delays (l : (int * int * float) list) = Array.of_list (List.map (fun (_, _, d) -> d) l) in
  let pairs (l : (int * int * float) list) = List.map (fun (s, d, _) -> (s, d)) l in
  check_bits ~what:(what ^ ": pair delays") (delays oracle.Evaluate.pair_delays)
    (delays sla.Evaluate.pair_delays);
  if pairs sla.Evaluate.pair_delays <> pairs oracle.Evaluate.pair_delays then
    Alcotest.failf "%s: pair order differs from Matrix.pairs" what

let lambda_ops ~what g ~weights ~th ~tl ~dest_mode ~seed ~ops =
  let rng = Prng.create seed in
  let ctx = Eval_ctx.create ~dest_mode g ~weights ~matrices:[| th; tl |] in
  let lam = ref (Lambda.of_ctx sla_params ~th ctx) in
  (* A Problem context of the same weights, committed in lock-step. *)
  let problem =
    {
      (Problem.create ~graph:g ~th ~tl ~model:(Objective.Sla sla_params)) with
      Problem.dest_mode;
    }
  in
  let pctx = Problem.ctx_of_weights problem ~wh:weights.(0) ~wl:weights.(1) in
  let sc = Lambda.scratch !lam in
  let m = Graph.arc_count g and n = Graph.node_count g in
  let links = Graph.undirected_link_pairs g in
  let commits = ref 0 in
  let oracle_of_probe p =
    Evaluate.sla_of_rows sla_params g ~dags_h:(Eval_ctx.probe_dags ctx p 0)
      ~phi_h_per_arc:(probe_phi_row ctx p 0) ~th
  in
  (* As Problem prices a candidate: only a probe moving W_H re-walks Λ. *)
  let probe ~what ~klass changes =
    let p = Eval_ctx.probe ctx ~klass ~changes in
    if Eval_ctx.shares_group ctx 0 klass then begin
      let oracle = oracle_of_probe p in
      let l = Lambda.probe !lam sc ctx p in
      check_bits ~what:(what ^ ": probe lambda") [| oracle.Evaluate.lambda |] [| l |];
      check_lambda ~what:(what ^ ": probe") oracle (Lambda.commit !lam sc ctx p)
    end;
    p
  in
  let commit ~what ~klass p =
    if Eval_ctx.shares_group ctx 0 klass then lam := Lambda.commit !lam sc ctx p;
    Eval_ctx.commit ctx p;
    incr commits;
    (* The same move through Problem: its live view carries this Λ
       state, and a context re-pointed at the committed solution's DAG
       snapshot has that view bit for bit. *)
    let cls = if klass = 0 then `H else `L in
    let changes =
      Problem.weight_changes (Problem.ctx_weights_view pctx cls)
        (Eval_ctx.weights_view ctx klass)
    in
    ignore
      (Problem.commit_delta pctx
         (Problem.eval_delta ~count:false problem pctx ~cls ~changes));
    let live = Problem.ctx_result problem pctx in
    (match live.Objective.sla with
    | Some sla -> check_lambda ~what:(what ^ ": Problem view") sla !lam
    | None -> Alcotest.failf "%s: Problem view has no SLA record" what);
    check_view ~what:(what ^ ": re-pointed") live
      (Problem.ctx_result problem
         (Problem.ctx_of_solution problem (Problem.ctx_solution problem pctx)));
    let dags = Eval_ctx.dags ctx 0 in
    check_lambda ~what:(what ^ ": committed")
      (Evaluate.sla_of_rows sla_params g ~dags_h:dags
         ~phi_h_per_arc:(Eval_ctx.phi_per_arc ctx 0) ~th)
      !lam;
    (* Every stored ξ is the full walk's at every node that reaches its
       destination; destinations without high-priority demand store
       none. *)
    let sinks = Array.make n false in
    Matrix.iter th (fun _ t _ -> sinks.(t) <- true);
    for t = 0 to n - 1 do
      let xi = Lambda.xi !lam t in
      if sinks.(t) then begin
        let full =
          Delay.expected_to_destination g ~dag:dags.(t) ~arc_delay:(Lambda.arc_delay !lam)
        in
        for v = 0 to n - 1 do
          if dags.(t).Spf.dist.(v) <> Dtr_graph.Dijkstra.unreachable then
            check_bits ~what:(Printf.sprintf "%s: xi %d at %d" what t v) [| full.(v) |]
              [| xi.(v) |]
        done
      end
      else Alcotest.(check int) (Printf.sprintf "%s: no xi for %d" what t) 0 (Array.length xi)
    done
  in
  let random_value w a =
    let v = ref (Prng.int_incl rng Weights.min_weight Weights.max_weight) in
    if !v = w.(a) then v := if w.(a) = Weights.max_weight then 1 else w.(a) + 1;
    !v
  in
  for op = 1 to ops do
    let what = Printf.sprintf "%s op %d" what op in
    (* Mostly W_H: every W_L probe of a DTR context leaves Λ alone. *)
    let klass = if Prng.int rng 4 = 0 then 1 else 0 in
    let w = Eval_ctx.weights ctx klass in
    match Prng.int rng 8 with
    | 0 | 1 | 2 ->
        let changes =
          List.init (1 + Prng.int rng 4) (fun _ ->
              let a = Prng.int rng m in
              (a, random_value w a))
        in
        let p = probe ~what ~klass changes in
        if Prng.bool rng then commit ~what ~klass p else Eval_ctx.abort ctx p
    | 3 ->
        (* Raise every tight out-arc of one node towards one destination:
           its DAG changes while the loads may not. *)
        let dags = Eval_ctx.dags ctx klass in
        let t = Prng.int rng n in
        if not (Spf.is_placeholder dags.(t)) then begin
          let tight = Array.to_list dags.(t).Spf.next_arcs.(Prng.int rng n) in
          if tight <> [] then
            commit ~what ~klass
              (probe ~what ~klass
                 (List.map (fun a -> (a, min Weights.max_weight (w.(a) + 1 + Prng.int rng 10))) tight))
        end
    | 4 | 5 ->
        (* A sibling probed after the winner: the commit re-derives the
           winner instead of reusing the scratch. *)
        let a = Prng.int rng m and b = Prng.int rng m in
        let p1 = probe ~what ~klass [ (a, random_value w a) ] in
        let p2 = probe ~what ~klass [ (b, random_value w b) ] in
        Eval_ctx.abort ctx p2;
        commit ~what ~klass p1
    | 6 ->
        (* The from-scratch mode on a failure probe's rows. *)
        let a, b = Prng.choose rng links in
        let f = Eval_ctx.fail_probe ctx ~arcs:(if a = b then [ a ] else [ a; b ]) in
        if Eval_ctx.failure_unreachable f = 0 then begin
          let dags_h = Eval_ctx.failure_dags ctx f 0
          and phi_h_per_arc = Eval_ctx.failure_phi_row f 0 in
          check_lambda ~what:(what ^ ": failure")
            (Evaluate.sla_of_rows sla_params g ~dags_h ~phi_h_per_arc ~th)
            (Lambda.create sla_params g ~th ~dags_h ~phi_h_per_arc)
        end
    | _ ->
        (* A fresh context of the committed weights agrees with the
           incrementally committed state. *)
        check_lambda ~what:(what ^ ": fresh")
          (Lambda.to_sla !lam) (Lambda.of_ctx sla_params ~th ctx)
  done;
  if !commits = 0 then Alcotest.failf "%s: no commit in %d ops" what ops

let test_lambda_sequences () =
  let graphs =
    [ ("random 5", random_graph 5); ("random 6", random_graph 6);
      ("random 7", random_graph 7); ("parallel ring", parallel_ring ());
      ("bridge", bridge_graph ()) ]
  in
  List.iteri
    (fun gi (name, g) ->
      let rng = Prng.create (300 + gi) in
      let th, tl = random_matrices rng g in
      let wa = Weights.random rng g and wb = Weights.random rng g in
      List.iter
        (fun (setup, weights, dest_mode) ->
          lambda_ops
            ~what:(Printf.sprintf "%s %s" name setup)
            g ~weights ~th ~tl ~dest_mode ~seed:(gi + 11) ~ops:200)
        [
          ("dtr/all", [| Array.copy wa; Array.copy wb |], Eval_ctx.All);
          ("dtr/demand", [| Array.copy wa; Array.copy wb |], Eval_ctx.Demand);
          ("str/all", (let w = Array.copy wa in [| w; w |]), Eval_ctx.All);
          ("str/demand", (let w = Array.copy wb in [| w; w |]), Eval_ctx.Demand);
        ])
    graphs

(* ------------------------------------------------------------------ *)
(* Independent ECMP oracle

   A from-first-principles reading of OSPF ECMP that shares no code
   with Spf, Loads or Eval_ctx: Floyd–Warshall distances, the next-hop
   arcs of u towards t are those with w(a) + d(v, t) = d(u, t), and
   each demand is pushed hop by hop, split evenly over the next-hop
   arcs at every node it reaches (parallel arcs are separate next
   hops).  Pushing every path separately is exponential in the ECMP
   depth, so it stays on small fixtures. *)

let ecmp_oracle g ~w m =
  let n = Graph.node_count g and arcs = Graph.arcs g in
  let inf = max_int / 4 in
  let d = Array.make_matrix n n inf in
  for v = 0 to n - 1 do
    d.(v).(v) <- 0
  done;
  Array.iteri
    (fun a (arc : Graph.arc) ->
      d.(arc.src).(arc.dst) <- min d.(arc.src).(arc.dst) w.(a))
    arcs;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if d.(i).(k) + d.(k).(j) < d.(i).(j) then d.(i).(j) <- d.(i).(k) + d.(k).(j)
      done
    done
  done;
  let out = Array.make n [] in
  Array.iteri (fun a (arc : Graph.arc) -> out.(arc.src) <- a :: out.(arc.src)) arcs;
  let load = Array.make (Array.length arcs) 0. in
  let rec push u t f =
    if u <> t then begin
      let hops =
        List.filter
          (fun a -> w.(a) + d.(arcs.(a).Graph.dst).(t) = d.(u).(t))
          out.(u)
      in
      let share = f /. float_of_int (List.length hops) in
      List.iter
        (fun a ->
          load.(a) <- load.(a) +. share;
          push arcs.(a).Graph.dst t share)
        hops
    end
  in
  Matrix.iter m (fun s t v -> if v > 0. && s <> t then push s t v);
  load

let check_rel ~what expected actual =
  Array.iteri
    (fun a e ->
      let x = actual.(a) in
      if Float.abs (e -. x) > 1e-9 *. Float.max (Float.abs e) (Float.abs x) then
        Alcotest.failf "%s: arc %d carries %.17g, oracle %.17g" what a x e)
    expected

(* Both production paths — the reference Evaluate.evaluate and the
   engine's Eval_ctx — against the oracle, both classes. *)
let check_ecmp ~what g ~wh ~wl ~th ~tl =
  let oh = ecmp_oracle g ~w:wh th and ol = ecmp_oracle g ~w:wl tl in
  let ev = Evaluate.evaluate g ~wh ~wl ~th ~tl in
  check_rel ~what:(what ^ " Evaluate H") oh ev.Evaluate.h_loads;
  check_rel ~what:(what ^ " Evaluate L") ol ev.Evaluate.l_loads;
  List.iter
    (fun dest_mode ->
      let ctx =
        Eval_ctx.create ~dest_mode g ~weights:[| wh; wl |] ~matrices:[| th; tl |]
      in
      check_rel ~what:(what ^ " Eval_ctx H") oh (Eval_ctx.loads ctx 0);
      check_rel ~what:(what ^ " Eval_ctx L") ol (Eval_ctx.loads ctx 1))
    [ Eval_ctx.All; Eval_ctx.Demand ]

let test_ecmp_oracle () =
  let fixtures =
    [ ("random 1", random_graph 1); ("random 2", random_graph 2);
      ("random 3", random_graph 3); ("ring", Dtr_topology.Classic.ring 9);
      ("parallel ring", parallel_ring ()) ]
  in
  List.iteri
    (fun i (name, g) ->
      let rng = Prng.create (500 + i) in
      let th, tl = random_matrices rng g in
      (* Random weights rarely tie; unit weights tie on every
         equal-hop path. *)
      check_ecmp ~what:(name ^ " random") g ~wh:(Weights.random rng g)
        ~wl:(Weights.random rng g) ~th ~tl;
      check_ecmp ~what:(name ^ " unit") g ~wh:(Weights.uniform g 1)
        ~wl:(Weights.uniform g 1) ~th ~tl)
    fixtures

(* Three equal-cost paths 0 -> 5: 0-1-5, and 0-2-3-5 / 0-2-4-5, which
   split again at 2.  OSPF ECMP splits per hop, so each first arc
   carries 1/2; a per-path split (SNIPPETS.md snippet 2) would put 1/3
   on 0->1 and 2/3 on 0->2. *)
let test_ecmp_asymmetric_diamond () =
  let links = [ (0, 1, 2); (1, 5, 1); (0, 2, 1); (2, 3, 1); (2, 4, 1); (3, 5, 1); (4, 5, 1) ] in
  let arcs =
    List.concat_map
      (fun (a, b, _) ->
        [ { Graph.src = a; dst = b; capacity = 10.; delay = 1. };
          { Graph.src = b; dst = a; capacity = 10.; delay = 1. } ])
      links
  in
  let g = Graph.build ~n:6 arcs in
  let w = Array.of_list (List.concat_map (fun (_, _, w) -> [ w; w ]) links) in
  let th = Matrix.create 6 and tl = Matrix.create 6 in
  Matrix.set th 0 5 1.;
  Matrix.set tl 0 5 1.;
  let wl = Array.copy w in
  check_ecmp ~what:"diamond" g ~wh:w ~wl ~th ~tl;
  let arc src dst =
    let rec find a =
      let x = Graph.arc g a in
      if x.Graph.src = src && x.Graph.dst = dst then a else find (a + 1)
    in
    find 0
  in
  let ev = Evaluate.evaluate g ~wh:w ~wl ~th ~tl in
  List.iter
    (fun (src, dst, share) ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "%d->%d carries %g" src dst share)
        share
        ev.Evaluate.h_loads.(arc src dst))
    [ (0, 1, 0.5); (0, 2, 0.5); (2, 3, 0.25); (2, 4, 0.25); (1, 5, 0.5) ]

let () =
  Alcotest.run "delta"
    [
      ( "spf_delta",
        [
          QCheck_alcotest.to_alcotest (test_spf_delta_property ());
          QCheck_alcotest.to_alcotest (test_spf_delta_two_changes ());
        ] );
      ( "loads",
        [
          Alcotest.test_case "destination subtotals recombine" `Quick
            test_destination_loads_sum;
        ] );
      ( "eval_ctx",
        [
          QCheck_alcotest.to_alcotest (test_eval_ctx_property ());
          QCheck_alcotest.to_alcotest (test_eval_ctx_shared ());
          QCheck_alcotest.to_alcotest (test_eval_ctx_three_classes ());
          Alcotest.test_case "stale probe rejected" `Quick
            test_eval_ctx_stale_probe;
          Alcotest.test_case "revisited arc: last value wins" `Quick
            test_eval_ctx_revisited_arc;
          Alcotest.test_case "long seeded commit sequences" `Quick
            test_long_commit_sequences;
        ] );
      ( "subdag",
        [
          Alcotest.test_case "sub-DAG flow order = full walk" `Quick
            test_repropagate_flow_order;
        ] );
      ( "problem",
        [
          QCheck_alcotest.to_alcotest (test_problem_delta ());
          Alcotest.test_case "full/delta counters" `Quick test_problem_counters;
        ] );
      ( "lambda",
        [
          Alcotest.test_case "SLA commit sequences" `Quick test_lambda_sequences;
        ] );
      ( "ecmp",
        [
          Alcotest.test_case "oracle = Evaluate/Eval_ctx loads" `Quick
            test_ecmp_oracle;
          Alcotest.test_case "asymmetric diamond: 1/2 per hop" `Quick
            test_ecmp_asymmetric_diamond;
        ] );
    ]
