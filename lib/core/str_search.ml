module Prng = Dtr_util.Prng
module Dist = Dtr_util.Dist
module Vmemo = Dtr_util.Vmemo
module Lexico = Dtr_cost.Lexico
module Objective = Dtr_routing.Objective
module Weights = Dtr_routing.Weights
module Evaluate = Dtr_routing.Evaluate

(* See Dtr_search: tolerant primary comparison enables the
   lexicographic tie-break. *)
let rel_tol = 1e-9

let lex_lt a b = Lexico.lt ~rel_tol a b

type archive_point = { phi_h : float; phi_l : float; w : int array }

type report = {
  best : Problem.solution;
  objective : Lexico.t;
  evaluations : int;
  improvements : int;
  memo_hits : int;
  memo_misses : int;
  archive : archive_point list;
}

let default_iters cfg =
  (* Evaluation-budget parity with Algorithm 1 — and then doubled.
     Algorithm 1 spends (2N + K) passes of m evaluations each, while
     one single-weight-change iteration scans (max_weight - min_weight)
     candidate values; the extra factor of 2 over-provisions the STR
     baseline (it takes fewer, larger steps, so it needs more of them),
     which makes the reported STR/DTR gaps conservative. *)
  let dtr_evals =
    ((2 * cfg.Search_config.n_iters) + cfg.Search_config.k_iters)
    * cfg.Search_config.m_neighbors
  in
  let scan = Weights.max_weight - Weights.min_weight in
  max 1 (2 * dtr_evals / scan)

(* Bounded Pareto archive over (phi_h, phi_l); dominated points are
   discarded, so it stays small in practice.  The size is tracked so
   an insert never walks the list just to count it, and an overflow
   evicts the worst-phi_l point with one fold instead of a sort. *)
let archive_max = 512

type archive = { pts : archive_point list; size : int }

let archive_empty = { pts = []; size = 0 }

(* [w] is a thunk: the weight vector is materialized only when the
   point actually enters the archive.  Dominance is decided from the
   (phi_h, phi_l) pair alone, so laziness cannot change the archive's
   contents — it only skips the O(m) copy for the (vast majority of)
   dominated candidates. *)
let archive_insert ar ~phi_h ~phi_l ~w =
  let dominated_by a = a.phi_h <= phi_h && a.phi_l <= phi_l in
  if List.exists dominated_by ar.pts then ar
  else begin
    let removed = ref 0 in
    let survivors =
      List.filter
        (fun a ->
          if phi_h <= a.phi_h && phi_l <= a.phi_l then begin
            incr removed;
            false
          end
          else true)
        ar.pts
    in
    let pts = { phi_h; phi_l; w = w () } :: survivors in
    let size = ar.size - !removed + 1 in
    if size > archive_max then begin
      (* Evict the first-in-list point of maximal phi_l — the same
         victim the previous stable descending sort dropped. *)
      let _, worst, _ =
        List.fold_left
          (fun (i, wi, wv) a ->
            if a.phi_l > wv then (i + 1, i, a.phi_l) else (i + 1, wi, wv))
          (0, -1, Float.neg_infinity)
          pts
      in
      { pts = List.filteri (fun i _ -> i <> worst) pts; size = size - 1 }
    end
    else { pts; size }
  end

(* Rank arcs straight from the live context's cost rows
   (Problem.ctx_arc_cmp_h) instead of materializing m Lexico records
   from the solution every iteration; the ordering is identical.  The
   ranking itself comes from the [Ranking] cache — repaired from the
   arcs the commits since the last call actually moved, instead of a
   full O(m log m) re-sort — and [ht] is the heavy-tail table over all
   m arcs, hoisted out of the loop (it depends only on (tau, m)). *)
let pick_arc rng cfg ~rcache ~ht ctx problem =
  let n = Dtr_graph.Graph.arc_count problem.Problem.graph in
  if Prng.bool rng then Prng.int rng n
  else begin
    let ranking =
      Ranking.arcs ~reference:cfg.Search_config.reference_loops rcache ctx
        ~cmp:(Problem.ctx_arc_cmp_h problem ctx) n
    in
    ranking.(Dist.heavy_tail_sample ht rng - 1)
  end

let run ?w0 ?iters ?stop ?on_progress ?(trace = Trace.disabled) rng cfg problem
    =
  Search_config.validate cfg;
  let iters = match iters with Some i -> i | None -> default_iters cfg in
  if iters < 1 then invalid_arg "Str_search.run: iters must be positive";
  let eval0, full0, delta0 = Problem.domain_eval_counts () in
  let probe_trace =
    if cfg.Search_config.trace_probes then
      Trace.sample cfg.Search_config.trace_sample trace
    else Trace.disabled
  in
  let mid = (Weights.min_weight + Weights.max_weight) / 2 in
  let w0 =
    match w0 with
    | Some w ->
        (* Out-of-range warm-start weights used to slip through to the
           candidate-value fill below and overflow [vals] (the
           "current value" exclusion never fired); reject them here. *)
        Weights.validate problem.Problem.graph w;
        w
    | None -> Array.make (Dtr_graph.Graph.arc_count problem.Problem.graph) mid
  in
  let track_archive = problem.Problem.model = Objective.Load in
  let archive = ref archive_empty in
  let observe sol =
    if track_archive then begin
      let eval = sol.Problem.result.Objective.eval in
      archive :=
        archive_insert !archive ~phi_h:eval.Evaluate.phi_h
          ~phi_l:eval.Evaluate.phi_l
          ~w:(fun () -> sol.Problem.wh)
    end
  in
  Scan.with_engine ~reference:cfg.Search_config.reference_loops
    ~jobs:cfg.Search_config.scan_jobs problem
  @@ fun scan ->
  (* Per-run memo of evaluated settings; scans consult it in candidate
     order, so hits (and the counters below) are jobs-invariant. *)
  let memo = Vmemo.create () in
  let current = ref (Problem.eval_str problem ~w:w0) in
  let ctx = Problem.ctx_of_solution problem !current in
  observe !current;
  let best = ref !current in
  let robust = cfg.Search_config.robust in
  (* The robust best's objective J = normal + alpha * penalty; in
     normal mode it simply mirrors the best's normal objective, so the
     report can read it unconditionally. *)
  let best_j = ref (Problem.objective !best) in
  let improvements = ref 0 in
  let stall = ref 0 in
  let n_vals = Weights.max_weight - Weights.min_weight in
  let vals = Array.make n_vals 0 in
  (* One iteration-level event, emitted after the acceptance decision;
     every field but the timestamp is a pure function of the
     trajectory (see Trace). *)
  let tell kind ~iteration ~detail ~before ~prev =
    if Trace.enabled trace then begin
      let e, f, d = Problem.domain_eval_counts () in
      Trace.emit trace ~kind ~iteration ~detail
        ~accepted:(not (prev == !current))
        ~before:(Trace.pair before)
        ~after:(Trace.pair (Problem.objective !current))
        ~best:(Trace.pair (Problem.objective !best))
        ~evaluations:(e - eval0) ~full:(f - full0) ~delta:(d - delta0)
        ~memo_hits:(Vmemo.hits memo) ~memo_misses:(Vmemo.misses memo) ()
    end
  in
  let tell_sweep ~iteration ~normal ~(rp : Problem.robust_price) ~accepted =
    if Trace.enabled trace then begin
      let e, f, d = Problem.domain_eval_counts () in
      Trace.emit trace ~kind:Trace.Robust_sweep ~iteration
        ~detail:rp.Problem.rp_infinite ~accepted ~before:(Trace.pair normal)
        ~after:(Trace.pair rp.Problem.rp_objective) ~best:(Trace.pair !best_j)
        ~evaluations:(e - eval0) ~full:(f - full0) ~delta:(d - delta0)
        ~memo_hits:(Vmemo.hits memo) ~memo_misses:(Vmemo.misses memo)
        ~value:rp.Problem.rp_penalty.Dtr_cost.Lexico.primary ()
    end
  in
  (* Robust-mode incumbent update.  A candidate is swept only when its
     normal cost beats the robust best: J >= normal componentwise, so
     nothing better can hide behind a worse normal cost, and the sweep
     frequency decays as the robust best tightens.  [moved] skips
     candidates the iteration left in place (their J was priced when
     they were accepted). *)
  let consider_best ~iteration ~moved ~count =
    match robust with
    | None ->
        if lex_lt (Problem.objective !current) (Problem.objective !best) then begin
          best := !current;
          best_j := Problem.objective !best;
          if count then incr improvements;
          stall := 0
        end
        else incr stall
    | Some r ->
        let normal = Problem.objective !current in
        if moved && lex_lt normal !best_j then begin
          let rp =
            Problem.robust_price problem ctx ~alpha:r.Search_config.alpha
              ~top_k:r.Search_config.top_k ~normal
          in
          let improved = lex_lt rp.Problem.rp_objective !best_j in
          if improved then begin
            best := !current;
            best_j := rp.Problem.rp_objective;
            if count then incr improvements;
            stall := 0
          end
          else incr stall;
          tell_sweep ~iteration ~normal ~rp ~accepted:improved
        end
        else incr stall
  in
  (* Price the starting point so the robust best is comparable from
     iteration one. *)
  (match robust with
  | None -> ()
  | Some r ->
      let normal = Problem.objective !current in
      let rp =
        Problem.robust_price problem ctx ~alpha:r.Search_config.alpha
          ~top_k:r.Search_config.top_k ~normal
      in
      best_j := rp.Problem.rp_objective;
      tell_sweep ~iteration:0 ~normal ~rp ~accepted:true);
  (* Loop-invariant tables: the rank sampler depends only on (tau, m)
     and the ranking cache is repaired across commits — neither is
     rebuilt per iteration. *)
  let ht =
    Dist.heavy_tail ~tau:cfg.Search_config.tau
      ~n:(Dtr_graph.Graph.arc_count problem.Problem.graph)
  in
  let rcache = Ranking.create () in
  let should_stop () = match stop with None -> false | Some f -> f () in
  let iteration = ref 0 in
  while !iteration < iters && not (!iteration > 0 && should_stop ()) do
    incr iteration;
    let iteration = !iteration in
    let arc = pick_arc rng cfg ~rcache ~ht ctx problem in
    let before = Problem.objective !current in
    let prev = !current in
    let w = !current.Problem.wh in
    (* The candidate values for this arc: every in-range weight except
       the current one, ascending — the same order the sequential scan
       visited them in. *)
    let pos = ref 0 in
    for v = Weights.min_weight to Weights.max_weight do
      if v <> w.(arc) then begin
        vals.(!pos) <- v;
        incr pos
      end
    done;
    let summaries =
      Scan.evaluate scan ctx ~memo ~trace:probe_trace ~cls:`H
        ~changes_of:(fun i -> [ (arc, vals.(i)) ])
        n_vals
    in
    (if track_archive then
       Array.iteri
         (fun i (s : Scan.summary) ->
           archive :=
             archive_insert !archive ~phi_h:s.Scan.phi_h ~phi_l:s.Scan.phi_l
               ~w:(fun () ->
                 let w' = Array.copy w in
                 w'.(arc) <- vals.(i);
                 w'))
         summaries);
    (* Replay the sequential argmin fold over the summaries (first
       strict improvement wins — identical tie-break). *)
    let best_i = ref (-1) in
    Array.iteri
      (fun i (s : Scan.summary) ->
        if !best_i < 0 then best_i := i
        else if lex_lt s.Scan.objective summaries.(!best_i).Scan.objective then
          best_i := i)
      summaries;
    (if !best_i >= 0 then
       let s = summaries.(!best_i) in
       if lex_lt s.Scan.objective (Problem.objective !current) then
         current := Scan.commit scan ctx ~cls:`H ~changes:[ (arc, vals.(!best_i)) ]);
    consider_best ~iteration ~moved:(not (prev == !current)) ~count:true;
    tell Trace.Str_scan ~iteration ~detail:arc ~before ~prev;
    if !stall >= cfg.Search_config.diversify_after then begin
      let before = Problem.objective !current in
      let w =
        Weights.perturb rng ~fraction:cfg.Search_config.g1 !current.Problem.wh
      in
      let changes = Problem.weight_changes !current.Problem.wh w in
      let d = Problem.eval_delta problem ctx ~cls:`H ~changes in
      let prev = !current in
      current := Problem.commit_delta problem ctx d;
      observe !current;
      (* A perturbation can land on a point better than the incumbent
         best; it used to be silently dropped (lost if the next scan
         moved away).  Offer it — uncounted, like Dtr_search's
         inter-routine reconciliation — before resetting the stall.
         When the perturbed point doesn't improve, only the stall
         counter moves, and it is re-zeroed right after. *)
      consider_best ~iteration ~moved:true ~count:false;
      stall := 0;
      tell Trace.Diversify ~iteration ~detail:(-1) ~before ~prev
    end;
    match on_progress with
    | None -> ()
    | Some f -> f iteration (Problem.objective !best)
  done;
  {
    best = !best;
    objective = !best_j;
    evaluations = Problem.domain_evaluations () - eval0;
    improvements = !improvements;
    memo_hits = Vmemo.hits memo;
    memo_misses = Vmemo.misses memo;
    archive =
      List.sort (fun a b -> Float.compare a.phi_h b.phi_h) (!archive).pts;
  }

let relaxed_best archive ~epsilon =
  if epsilon < 0. then invalid_arg "Str_search.relaxed_best: negative epsilon";
  match archive with
  | [] -> None
  | archive ->
      let star_h =
        List.fold_left (fun acc a -> Float.min acc a.phi_h) Float.infinity
          archive
      in
      let bound = (1. +. epsilon) *. star_h in
      List.fold_left
        (fun acc a ->
          if a.phi_h <= bound then
            match acc with
            | None -> Some a
            | Some b -> if a.phi_l < b.phi_l then Some a else acc
          else acc)
        None archive
