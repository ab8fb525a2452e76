module Prng = Dtr_util.Prng
module Pool = Dtr_util.Pool
module Lexico = Dtr_cost.Lexico
module Weights = Dtr_routing.Weights

type algo = Str | Dtr | Anneal

let algo_name = function Str -> "str" | Dtr -> "dtr" | Anneal -> "anneal"

type restart = {
  index : int;
  objective : Lexico.t;
  solution : Problem.solution;
  evaluations : int;
  improvements : int;
  iterations : int;
  memo_hits : int;
  memo_misses : int;
  archive : Str_search.archive_point list;
}

type report = {
  best : Problem.solution;
  objective : Lexico.t;
  best_index : int;
  restarts : restart array;
  evaluations : int;
}

let run ?pool ?(jobs = 1) ?(trace = Trace.disabled) ?w0 ?iters ?stop
    ?on_progress ~restarts ~algo rng cfg problem =
  if restarts < 1 then invalid_arg "Multistart.run: restarts must be >= 1";
  Search_config.validate cfg;
  (* Restart 0 is the single run: it searches on the caller's stream as
     it stands, from the caller's start.  Restarts >= 1 draw their
     streams by splitting the master before dispatch, in restart order
     (split 0 is drawn and left unused, so restart i keeps the i-th
     split): the streams are a function of the master seed alone,
     never of worker scheduling. *)
  let rng0 = Prng.copy rng in
  let rngs = Array.init restarts (fun _ -> Prng.split rng) in
  rngs.(0) <- rng0;
  (* Each restart records into its own private ring on whichever domain
     runs it; the rings are replayed into [trace] in restart order
     below, so the merged trace never depends on worker scheduling. *)
  let rings =
    Array.init restarts (fun _ ->
        if Trace.enabled trace then Trace.ring () else Trace.disabled)
  in
  let run_one index =
    let rng = rngs.(index) in
    let trace = rings.(index) in
    let g = problem.Problem.graph in
    let iterations = ref 0 in
    let progress best =
      incr iterations;
      match on_progress with None -> () | Some f -> f best
    in
    let restart ~objective ~solution ~evaluations ~improvements ~memo_hits
        ~memo_misses ~archive =
      {
        index;
        objective;
        solution;
        evaluations;
        improvements;
        iterations = !iterations;
        memo_hits;
        memo_misses;
        archive;
      }
    in
    (* Restarts >= 1 draw their start from their own stream, before
       the search consumes it. *)
    let pair_w0 () =
      if index = 0 then w0
      else
        let wh = Weights.random rng g in
        let wl = Weights.random rng g in
        Some (wh, wl)
    in
    match algo with
    | Str ->
        let w0 =
          if index = 0 then Option.map fst w0 else Some (Weights.random rng g)
        in
        let r =
          Str_search.run ?w0 ?iters ?stop
            ~on_progress:(fun _ best -> progress best)
            ~trace rng cfg problem
        in
        restart ~objective:r.Str_search.objective ~solution:r.Str_search.best
          ~evaluations:r.Str_search.evaluations
          ~improvements:r.Str_search.improvements
          ~memo_hits:r.Str_search.memo_hits
          ~memo_misses:r.Str_search.memo_misses ~archive:r.Str_search.archive
    | Dtr ->
        let r =
          Dtr_search.run ?w0:(pair_w0 ()) ?stop
            ~on_progress:(fun p -> progress p.Dtr_search.best_objective)
            ~trace rng cfg problem
        in
        restart ~objective:r.Dtr_search.objective ~solution:r.Dtr_search.best
          ~evaluations:r.Dtr_search.evaluations
          ~improvements:r.Dtr_search.improvements
          ~memo_hits:r.Dtr_search.memo_hits
          ~memo_misses:r.Dtr_search.memo_misses ~archive:[]
    | Anneal ->
        let r = Anneal_search.run ?w0:(pair_w0 ()) ~trace rng cfg problem in
        restart ~objective:r.Anneal_search.objective
          ~solution:r.Anneal_search.best
          ~evaluations:r.Anneal_search.evaluations
          ~improvements:r.Anneal_search.accepted ~memo_hits:0 ~memo_misses:0
          ~archive:[]
  in
  let restart_results =
    match pool with
    | Some p -> Pool.map p restarts ~f:run_one
    | None -> Pool.run ~jobs restarts ~f:run_one
  in
  (if Trace.enabled trace then
     let best_obj = ref restart_results.(0).objective in
     Array.iteri
       (fun i (r : restart) ->
         Trace.replay rings.(i) ~into:trace ~restart:i;
         let improved = i = 0 || Lexico.compare r.objective !best_obj < 0 in
         if improved then best_obj := r.objective;
         Trace.emit trace ~kind:Trace.Restart_done ~restart:i ~iteration:0
           ~detail:i ~accepted:improved
           ~after:(Trace.pair r.objective)
           ~best:(Trace.pair !best_obj) ())
       restart_results);
  (* Exact comparison (no tolerance): the winner must be a pure
     function of the restart results; ties go to the lower index
     because the fold scans in index order and only replaces on a
     strict improvement. *)
  let best =
    Array.fold_left
      (fun (acc : restart) (r : restart) ->
        if Lexico.compare r.objective acc.objective < 0 then r else acc)
      restart_results.(0) restart_results
  in
  {
    best = best.solution;
    objective = best.objective;
    best_index = best.index;
    restarts = restart_results;
    evaluations =
      Array.fold_left (fun acc (r : restart) -> acc + r.evaluations) 0
        restart_results;
  }
