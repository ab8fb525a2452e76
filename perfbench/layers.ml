(* Per-layer metrics of the traced run.  Two sources:

   - counters: the program's own Metrics counters and its one [scan]
     span, enabled only around a traced search pass (exact counts);
   - a timed replay: the benchmark calls each layer's public function
     itself on the workload's state at the searches' start and final
     weights, with probes chosen through Ranking.arcs and the
     heavy-tail rank sampler, the way the searches choose them.

   Counter x replay ns/op gives a per-layer time estimate; the part of
   the measured search wall it does not explain is reported as
   [budget.unexplained_share]. *)

module Prng = Dtr_util.Prng
module Metrics = Dtr_util.Metrics
module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Spf_delta = Dtr_graph.Spf_delta
module Loads = Dtr_routing.Loads
module Eval_ctx = Dtr_routing.Eval_ctx
module Evaluate = Dtr_routing.Evaluate
module Failure_sweep = Dtr_routing.Failure_sweep
module Weights = Dtr_routing.Weights
module Fortz = Dtr_cost.Fortz
module Problem = Dtr_core.Problem
module Ranking = Dtr_core.Ranking
module Scan = Dtr_core.Scan
module Dtr_search = Dtr_core.Dtr_search
module Search_config = Dtr_core.Search_config
module Scenario = Dtr_experiments.Scenario

type metric = { name : string; unit : string; value : float; n : int; note : string }

let now = Unix.gettimeofday

let ns_of s = s *. 1e9

(* Wall time of [f ()] in nanoseconds. *)
let time_ns f =
  let t0 = now () in
  let r = f () in
  (ns_of (now () -. t0), r)

(* ------------------------------------------------------------------ *)
(* Counters read back by name (registration is idempotent). *)

let counter name = Metrics.counter ~help:"" name

let counter_names =
  [
    "dtr_spf_runs_total"; "dtr_spf_bucket_pops_total";
    "dtr_spf_delta_updates_total"; "dtr_spf_delta_rebuilds_total";
    "dtr_spf_delta_patches_total"; "dtr_eval_probes_total";
    "dtr_eval_commits_total"; "dtr_eval_fail_probes_total";
    "dtr_eval_full_total"; "dtr_eval_delta_total";
    "dtr_failure_evals_total";
    "dtr_scan_dispatches_total"; "dtr_scan_candidates_total";
    "dtr_scan_memo_served_total"; "dtr_memo_hits_total";
    "dtr_memo_misses_total";
  ]

let read_counters () =
  List.map (fun n -> (n, Metrics.counter_value (counter n))) counter_names

(* Seconds accumulated under every span path ending in [name]. *)
let span_seconds name =
  match Dtr_util.Json.parse (Metrics.to_json ()) with
  | Error e -> failwith ("perfbench: metrics JSON: " ^ e)
  | Ok j -> (
      match Dtr_util.Json.member "spans" j with
      | Some (Dtr_util.Json.Obj kv) ->
          List.fold_left
            (fun acc (path, v) ->
              let leaf =
                match List.rev (String.split_on_char '/' path) with
                | l :: _ -> l
                | [] -> path
              in
              if leaf <> name then acc
              else
                match
                  Option.bind (Dtr_util.Json.member "seconds" v)
                    Dtr_util.Json.to_float
                with
                | Some s -> acc +. s
                | None -> acc)
            0. kv
      | _ -> 0.)

type traced = {
  wall_s : float;  (** STR + DTR search wall of the traced pass *)
  counts : (string * int) list;
  scan_s : float;
  minor_words : float;
  major_collections : int;
  pass : Workload.pass;
}

(* One search pass with the program's metrics on. *)
let traced_pass w s =
  Gc.compact ();
  Metrics.reset ();
  Metrics.set_enabled true;
  let g0 = Gc.quick_stat () in
  let pass =
    Fun.protect
      ~finally:(fun () -> Metrics.set_enabled false)
      (fun () -> Workload.search w s)
  in
  let g1 = Gc.quick_stat () in
  {
    wall_s = pass.Workload.str_s +. pass.Workload.dtr_s;
    counts = read_counters ();
    scan_s = span_seconds "scan";
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    pass;
  }

(* ------------------------------------------------------------------ *)
(* Replay states: the STR and DTR searches' start and final weights. *)

type state = {
  label : string;
  sol : Problem.solution;
  ctx : Eval_ctx.t;  (** context on [sol]'s weights *)
  klasses : int list;  (** classes whose vector the search moves *)
}

let matrices (s : Workload.setup) =
  [| s.Workload.inst.Scenario.th; s.Workload.inst.Scenario.tl |]

let make_state (s : Workload.setup) label ~wh ~wl =
  let problem = s.Workload.problem in
  let g = problem.Problem.graph in
  let str = wh == wl in
  let sol =
    if str then Problem.eval_str problem ~w:wh
    else Problem.eval_dtr problem ~wh ~wl
  in
  let ws = if str then [| wh; wh |] else [| wh; wl |] in
  let ctx =
    Eval_ctx.create ~dest_mode:problem.Problem.dest_mode g ~weights:ws
      ~matrices:(matrices s)
  in
  { label; sol; ctx; klasses = (if str then [ 0 ] else [ 0; 1 ]) }

let states (s : Workload.setup) (p : Workload.pass) =
  let str_w = p.Workload.str.Dtr_core.Str_search.best.Problem.wh in
  let dtr = p.Workload.dtr.Dtr_core.Dtr_search.best in
  [
    make_state s "str-start" ~wh:s.Workload.wh0 ~wl:s.Workload.wh0;
    make_state s "str-final" ~wh:str_w ~wl:str_w;
    make_state s "dtr-start" ~wh:s.Workload.wh0 ~wl:s.Workload.wl0;
    make_state s "dtr-final" ~wh:dtr.Problem.wh ~wl:dtr.Problem.wl;
  ]

type probe = { st : state; klass : int; arc : int; v : int; before : int }

let cls_of klass : Problem.cls = if klass = 0 then `H else `L

(* Value scans of [arcs_per] arcs per state and class, picked the way
   STR picks its arc each iteration: alternately uniformly and through
   the heavy-tail sampler over the Ranking.arcs cost ranking.  (A value
   scan is also the move DTR's passes make with probability
   [scan_probability].) *)
let choose_probes (w : Workload.t) (s : Workload.setup) states ~rng ~arcs_per =
  let problem = s.Workload.problem in
  let m = Graph.arc_count problem.Problem.graph in
  let ht = Dtr_util.Dist.heavy_tail ~tau:w.Workload.cfg.Search_config.tau ~n:m in
  let values =
    List.init
      (Weights.max_weight - Weights.min_weight + 1)
      (fun i -> Weights.min_weight + i)
  in
  List.concat_map
    (fun st ->
      let pctx = Problem.ctx_of_solution problem st.sol in
      List.concat_map
        (fun klass ->
          let cmp =
            if klass = 0 then Problem.ctx_arc_cmp_h problem pctx
            else Problem.ctx_arc_cmp_l problem pctx
          in
          let ranking = Array.copy (Ranking.arcs (Ranking.create ()) pctx ~cmp m) in
          let wv = Eval_ctx.weights_view st.ctx klass in
          List.concat
            (List.init arcs_per (fun i ->
                 let arc =
                   if i mod 2 = 0 then Prng.int rng m
                   else ranking.(Dtr_util.Dist.heavy_tail_sample ht rng - 1)
                 in
                 List.filter_map
                   (fun v ->
                     if v = wv.(arc) then None
                     else Some { st; klass; arc; v; before = wv.(arc) })
                   values)))
        st.klasses)
    states

(* ------------------------------------------------------------------ *)
(* Replays.  Each returns per-call nanoseconds. *)

type probe_class = Screen | Patch | Rerun

let replay_probes probes =
  List.map
    (fun pr ->
      fst
        (time_ns (fun () ->
             let p =
               Eval_ctx.probe pr.st.ctx ~klass:pr.klass
                 ~changes:[ (pr.arc, pr.v) ]
             in
             Eval_ctx.abort pr.st.ctx p)))
    probes

(* Problem.eval_delta on the same probes: [(all, incremental,
   fallback)] per-call times, the last two split by whether the call
   took the incremental path or fell back to a full evaluation. *)
let replay_eval_delta (s : Workload.setup) probes =
  let problem = s.Workload.problem in
  let pctxs = Hashtbl.create 4 in
  let pctx st =
    match Hashtbl.find_opt pctxs st.label with
    | Some c -> c
    | None ->
        let c = Problem.ctx_of_solution problem st.sol in
        Hashtbl.add pctxs st.label c;
        c
  in
  let all = ref [] and delta = ref [] and full = ref [] in
  List.iter
    (fun pr ->
      let c = pctx pr.st in
      let _, f0, _ = Problem.domain_eval_counts () in
      let ns, d =
        time_ns (fun () ->
            Problem.eval_delta problem c ~cls:(cls_of pr.klass)
              ~changes:[ (pr.arc, pr.v) ])
      in
      Problem.abort_delta c d;
      let _, f1, _ = Problem.domain_eval_counts () in
      all := ns :: !all;
      if f1 > f0 then full := ns :: !full else delta := ns :: !delta)
    probes;
  (!all, !delta, !full)

(* Spf_delta.update on each probe's change, which is the screen every
   Eval_ctx.probe starts with.  Its result classifies the probe:
   screen-only (no dirty destination), patch (every dirty destination
   keeps its dist array) or rerun (some dirty destination got a fresh
   dist).  Returns [(ns, class, dirty destinations)] per probe. *)
let replay_spf_delta probes =
  let ws = Spf_delta.workspace () in
  List.map
    (fun pr ->
      let g = Eval_ctx.graph pr.st.ctx in
      let prev = Eval_ctx.dags pr.st.ctx pr.klass in
      let weights = Eval_ctx.weights pr.st.ctx pr.klass in
      weights.(pr.arc) <- pr.v;
      let active = Array.map (fun d -> not (Spf.is_placeholder d)) prev in
      let ns, (dags, dirty) =
        time_ns (fun () ->
            Spf_delta.update ~ws ~active g ~weights ~prev
              ~changes:
                [ { Spf_delta.arc = pr.arc; before = pr.before; after = pr.v } ])
      in
      let cls =
        if dirty = [] then Screen
        else if
          List.for_all (fun t -> dags.(t).Spf.dist == prev.(t).Spf.dist) dirty
        then Patch
        else Rerun
      in
      (ns, cls, List.length dirty))
    probes

(* Every destination row with demand, per state and class. *)
let replay_load_rows states =
  List.concat_map
    (fun st ->
      let g = Eval_ctx.graph st.ctx in
      let flow = Array.make (Graph.node_count g) 0. in
      let contrib = Array.make (Graph.arc_count g) 0. in
      List.concat_map
        (fun klass ->
          let dags = Eval_ctx.dags st.ctx klass in
          List.filter_map
            (fun dst ->
              let demand = Eval_ctx.demand_view st.ctx ~klass ~dst in
              if Array.length demand = 0 then None
              else
                Some
                  (fst
                     (time_ns (fun () ->
                          Loads.destination_loads_into g ~dag:dags.(dst)
                            ~demand_to_dst:demand ~flow ~contrib))))
            (List.init (Graph.node_count g) Fun.id))
        [ 0; 1 ])
    states

let replay_commits probes ~every =
  let clones = Hashtbl.create 4 in
  List.filteri (fun i _ -> i mod every = 0) probes
  |> List.map (fun pr ->
         let c =
           match Hashtbl.find_opt clones pr.st.label with
           | Some c -> c
           | None ->
               let c = Eval_ctx.clone pr.st.ctx in
               Hashtbl.add clones pr.st.label c;
               c
         in
         Eval_ctx.sync ~src:pr.st.ctx ~dst:c;
         let p = Eval_ctx.probe c ~klass:pr.klass ~changes:[ (pr.arc, pr.v) ] in
         fst (time_ns (fun () -> Eval_ctx.commit c p)))

let repeat r f = List.concat (List.init r (fun _ -> f ()))

let replay_create (s : Workload.setup) states ~reps =
  let problem = s.Workload.problem in
  repeat reps (fun () ->
      List.map
        (fun st ->
          let g = Eval_ctx.graph st.ctx in
          let ws =
            if Eval_ctx.shares_group st.ctx 0 1 then
              let w = Eval_ctx.weights st.ctx 0 in
              [| w; w |]
            else [| Eval_ctx.weights st.ctx 0; Eval_ctx.weights st.ctx 1 |]
          in
          fst
            (time_ns (fun () ->
                 Eval_ctx.create ~dest_mode:problem.Problem.dest_mode g
                   ~weights:ws ~matrices:(matrices s))))
        states)

let replay_eval_full (s : Workload.setup) states ~reps =
  let problem = s.Workload.problem in
  repeat reps (fun () ->
      List.map
        (fun st ->
          let wh = st.sol.Problem.wh and wl = st.sol.Problem.wl in
          fst
            (time_ns (fun () ->
                 if wh == wl then Problem.eval_str problem ~w:wh
                 else Problem.eval_dtr problem ~wh ~wl)))
        states)

let replay_for_destinations states ~reps =
  repeat reps (fun () ->
      List.map
        (fun st ->
          let g = Eval_ctx.graph st.ctx in
          let weights = Eval_ctx.weights st.ctx 0 in
          let active =
            Array.map
              (fun d -> not (Spf.is_placeholder d))
              (Eval_ctx.dags st.ctx 0)
          in
          fst (time_ns (fun () -> Spf.for_destinations g ~weights ~active)))
        states)

(* One Phi fold = Fortz.phi over every arc of one class. *)
let replay_fortz states ~reps =
  repeat reps (fun () ->
      List.concat_map
        (fun st ->
          List.map
            (fun klass ->
              let loads = Eval_ctx.loads st.ctx klass in
              let caps = Eval_ctx.capacity_seen_view st.ctx klass in
              fst
                (time_ns (fun () ->
                     let acc = ref 0. in
                     for a = 0 to Array.length loads - 1 do
                       acc :=
                         !acc +. Fortz.phi ~load:loads.(a) ~capacity:caps.(a)
                     done;
                     !acc)))
            [ 0; 1 ])
        states)

let replay_lambda (s : Workload.setup) states ~reps =
  let th = s.Workload.inst.Scenario.th in
  repeat reps (fun () ->
      List.map
        (fun st ->
          let ev = Eval_ctx.to_evaluate st.ctx in
          fst
            (time_ns (fun () ->
                 Evaluate.evaluate_sla Dtr_cost.Sla.default ev ~th)))
        states)

let failure_arcs (a, b) = if a = b then [ a ] else [ a; b ]

let replay_fail_probes states ~rng ~count =
  let dtr = List.filter (fun st -> List.length st.klasses = 2) states in
  List.concat_map
    (fun st ->
      let links = Graph.undirected_link_pairs (Eval_ctx.graph st.ctx) in
      List.init count (fun _ ->
          let arcs = failure_arcs (Prng.choose rng links) in
          fst (time_ns (fun () -> Eval_ctx.fail_probe st.ctx ~arcs))))
    dtr

let replay_sweeps (w : Workload.t) (s : Workload.setup) states ~reps =
  let dtr = List.filter (fun st -> List.length st.klasses = 2) states in
  let th = s.Workload.inst.Scenario.th in
  repeat reps (fun () ->
      List.map
        (fun st ->
          fst
            (time_ns (fun () ->
                 Failure_sweep.sweep ~model:w.Workload.model ~th st.ctx)))
        dtr)

(* Scan dispatch of one value scan, then the winner's commit and the
   ranking repair the next pass starts with, on a context the replay
   owns and advances (as a search would). *)
let replay_scan (s : Workload.setup) probes ~arcs =
  let problem = s.Workload.problem in
  let m = Graph.arc_count problem.Problem.graph in
  Scan.with_engine ~jobs:1 problem @@ fun scan ->
  let eval = ref [] and commit = ref [] and rank = ref [] in
  let by_arc = Hashtbl.create 64 in
  List.iter
    (fun pr ->
      let key = (pr.st.label, pr.klass, pr.arc) in
      Hashtbl.replace by_arc key
        (pr :: Option.value ~default:[] (Hashtbl.find_opt by_arc key)))
    probes;
  let groups =
    Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) by_arc []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.filteri (fun i _ -> i < arcs)
  in
  (* One context per state, one ranking cache per state and ordering
     (as the searches keep one per cost ordering). *)
  let memo tbl key make =
    match Hashtbl.find_opt tbl key with
    | Some x -> x
    | None ->
        let x = make () in
        Hashtbl.add tbl key x;
        x
  in
  let pctxs = Hashtbl.create 4 and caches = Hashtbl.create 8 in
  List.iter
    (fun ((label, klass, _), prs) ->
      let st = (List.hd prs).st in
      let pctx =
        memo pctxs label (fun () -> Problem.ctx_of_solution problem st.sol)
      in
      let rc = memo caches (label, klass) Ranking.create in
      let cls = cls_of klass in
      let cmp () =
        if klass = 0 then Problem.ctx_arc_cmp_h problem pctx
        else Problem.ctx_arc_cmp_l problem pctx
      in
      ignore (Ranking.arcs rc pctx ~cmp:(cmp ()) m);
      (* The committed context moved: re-base the candidates on its
         current weights. *)
      let cur = Problem.ctx_weights_view pctx cls in
      let arc = (List.hd prs).arc in
      let values =
        Array.of_list
          (List.filter (fun v -> v <> cur.(arc))
             (List.init
                (Weights.max_weight - Weights.min_weight + 1)
                (fun i -> Weights.min_weight + i)))
      in
      let n = Array.length values in
      let ns, summaries =
        time_ns (fun () ->
            Scan.evaluate scan pctx ~cls
              ~changes_of:(fun i -> [ (arc, values.(i)) ])
              n)
      in
      eval := ns :: !eval;
      (* Commit the scan's best candidate, as the search would. *)
      let best = ref 0 in
      Array.iteri
        (fun i (x : Scan.summary) ->
          if
            Dtr_cost.Lexico.compare x.Scan.objective
              summaries.(!best).Scan.objective
            < 0
          then best := i)
        summaries;
      let ns, _ =
        time_ns (fun () ->
            Scan.commit scan pctx ~cls ~changes:[ (arc, values.(!best)) ])
      in
      commit := ns :: !commit;
      let ns, _ = time_ns (fun () -> Ranking.arcs rc pctx ~cmp:(cmp ()) m) in
      rank := ns :: !rank)
    groups;
  (!eval, !commit, !rank)

(* Vmemo.find over the replayed probes' Zobrist keys, half of them
   present; ns per lookup from a timed batch. *)
let replay_vmemo (s : Workload.setup) probes ~rounds =
  let problem = s.Workload.problem in
  let bases = Hashtbl.create 4 in
  let keys =
    Array.of_list
      (List.map
         (fun pr ->
           let base =
             match Hashtbl.find_opt bases pr.st.label with
             | Some b -> b
             | None ->
                 let b =
                   Problem.ctx_base_key (Problem.ctx_of_solution problem pr.st.sol)
                 in
                 Hashtbl.add bases pr.st.label b;
                 b
           in
           Dtr_util.Vhash.shift base ~cls:pr.klass ~arc:pr.arc ~before:pr.before
             ~after:pr.v)
         probes)
  in
  let memo = Dtr_util.Vmemo.create () in
  Array.iteri (fun i k -> if i mod 2 = 0 then Dtr_util.Vmemo.add memo k i) keys;
  let hits = ref 0 in
  let ns, () =
    time_ns (fun () ->
        for _ = 1 to rounds do
          Array.iter
            (fun k ->
              match Dtr_util.Vmemo.find memo k with
              | Some _ -> incr hits
              | None -> ())
            keys
        done)
  in
  (ns, rounds * Array.length keys)

let replay_find (w : Workload.t) (s : Workload.setup) states ~rng ~reps =
  let problem = s.Workload.problem in
  let dtr = List.filter (fun st -> List.length st.klasses = 2) states in
  let pass f =
    repeat reps (fun () ->
        List.map
          (fun st ->
            let r = Prng.split rng in
            fst (time_ns (fun () -> f r w.Workload.cfg problem st.sol)))
          dtr)
  in
  (pass Dtr_search.find_h, pass Dtr_search.find_l)
