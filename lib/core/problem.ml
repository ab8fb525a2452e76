module Graph = Dtr_graph.Graph
module Matrix = Dtr_traffic.Matrix
module Objective = Dtr_routing.Objective
module Eval_ctx = Dtr_routing.Eval_ctx
module Lambda = Dtr_routing.Lambda
module Lexico = Dtr_cost.Lexico

type t = {
  graph : Graph.t;
  th : Matrix.t;
  tl : Matrix.t;
  model : Objective.model;
  dest_mode : Eval_ctx.dest_mode;
}

let create ~graph ~th ~tl ~model =
  let n = Graph.node_count graph in
  if Matrix.size th <> n || Matrix.size tl <> n then
    invalid_arg "Problem.create: matrix size mismatch";
  if not (Graph.is_strongly_connected graph) then
    invalid_arg "Problem.create: graph must be strongly connected";
  { graph; th; tl; model; dest_mode = Eval_ctx.All }

type solution = {
  wh : int array;
  wl : int array;
  objective : Lexico.t;
  dags : Dtr_graph.Spf.dag array array;
}

let objective s = s.objective

(* Evaluation accounting.  Two levels:

   - process-wide totals, kept in [Atomic.t] so concurrent searches on
     a domain pool never lose increments;
   - per-domain counters (domain-local storage, single-writer, no
     contention), which the search loops difference to report their
     own effort — a delta of the *global* counter would absorb
     whatever other domains evaluated concurrently, making report
     fields like [Str_search.report.evaluations] depend on
     scheduling. *)

let eval_count = Atomic.make 0
let full_count = Atomic.make 0
let delta_count = Atomic.make 0

module Metrics = Dtr_util.Metrics

let m_full =
  Metrics.counter ~help:"Full (from-scratch) objective evaluations."
    "dtr_eval_full_total"

let m_delta =
  Metrics.counter ~help:"Incremental (delta) objective evaluations."
    "dtr_eval_delta_total"

type domain_counts = {
  mutable dc_eval : int;
  mutable dc_full : int;
  mutable dc_delta : int;
}

let domain_counts_key =
  Domain.DLS.new_key (fun () -> { dc_eval = 0; dc_full = 0; dc_delta = 0 })

let count_full () =
  Atomic.incr eval_count;
  Atomic.incr full_count;
  Metrics.incr_counter m_full;
  let c = Domain.DLS.get domain_counts_key in
  c.dc_eval <- c.dc_eval + 1;
  c.dc_full <- c.dc_full + 1

let count_delta () =
  Atomic.incr eval_count;
  Atomic.incr delta_count;
  Metrics.incr_counter m_delta;
  let c = Domain.DLS.get domain_counts_key in
  c.dc_eval <- c.dc_eval + 1;
  c.dc_delta <- c.dc_delta + 1

let evaluations () = Atomic.get eval_count

let full_evaluations () = Atomic.get full_count

let delta_evaluations () = Atomic.get delta_count

let domain_evaluations () = (Domain.DLS.get domain_counts_key).dc_eval

(* Transfer plumbing for the parallel scan engine: a scan task
   measures its own domain's counter delta, rolls it back, and the
   engine re-adds the per-task deltas on the calling domain in task
   order — so a report's [evaluations] field is identical for every
   [--scan-jobs].  The process-wide atomics are never adjusted (they
   counted the work exactly once, wherever it ran). *)

let domain_eval_counts () =
  let c = Domain.DLS.get domain_counts_key in
  (c.dc_eval, c.dc_full, c.dc_delta)

let move_domain_counts ~eval ~full ~delta =
  let c = Domain.DLS.get domain_counts_key in
  c.dc_eval <- c.dc_eval + eval;
  c.dc_full <- c.dc_full + full;
  c.dc_delta <- c.dc_delta + delta

let reset_evaluations () =
  Atomic.set eval_count 0;
  Atomic.set full_count 0;
  Atomic.set delta_count 0;
  let c = Domain.DLS.get domain_counts_key in
  c.dc_eval <- 0;
  c.dc_full <- 0;
  c.dc_delta <- 0

let is_str s = s.wh == s.wl

(* ------------------------------------------------------------------ *)
(* Incremental evaluation.

   A [ctx] wraps an {!Eval_ctx.t} with class 0 = H, class 1 = L (for
   STR both classes alias one weight vector, so one probe moves both).
   [eval_delta] scores every candidate as a probe, under both cost
   models.  Under the SLA model a change that moves W_H is priced by
   {!Lambda.probe} against the context's Λ state (re-walking only the
   destinations whose DAG or delays the probe moved); a W_L change
   leaves Λ at the context's value. *)

type cls = [ `H | `L ]

module Vhash = Dtr_util.Vhash

type ctx = {
  ec : Eval_ctx.t;
  c_str : bool;
  mutable c_lam : Lambda.t option;
      (* Λ state of the context's CURRENT high-priority routing (SLA
         model), built on first demand and replaced whenever a commit
         moves W_H; immutable, so clones share it *)
  mutable c_scratch : Lambda.scratch option;
      (* this context's own Λ probe workspace (never shared) *)
  mutable c_version : int;  (* bumps on every commit *)
  mutable c_log : (int * int array) list;
      (* newest-first (version, arcs whose per-arc rows that commit
         moved); bounded, so a reader lagging past it sees the gap and
         recomputes from scratch *)
  mutable c_key : int option;
      (* Zobrist base key of the current weight vectors (both classes),
         shifted per change on commits; None until first demanded *)
}

let ctx_of_solution t s =
  let weights = if is_str s then [| s.wh; s.wh |] else [| s.wh; s.wl |] in
  {
    ec =
      Eval_ctx.create ~dags:s.dags ~dest_mode:t.dest_mode t.graph ~weights
        ~matrices:[| t.th; t.tl |];
    c_str = is_str s;
    c_lam = None;
    c_scratch = None;
    c_version = 0;
    c_log = [];
    c_key = None;
  }

(* The one from-scratch evaluation: a context built from the weights
   (its SPF sweep over [dest_mode]'s destinations, then both classes'
   loads).  A physically shared [wh == wl] forms one group — STR. *)
let ctx_of_weights t ~wh ~wl =
  count_full ();
  {
    ec =
      Eval_ctx.create ~dest_mode:t.dest_mode t.graph ~weights:[| wh; wl |]
        ~matrices:[| t.th; t.tl |];
    c_str = wh == wl;
    c_lam = None;
    c_scratch = None;
    c_version = 0;
    c_log = [];
    c_key = None;
  }

let ctx_is_str ctx = ctx.c_str

let ctx_engine ctx = ctx.ec

let ctx_weights ctx cls =
  Eval_ctx.weights ctx.ec (match cls with `H -> 0 | `L -> 1)

let ctx_weights_view ctx cls =
  Eval_ctx.weights_view ctx.ec (match cls with `H -> 0 | `L -> 1)

let ctx_version ctx = ctx.c_version

(* Commits a reader may lag behind before incremental repair stops
   paying for itself; past this the log is dropped from the tail and
   stale readers recompute from scratch. *)
let log_bound = 32

let ctx_changes_since ctx ~since =
  if since > ctx.c_version then None
  else
    let rec go acc expect log =
      if expect = since then Some (Array.of_list acc)
      else
        match log with
        | [] -> None
        | (v, arcs) :: rest ->
            if v <> expect then None
            else
              go
                (Array.fold_left (fun acc a -> a :: acc) acc arcs)
                (expect - 1) rest
    in
    go [] ctx.c_version ctx.c_log

(* Same construction as Scan's former per-scan rehash: XOR of both
   class vectors, each hashed under its own cls tag (for STR both
   classes view one vector, hashed twice under cls 0 and 1). *)
let compute_base_key ctx =
  let wh = Eval_ctx.weights_view ctx.ec 0 in
  let wl = Eval_ctx.weights_view ctx.ec 1 in
  Vhash.vector ~cls:0 wh lxor Vhash.vector ~cls:1 wl

let ctx_base_key ctx =
  match ctx.c_key with
  | Some k -> k
  | None ->
      let k = compute_base_key ctx in
      ctx.c_key <- Some k;
      k

let ctx_base_key_fresh ctx = compute_base_key ctx

let clone_ctx _t ctx =
  {
    ec = Eval_ctx.clone ctx.ec;
    c_str = ctx.c_str;
    c_lam = ctx.c_lam;
    c_scratch = None;
    c_version = ctx.c_version;
    c_log = ctx.c_log;
    c_key = ctx.c_key;
  }

let sync_ctx ~src ~dst =
  if src.c_str <> dst.c_str then
    invalid_arg "Problem.sync_ctx: class-sharing mismatch";
  Eval_ctx.sync ~src:src.ec ~dst:dst.ec;
  dst.c_lam <- src.c_lam;
  dst.c_version <- src.c_version;
  dst.c_log <- src.c_log;
  dst.c_key <- src.c_key

let ctx_lambda params t ctx =
  match ctx.c_lam with
  | Some lam -> lam
  | None ->
      let lam = Lambda.of_ctx params ~th:t.th ctx.ec in
      ctx.c_lam <- Some lam;
      lam

let ctx_scratch lam ctx =
  match ctx.c_scratch with
  | Some sc -> sc
  | None ->
      let sc = Lambda.scratch lam in
      ctx.c_scratch <- Some sc;
      sc

(* The objective read off the context's rows: the Φ row, with Λ of
   its high-priority routing as the primary under the SLA model. *)
let ctx_objective t ctx =
  let phi = Eval_ctx.phi ctx.ec in
  let primary =
    match t.model with
    | Objective.Load -> phi.(0)
    | Objective.Sla params -> Lambda.lambda (ctx_lambda params t ctx)
  in
  Lexico.make ~primary ~secondary:phi.(1)

let ctx_solution t ctx =
  let wh = Eval_ctx.weights ctx.ec 0 in
  let wl = if ctx.c_str then wh else Eval_ctx.weights ctx.ec 1 in
  {
    wh;
    wl;
    objective = ctx_objective t ctx;
    dags = [| Eval_ctx.dags ctx.ec 0; Eval_ctx.dags ctx.ec 1 |];
  }

let ctx_result t ctx =
  let sla =
    match t.model with
    | Objective.Load -> None
    | Objective.Sla params -> Some (Lambda.to_sla (ctx_lambda params t ctx))
  in
  Objective.of_eval t.model (Eval_ctx.to_evaluate ctx.ec) ~th:t.th ?sla ()

(* [eval_dtr] copies a shared array, so [~wh:w ~wl:w] stays DTR. *)
let eval_dtr t ~wh ~wl =
  let wl = if wh == wl then Array.copy wl else wl in
  ctx_solution t (ctx_of_weights t ~wh ~wl)

let eval_str t ~w = ctx_solution t (ctx_of_weights t ~wh:w ~wl:w)

let weight_changes base w' =
  if Array.length base <> Array.length w' then
    invalid_arg "Problem.weight_changes: length mismatch";
  let acc = ref [] in
  for i = Array.length base - 1 downto 0 do
    if base.(i) <> w'.(i) then acc := (i, w'.(i)) :: !acc
  done;
  !acc

type delta = {
  d_cls : cls;
  d_changes : (int * int) list;  (* the candidate's (arc, weight) changes *)
  d_probe : Eval_ctx.probe;
  d_objective : Lexico.t;
  d_phi_h : float;
  d_phi_l : float;
}

let delta_objective d = d.d_objective

let delta_phi_h d = d.d_phi_h

let delta_phi_l d = d.d_phi_l

let moves_h ctx cls = ctx.c_str || cls = `H

let eval_delta ?(count = true) t ctx ~cls ~changes =
  if count then count_delta ();
  let p =
    Eval_ctx.probe ctx.ec ~klass:(match cls with `H -> 0 | `L -> 1) ~changes
  in
  let phi = Eval_ctx.probe_phi p in
  let primary =
    match t.model with
    | Objective.Load -> phi.(0)
    | Objective.Sla params ->
        let lam = ctx_lambda params t ctx in
        if moves_h ctx cls then Lambda.probe lam (ctx_scratch lam ctx) ctx.ec p
        else
          (* W_L cannot affect the H routing, so Λ is the context's. *)
          Lambda.lambda lam
  in
  {
    d_cls = cls;
    d_changes = changes;
    d_probe = p;
    d_objective = Lexico.make ~primary ~secondary:phi.(1);
    d_phi_h = phi.(0);
    d_phi_l = phi.(1);
  }

(* Arc rankings for neighborhood construction, read from the live
   context's rows (shared, replaced-not-mutated on commit) instead of
   materializing m Lexico cost records per iteration: Lexico.compare
   without a tolerance is Float.compare on the primary, then the
   secondary. *)

let ctx_arc_cmp_h t ctx =
  let phi_l = Eval_ctx.phi_per_arc ctx.ec 1 in
  match t.model with
  | Objective.Load ->
      let phi_h = Eval_ctx.phi_per_arc ctx.ec 0 in
      fun a b ->
        let c = Float.compare phi_h.(a) phi_h.(b) in
        if c <> 0 then c else Float.compare phi_l.(a) phi_l.(b)
  | Objective.Sla params ->
      let delay = Lambda.arc_delay (ctx_lambda params t ctx) in
      fun a b ->
        let c = Float.compare delay.(a) delay.(b) in
        if c <> 0 then c else Float.compare phi_l.(a) phi_l.(b)

let ctx_arc_cmp_l _t ctx =
  let phi_l = Eval_ctx.phi_per_arc ctx.ec 1 in
  fun a b -> Float.compare phi_l.(a) phi_l.(b)

(* Shift the cached base key across a probe commit.  Must run before
   the weights move: before-values come from the live views.  A change
   list may revisit an arc, so earlier entries shadow the view. *)
let shift_key ctx ~cls ~changes =
  match ctx.c_key with
  | None -> ()
  | Some k ->
      let view = ctx_weights_view ctx cls in
      let k = ref k in
      let applied = ref [] in
      List.iter
        (fun (arc, v) ->
          let before =
            match List.assoc_opt arc !applied with
            | Some b -> b
            | None -> view.(arc)
          in
          if before <> v then
            if ctx.c_str then begin
              k := Vhash.shift !k ~cls:0 ~arc ~before ~after:v;
              k := Vhash.shift !k ~cls:1 ~arc ~before ~after:v
            end
            else begin
              let ci = match cls with `H -> 0 | `L -> 1 in
              k := Vhash.shift !k ~cls:ci ~arc ~before ~after:v
            end;
          applied := (arc, v) :: !applied)
        changes;
      ctx.c_key <- Some !k

let trim_log log =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | e :: rest -> e :: take (n - 1) rest
  in
  take log_bound log

let commit_delta ctx d =
  shift_key ctx ~cls:d.d_cls ~changes:d.d_changes;
  let touched = Array.of_list (Eval_ctx.probe_touched d.d_probe) in
  (match ctx.c_lam with
  | Some lam when moves_h ctx d.d_cls ->
      ctx.c_lam <-
        Some (Lambda.commit lam (ctx_scratch lam ctx) ctx.ec d.d_probe)
  | _ -> ());
  Eval_ctx.commit ctx.ec d.d_probe;
  ctx.c_version <- ctx.c_version + 1;
  ctx.c_log <- trim_log ((ctx.c_version, touched) :: ctx.c_log);
  d.d_objective

let abort_delta ctx d = Eval_ctx.abort ctx.ec d.d_probe

(* ------------------------------------------------------------------ *)
(* Failure-robust pricing: one single-link sweep against the context's
   current weights, aggregated into the robust objective
   J = normal + alpha * penalty.  The sweep runs sequentially on the
   calling domain.  The searches sweep only candidates whose normal
   cost beats the robust best (J >= normal), and a sweep given that
   best stops as soon as its penalty bound already loses to it. *)

module Failure_sweep = Dtr_routing.Failure_sweep

type robust_price = {
  rp_objective : Lexico.t;  (* J = normal + alpha * penalty *)
  rp_penalty : Lexico.t;  (* mean of the top_k worst finite failures *)
  rp_infinite : int;  (* failures priced as infinite (severed demand) *)
  rp_complete : bool;  (* false: a cut-short sweep, the fields are bounds *)
}

type failure_order = { mutable fo_links : int array }

let failure_order t =
  let links = Graph.undirected_link_pairs t.graph in
  { fo_links = Array.init (Array.length links) Fun.id }

let failure_outcomes ?pool t ctx =
  Failure_sweep.sweep ?pool ~model:t.model ~th:t.th ctx.ec

(* Finite outcomes in descending Lexico order, infinite ones last;
   the stable sort keeps ties in link order. *)
let worst_first (outcomes : Failure_sweep.outcome array) =
  let order = Array.init (Array.length outcomes) Fun.id in
  Array.stable_sort
    (fun i j ->
      let a = outcomes.(i) and b = outcomes.(j) in
      match (Failure_sweep.is_finite a, Failure_sweep.is_finite b) with
      | true, true ->
          Lexico.compare b.Failure_sweep.cost a.Failure_sweep.cost
      | true, false -> -1
      | false, true -> 1
      | false, false -> 0)
    order;
  order

let move_to_front order link =
  let rec pos p = if order.(p) = link then p else pos (p + 1) in
  let p = pos 0 in
  Array.blit order 0 order 1 p;
  order.(0) <- link

(* Insert [x] into the descending list [l], keeping its [k] largest. *)
let insert_top k x l =
  let rec ins = function
    | y :: rest when x < y -> y :: ins rest
    | l -> x :: l
  in
  List.filteri (fun i _ -> i < k) (ins l)

let robust_price ?best ?order t ctx ~alpha ~top_k ~normal =
  if top_k < 1 then invalid_arg "Problem.robust_price: top_k must be >= 1";
  (* Lower bound on J's primary from the failures priced so far: Φ
     and Λ are >= 0 and infinite outcomes stay out of the penalty, so
     the top_k largest finite primaries seen, summed and divided by
     top_k, never exceed the final penalty's primary. *)
  let top = ref [] and infinite = ref 0 and last = ref (-1) in
  let pen_bound = ref 0. and bound = ref normal.Lexico.primary in
  let stop link (o : Failure_sweep.outcome) =
    last := link;
    if not (Failure_sweep.is_finite o) then begin
      incr infinite;
      false
    end
    else begin
      top := insert_top top_k o.Failure_sweep.cost.Lexico.primary !top;
      pen_bound := List.fold_left ( +. ) 0. !top /. float_of_int top_k;
      bound := normal.Lexico.primary +. (alpha *. !pen_bound);
      match best with
      | None -> false
      | Some (b : Lexico.t) ->
          (* Twice the comparison tolerance: the bound is only a bound,
             and Lexico.lt's tolerance is not transitive. *)
          let tol =
            2. *. Search_config.rel_tol
            *. Float.max 1.
                 (Float.max (Float.abs !bound) (Float.abs b.Lexico.primary))
          in
          !bound > b.Lexico.primary +. tol
    end
  in
  let visit = Option.map (fun o -> o.fo_links) order in
  match
    Failure_sweep.sweep_until ~model:t.model ?order:visit ~stop ~th:t.th ctx.ec
  with
  | Some outcomes ->
      Option.iter (fun o -> o.fo_links <- worst_first outcomes) order;
      let penalty = Failure_sweep.penalty ~top_k outcomes in
      {
        rp_objective = Lexico.add normal (Lexico.scale alpha penalty);
        rp_penalty = penalty;
        rp_infinite = Failure_sweep.infinite_count outcomes;
        rp_complete = true;
      }
  | None ->
      Option.iter (fun o -> move_to_front o.fo_links !last) order;
      {
        rp_objective =
          Lexico.make ~primary:!bound ~secondary:normal.Lexico.secondary;
        rp_penalty = Lexico.make ~primary:!pen_bound ~secondary:0.;
        rp_infinite = !infinite;
        rp_complete = false;
      }
