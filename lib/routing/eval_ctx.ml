module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Spf_delta = Dtr_graph.Spf_delta
module Dijkstra = Dtr_graph.Dijkstra
module Matrix = Dtr_traffic.Matrix
module Fortz = Dtr_cost.Fortz
module Metrics = Dtr_util.Metrics

let m_probes =
  Metrics.counter ~help:"Incremental probes built by evaluation contexts."
    "dtr_eval_probes_total"

let m_commits =
  Metrics.counter ~help:"Probes committed into evaluation contexts."
    "dtr_eval_commits_total"

(* Clone/sync traffic scales with --scan-jobs (one clone per worker,
   one sync per parallel scan per worker), so it is honest but
   scheduling-dependent. *)
let m_clones =
  Metrics.counter ~det:false ~help:"Evaluation-context clones (one per scan worker)."
    "dtr_eval_clones"

let m_syncs =
  Metrics.counter ~det:false
    ~help:"Evaluation-context resynchronizations (blit-only, per parallel scan)."
    "dtr_eval_syncs"

(* Preallocated probe arena: scratch rows sized once from the graph and
   reused by every probe, so a probe allocates only its sparse result.
   [a_w] is the candidate weight vector; [a_loads_s] re-propagates one
   destination row at a time; [a_touched] marks moved arcs (swept back
   to all-false through [a_tbuf] before a probe returns);
   [a_loads]/[a_caps]/[a_phis] hold a class's probe values at touched
   arcs only; [a_slot] and [a_pool] give each re-propagated row of the
   class being re-summed a scratch row holding its probe values at
   touched arcs.  Each clone owns a private arena — scan workers probe
   concurrently on separate domains. *)
type arena = {
  a_w : int array;  (* arc count *)
  a_touched : bool array;  (* arc count; all-false between probes *)
  a_tbuf : int array;  (* arc count: the arcs set in [a_touched] *)
  mutable a_tlen : int;
  a_loads : float array array;  (* class -> arc count *)
  a_caps : float array array;
  a_phis : float array array;
  a_slot : int array;  (* node count; -1 outside a class re-sum *)
  mutable a_pool : float array array;  (* slot -> arc count *)
  a_loads_s : Loads.scratch;
}

let arena g classes =
  let n = Graph.node_count g and m = Graph.arc_count g in
  {
    a_w = Array.make m 0;
    a_touched = Array.make m false;
    a_tbuf = Array.make m 0;
    a_tlen = 0;
    a_loads = Array.init classes (fun _ -> Array.make m 0.);
    a_caps = Array.init classes (fun _ -> Array.make m 0.);
    a_phis = Array.init classes (fun _ -> Array.make m 0.);
    a_slot = Array.make n (-1);
    a_pool = [||];
    a_loads_s = Loads.scratch ();
  }

(* Which destinations a context carries DAGs for: [All] is the classic
   mode; [Demand] builds DAGs only for destinations that actually sink
   positive demand in some member class of the group — at 10k nodes
   all-destination DAG storage alone is gigabytes, while a PoP-gravity
   matrix sinks demand at a few dozen nodes.  Loads and Φ are bitwise
   identical in both modes: destinations without demand contribute
   empty rows either way. *)
type dest_mode = All | Demand

type t = {
  graph : Graph.t;
  class_group : int array;  (* class -> group of classes sharing a weight vector *)
  group_classes : int array array;  (* group -> member classes, ascending *)
  group_w : int array array;  (* group -> current weight vector *)
  group_dags : Spf.dag array array;  (* group -> per-destination DAGs *)
  demand : float array array array;
      (* class -> dest -> per-source demand; [||] when the destination
         has no routable positive demand (fixed for the ctx lifetime:
         reachability is weight-independent) *)
  demand_dsts : int array array;
      (* class -> ascending destinations with a non-empty demand row *)
  contrib : float array array array;
      (* class -> dest -> per-arc load contribution; [||] mirrors demand *)
  flow : float array array array;
      (* class -> dest -> per-node throughflow; [||] mirrors demand *)
  loads : float array array;  (* class -> per-arc totals *)
  capacity_seen : float array array;  (* class -> residual capacity cascade *)
  phi_per_arc : float array array;
  mutable phi : float array;
  ws : Spf_delta.workspace;
  arena : arena;
  active : bool array array option;
      (* group -> demand-bearing destinations; None in All mode *)
  mutable generation : int;
  mutable probes : int;
  mutable commits : int;
}

let class_count t = Array.length t.class_group

let fold_row = Array.fold_left ( +. ) 0.

let create ?dags ?(dest_mode = All) g ~weights ~matrices =
  let classes = Array.length weights in
  if classes < 1 then invalid_arg "Eval_ctx.create: need at least one class";
  if Array.length matrices <> classes then
    invalid_arg "Eval_ctx.create: weights/matrices length mismatch";
  Array.iter (fun w -> Weights.validate g w) weights;
  let n = Graph.node_count g in
  Array.iter
    (fun m ->
      if Matrix.size m <> n then
        invalid_arg "Eval_ctx.create: matrix size mismatch")
    matrices;
  (* Group classes by physically shared weight vectors, as
     Multi.evaluate does: aliased classes are re-routed together. *)
  let class_group = Array.make classes (-1) in
  let groups = ref [] and group_count = ref 0 in
  for k = 0 to classes - 1 do
    let rec find j =
      if j = k then begin
        let gi = !group_count in
        incr group_count;
        groups := (gi, k) :: !groups;
        gi
      end
      else if weights.(j) == weights.(k) then class_group.(j)
      else find (j + 1)
    in
    class_group.(k) <- find 0
  done;
  let group_count = !group_count in
  let group_classes =
    Array.init group_count (fun gi ->
        let members = ref [] in
        for k = classes - 1 downto 0 do
          if class_group.(k) = gi then members := k :: !members
        done;
        Array.of_list !members)
  in
  let group_w =
    Array.init group_count (fun gi -> Array.copy weights.(group_classes.(gi).(0)))
  in
  let dws = Dijkstra.workspace () in
  (* Demand mode: a destination is active for a group when any member
     class sinks positive demand there (a pure matrix property, so it
     can be computed before any SPF runs). *)
  let active =
    match dest_mode with
    | All -> None
    | Demand ->
        Some
          (Array.init group_count (fun gi ->
               let act = Array.make n false in
               Array.iter
                 (fun k -> Matrix.iter matrices.(k) (fun _ t _ -> act.(t) <- true))
                 group_classes.(gi);
               act))
  in
  let group_dags =
    Array.init group_count (fun gi ->
        let first = group_classes.(gi).(0) in
        match dags with
        | Some d when Array.length d.(first) = n -> d.(first)
        | Some _ -> invalid_arg "Eval_ctx.create: dags length mismatch"
        | None -> (
            match active with
            | None -> Spf.all_destinations ~ws:dws g ~weights:group_w.(gi)
            | Some act ->
                Spf.for_destinations ~ws:dws g ~weights:group_w.(gi)
                  ~active:act.(gi)))
  in
  let m = Graph.arc_count g in
  let demand =
    Array.init classes (fun k ->
        let dags = group_dags.(class_group.(k)) in
        Array.init n (fun t ->
            match Loads.destination_demand ~dag:dags.(t) matrices.(k) with
            | Some d -> d
            | None -> [||]))
  in
  let demand_dsts =
    Array.map
      (fun rows ->
        Array.of_list
          (List.filter (fun t -> Array.length rows.(t) > 0) (List.init n Fun.id)))
      demand
  in
  let flow = Array.init classes (fun _ -> Array.make n [||]) in
  let contrib =
    Array.init classes (fun k ->
        let dags = group_dags.(class_group.(k)) in
        Array.init n (fun t ->
            let dem = demand.(k).(t) in
            if Array.length dem = 0 then [||]
            else begin
              let f = Array.make n 0. and c = Array.make m 0. in
              Loads.destination_loads_into g ~dag:dags.(t) ~demand_to_dst:dem
                ~flow:f ~contrib:c;
              flow.(k).(t) <- f;
              c
            end))
  in
  (* Totals as the ascending-destination sum of per-destination
     subtotals — the same association Loads.of_matrix uses, so they are
     bitwise identical to a from-scratch evaluation. *)
  let loads =
    Array.init classes (fun k ->
        let row = Array.make m 0. in
        for t = 0 to n - 1 do
          let c = contrib.(k).(t) in
          if Array.length c > 0 then
            for a = 0 to m - 1 do
              row.(a) <- row.(a) +. c.(a)
            done
        done;
        row)
  in
  let caps = Graph.capacities g in
  let capacity_seen = Array.make classes [||] in
  capacity_seen.(0) <- caps;
  for k = 1 to classes - 1 do
    capacity_seen.(k) <-
      Array.init m (fun a ->
          Float.max (capacity_seen.(k - 1).(a) -. loads.(k - 1).(a)) 0.)
  done;
  let phi_per_arc =
    Array.init classes (fun k ->
        Array.init m (fun a ->
            Fortz.phi ~load:loads.(k).(a) ~capacity:capacity_seen.(k).(a)))
  in
  let phi = Array.map fold_row phi_per_arc in
  {
    graph = g;
    class_group;
    group_classes;
    group_w;
    group_dags;
    demand;
    demand_dsts;
    contrib;
    flow;
    loads;
    capacity_seen;
    phi_per_arc;
    phi;
    ws = Spf_delta.workspace ();
    arena = arena g classes;
    active;
    generation = 0;
    probes = 0;
    commits = 0;
  }

(* Commits replace rows (inner arrays) and never mutate them, so a
   clone only needs its own mutable spine: the outer group/class/dest-
   indexed arrays whose slots commits overwrite, plus a private SPF
   workspace and arena.  Rows, DAGs, demand, the matrices-derived
   structure and the graph are shared with the original.  Clones back a
   scan worker's probes; they are resynchronized from the original with
   [sync] (pure blits) instead of being rebuilt. *)
let clone t =
  Metrics.incr_counter m_clones;
  {
    t with
    group_w = Array.copy t.group_w;
    group_dags = Array.copy t.group_dags;
    contrib = Array.map Array.copy t.contrib;
    flow = Array.map Array.copy t.flow;
    loads = Array.copy t.loads;
    capacity_seen = Array.copy t.capacity_seen;
    phi_per_arc = Array.copy t.phi_per_arc;
    phi = Array.copy t.phi;
    ws = Spf_delta.workspace ();
    arena = arena t.graph (class_count t);
  }

let sync ~src ~dst =
  if
    src.graph != dst.graph
    || Array.length src.group_w <> Array.length dst.group_w
    || class_count src <> class_count dst
  then invalid_arg "Eval_ctx.sync: incompatible contexts";
  Metrics.incr_counter m_syncs;
  Array.blit src.group_w 0 dst.group_w 0 (Array.length src.group_w);
  Array.blit src.group_dags 0 dst.group_dags 0 (Array.length src.group_dags);
  for k = 0 to class_count src - 1 do
    Array.blit src.contrib.(k) 0 dst.contrib.(k) 0 (Array.length src.contrib.(k));
    Array.blit src.flow.(k) 0 dst.flow.(k) 0 (Array.length src.flow.(k))
  done;
  Array.blit src.loads 0 dst.loads 0 (Array.length src.loads);
  Array.blit src.capacity_seen 0 dst.capacity_seen 0 (Array.length src.capacity_seen);
  Array.blit src.phi_per_arc 0 dst.phi_per_arc 0 (Array.length src.phi_per_arc);
  Array.blit src.phi 0 dst.phi 0 (Array.length src.phi);
  dst.generation <- src.generation

(* One re-propagated destination row of a class: the arcs whose
   contribution and the nodes whose throughflow moved, with their new
   values. *)
type row_delta = {
  r_class : int;
  r_dst : int;
  r_arcs : int array;
  r_vals : float array;
  r_nodes : int array;
  r_flows : float array;
}

(* A class's probe values at the touched arcs (aligned with
   [rows.touched]); [c_loads]/[c_caps] are [None] where the committed
   row still holds. *)
type class_delta = {
  c_class : int;
  c_loads : float array option;
  c_caps : float array option;
  c_phis : float array;
}

(* The sparse consequence of re-propagated rows: what {!probe} and
   {!fail_probe} share. *)
type rows = {
  touched : int array;  (* arcs whose load contribution moved *)
  deltas : row_delta list;
  classes : class_delta list;  (* classes from the highest moved one down *)
  phi_vec : float array;
}

(* Re-propagate one dirty destination's flow over the sub-DAG its
   changed nodes reach, marking every arc whose contribution
   moved and keeping the row's sparse delta. *)
let reproject t ~dags ~deltas k (d : Spf_delta.dirty) =
  let dst = d.Spf_delta.dst in
  let dem = t.demand.(k).(dst) in
  if Array.length dem > 0 && d.Spf_delta.changed <> [] then begin
    let ar = t.arena in
    let ls = ar.a_loads_s in
    ignore
      (Loads.repropagate ls t.graph
         ~prev:t.group_dags.(t.class_group.(k)).(dst)
         ~dag:dags.(dst) ~changed:d.Spf_delta.changed ~demand_to_dst:dem
         ~flow:t.flow.(k).(dst) ~contrib:t.contrib.(k).(dst));
    let r_arcs, r_vals = Loads.moved_arcs ls in
    let r_nodes, r_flows = Loads.moved_flows ls in
    for i = 0 to Array.length r_arcs - 1 do
      let a = r_arcs.(i) in
      if not ar.a_touched.(a) then begin
        ar.a_touched.(a) <- true;
        ar.a_tbuf.(ar.a_tlen) <- a;
        ar.a_tlen <- ar.a_tlen + 1
      end
    done;
    if Array.length r_arcs > 0 || Array.length r_nodes > 0 then
      deltas :=
        { r_class = k; r_dst = dst; r_arcs; r_vals; r_nodes; r_flows }
        :: !deltas
  end

(* Class [k]'s probe loads at the touched arcs, into [a_loads.(k)]:
   every touched arc re-summed over the demand destinations in
   ascending order, re-propagated rows read through their pool slots —
   the from-scratch association exactly. *)
let resum t ~touched ~deltas k =
  let ar = t.arena in
  let m = Graph.arc_count t.graph in
  let slots = ref 0 in
  List.iter
    (fun r ->
      if r.r_class = k && Array.length r.r_arcs > 0 then begin
        let s = !slots in
        incr slots;
        if s >= Array.length ar.a_pool then
          ar.a_pool <-
            Array.append ar.a_pool
              (Array.init (max 1 (Array.length ar.a_pool)) (fun _ ->
                   Array.make m 0.));
        let row = ar.a_pool.(s) and c = t.contrib.(k).(r.r_dst) in
        Array.iter (fun a -> row.(a) <- c.(a)) touched;
        Array.iteri (fun i a -> row.(a) <- r.r_vals.(i)) r.r_arcs;
        ar.a_slot.(r.r_dst) <- s
      end)
    deltas;
  let out = ar.a_loads.(k) and dsts = t.demand_dsts.(k) in
  let contrib = t.contrib.(k) and slot_of = ar.a_slot and pool = ar.a_pool in
  for i = 0 to Array.length touched - 1 do
    let a = touched.(i) in
    let s = ref 0. in
    for j = 0 to Array.length dsts - 1 do
      let d = dsts.(j) in
      let slot = slot_of.(d) in
      s := !s +. (if slot >= 0 then pool.(slot).(a) else contrib.(d).(a))
    done;
    out.(a) <- !s
  done;
  List.iter (fun r -> if r.r_class = k then ar.a_slot.(r.r_dst) <- -1) deltas

(* Shared patch tail of {!probe} and {!fail_probe}: from the sparse row
   deltas, the probe's load totals, residual-capacity cascade and
   Fortz costs at the touched arcs, and Φ per class — one full
   ascending fold over the committed row with the touched arcs read
   from the arena, so no row is materialized.  Restores the arena's
   all-false touched invariant. *)
let patch_rows t ~deltas =
  let ar = t.arena in
  let touched = Array.sub ar.a_tbuf 0 ar.a_tlen in
  let classes = class_count t in
  let moved = Array.make classes false in
  List.iter (fun r -> if Array.length r.r_arcs > 0 then moved.(r.r_class) <- true) deltas;
  let kmin = ref classes in
  for k = classes - 1 downto 0 do
    if moved.(k) then begin
      resum t ~touched ~deltas k;
      kmin := k
    end
  done;
  let kmin = !kmin in
  let m = Graph.arc_count t.graph in
  let phi_vec = Array.copy t.phi in
  let class_deltas = ref [] in
  (* Residual-capacity cascade and Fortz costs, patched downward from
     the highest-priority class whose load moved (an H change reshapes
     the residual every lower class is charged against). *)
  for k = kmin to classes - 1 do
    let load k = if moved.(k) then ar.a_loads.(k) else t.loads.(k) in
    let cap k = if k > kmin then ar.a_caps.(k) else t.capacity_seen.(k) in
    if k > kmin then begin
      let above_cap = cap (k - 1) and above_load = load (k - 1) in
      let row = ar.a_caps.(k) in
      Array.iter
        (fun a -> row.(a) <- Float.max (above_cap.(a) -. above_load.(a)) 0.)
        touched
    end;
    let loads_k = load k and caps_k = cap k and phis = ar.a_phis.(k) in
    Array.iter
      (fun a -> phis.(a) <- Fortz.phi ~load:loads_k.(a) ~capacity:caps_k.(a))
      touched;
    let committed = t.phi_per_arc.(k) in
    let acc = ref 0. in
    for a = 0 to m - 1 do
      acc := !acc +. (if ar.a_touched.(a) then phis.(a) else committed.(a))
    done;
    phi_vec.(k) <- !acc;
    let pick row =
      let out = Array.make (Array.length touched) 0. in
      for i = 0 to Array.length touched - 1 do
        out.(i) <- row.(touched.(i))
      done;
      out
    in
    class_deltas :=
      {
        c_class = k;
        c_loads = (if moved.(k) then Some (pick ar.a_loads.(k)) else None);
        c_caps = (if k > kmin then Some (pick ar.a_caps.(k)) else None);
        c_phis = pick phis;
      }
      :: !class_deltas
  done;
  Array.iter (fun a -> ar.a_touched.(a) <- false) touched;
  ar.a_tlen <- 0;
  { touched; deltas; classes = List.rev !class_deltas; phi_vec }

(* A committed row with the probe's values at [idx] written over a
   copy: copy-on-commit (and on demand for the SLA walk). *)
let overlay row idx vals =
  let r = Array.copy row in
  Array.iteri (fun i a -> r.(a) <- vals.(i)) idx;
  r

let class_delta rows k = List.find_opt (fun c -> c.c_class = k) rows.classes

let phi_row_of ~committed rows k =
  match class_delta rows k with
  | Some c -> overlay committed rows.touched c.c_phis
  | None -> committed

type probe = {
  generation : int;
  group : int;
  p_changes : Spf_delta.change list;  (* net changes of the group's vector *)
  p_dags : Spf.dag array;
  p_rows : rows;
}

let probe_phi p = Array.copy p.p_rows.phi_vec

let probe_touched p = Array.to_list p.p_rows.touched

(* Rows a probe did not re-derive are the context's committed ones, so
   both views are only meaningful against the state the probe was
   taken from. *)
let check_probe t name p k =
  if k < 0 || k >= class_count t then
    invalid_arg (Printf.sprintf "Eval_ctx.%s: class out of range" name);
  if p.generation <> t.generation then
    invalid_arg (Printf.sprintf "Eval_ctx.%s: stale probe" name)

let probe_dags t p k =
  check_probe t "probe_dags" p k;
  let gi = t.class_group.(k) in
  if gi = p.group then p.p_dags else t.group_dags.(gi)

let probe_phi_patch t p k =
  check_probe t "probe_phi_patch" p k;
  match class_delta p.p_rows k with
  | Some c -> (p.p_rows.touched, c.c_phis)
  | None -> ([||], [||])

let group_active t gi =
  match t.active with None -> None | Some act -> Some act.(gi)

(* The change list as one net (last-wins) change per arc against the
   group's committed vector, ascending by arc; arcs that end where they
   started drop out. *)
let net_changes t w changes =
  let m = Graph.arc_count t.graph in
  let last =
    List.fold_left
      (fun acc (arc, v) ->
        if arc < 0 || arc >= m then invalid_arg "Eval_ctx.probe: arc out of range";
        if v < Weights.min_weight || v > Weights.max_weight then
          invalid_arg "Eval_ctx.probe: weight out of bounds";
        (arc, v) :: List.remove_assoc arc acc)
      [] changes
  in
  List.sort compare last
  |> List.filter_map (fun (arc, v) ->
         if w.(arc) = v then None
         else Some { Spf_delta.arc; before = w.(arc); after = v })

let probe t ~klass ~changes =
  if klass < 0 || klass >= class_count t then
    invalid_arg "Eval_ctx.probe: class out of range";
  t.probes <- t.probes + 1;
  Metrics.incr_counter m_probes;
  let group = t.class_group.(klass) in
  let w = t.group_w.(group) in
  let spf_changes = net_changes t w changes in
  let new_w = t.arena.a_w in
  Array.blit w 0 new_w 0 (Array.length w);
  List.iter (fun c -> new_w.(c.Spf_delta.arc) <- c.Spf_delta.after) spf_changes;
  let p_dags, dirty =
    Spf_delta.update_rows ~ws:t.ws ?active:(group_active t group) t.graph
      ~weights:new_w ~prev:t.group_dags.(group) ~changes:spf_changes
  in
  let deltas = ref [] in
  Array.iter
    (fun k -> List.iter (reproject t ~dags:p_dags ~deltas k) dirty)
    t.group_classes.(group);
  {
    generation = t.generation;
    group;
    p_changes = spf_changes;
    p_dags;
    p_rows = patch_rows t ~deltas:!deltas;
  }

let commit (t : t) (p : probe) =
  if p.generation <> t.generation then
    invalid_arg "Eval_ctx.commit: stale probe (context has moved on)";
  let w = Array.copy t.group_w.(p.group) in
  List.iter (fun c -> w.(c.Spf_delta.arc) <- c.Spf_delta.after) p.p_changes;
  t.group_w.(p.group) <- w;
  t.group_dags.(p.group) <- p.p_dags;
  let rows = p.p_rows in
  List.iter
    (fun r ->
      let k = r.r_class and d = r.r_dst in
      t.contrib.(k).(d) <- overlay t.contrib.(k).(d) r.r_arcs r.r_vals;
      t.flow.(k).(d) <- overlay t.flow.(k).(d) r.r_nodes r.r_flows)
    rows.deltas;
  List.iter
    (fun c ->
      let k = c.c_class in
      Option.iter (fun v -> t.loads.(k) <- overlay t.loads.(k) rows.touched v) c.c_loads;
      Option.iter
        (fun v -> t.capacity_seen.(k) <- overlay t.capacity_seen.(k) rows.touched v)
        c.c_caps;
      t.phi_per_arc.(k) <- overlay t.phi_per_arc.(k) rows.touched c.c_phis)
    rows.classes;
  t.phi <- rows.phi_vec;
  t.generation <- t.generation + 1;
  t.commits <- t.commits + 1;
  Metrics.incr_counter m_commits

let abort _t _p = ()

(* ------------------------------------------------------------------ *)
(* Failure probes: evaluate the context's current weights with one or
   more arcs suppressed (a link failure), without touching committed
   state.  Unlike {!probe} a failure hits every topology at once, so
   the suppression delta runs through every group's DAGs; unlike
   weight probes the result may be infinite — a failure that severs a
   positive-demand pair cannot be priced by flow re-projection at all
   ([Loads.propagate] would silently drop the severed demand,
   reproducing the optimistic-cost bug one level down), so severed
   probes short-circuit to an infinite objective with the severed-pair
   count attached. *)

let m_fail_probes =
  Metrics.counter ~help:"Failure probes (link-failure delta evaluations)."
    "dtr_eval_fail_probes_total"

type failure = {
  f_unreachable : int;  (* severed positive-demand (class, src, dst) pairs *)
  f_group_dags : Spf.dag array array;  (* group -> post-failure DAGs *)
  f_base_phi : float array array;  (* class -> committed Fortz row at probe time *)
  f_rows : rows option;  (* None when severed *)
  f_phi : float array;  (* class -> post-failure Φ; all ∞ when severed *)
}

let failure_unreachable f = f.f_unreachable

let failure_phi f = Array.copy f.f_phi

let failure_dags t f k =
  if k < 0 || k >= class_count t then
    invalid_arg "Eval_ctx.failure_dags: class out of range";
  f.f_group_dags.(t.class_group.(k))

let failure_phi_row f k =
  if k < 0 || k >= Array.length f.f_base_phi then
    invalid_arg "Eval_ctx.failure_phi_row: class out of range";
  match f.f_rows with
  | None -> invalid_arg "Eval_ctx.failure_phi_row: disconnecting failure has no rows"
  | Some rows -> phi_row_of ~committed:f.f_base_phi.(k) rows k

let fail_probe t ~arcs =
  if arcs = [] then invalid_arg "Eval_ctx.fail_probe: no arcs";
  List.iter
    (fun a ->
      if a < 0 || a >= Graph.arc_count t.graph then
        invalid_arg "Eval_ctx.fail_probe: arc out of range")
    arcs;
  Metrics.incr_counter m_fail_probes;
  let g = t.graph in
  let n = Graph.node_count g in
  let classes = class_count t in
  let groups = Array.length t.group_w in
  let arcs = List.sort_uniq compare arcs in
  let group_dags = Array.make groups [||] in
  let group_dirty = Array.make groups [] in
  for gi = 0 to groups - 1 do
    let w = t.group_w.(gi) in
    let changes =
      List.map
        (fun arc ->
          { Spf_delta.arc; before = w.(arc); after = Dijkstra.suppressed })
        arcs
    in
    let new_w = t.arena.a_w in
    Array.blit w 0 new_w 0 (Array.length w);
    List.iter (fun a -> new_w.(a) <- Dijkstra.suppressed) arcs;
    let dags, dirty =
      Spf_delta.update_rows ~ws:t.ws ?active:(group_active t gi) g
        ~weights:new_w ~prev:t.group_dags.(gi) ~changes
    in
    group_dags.(gi) <- dags;
    group_dirty.(gi) <- dirty
  done;
  (* Severed positive-demand pairs.  Only dirty destinations can change
     reachability, and demand rows were fixed against the no-failure
     topology, so a positive entry at a now-unreachable source is
     exactly a pair this failure cuts off. *)
  let unreachable = ref 0 in
  for k = 0 to classes - 1 do
    let dags = group_dags.(t.class_group.(k)) in
    List.iter
      (fun (d : Spf_delta.dirty) ->
        let dem = t.demand.(k).(d.Spf_delta.dst) in
        if Array.length dem > 0 then begin
          let dist = dags.(d.Spf_delta.dst).Spf.dist in
          for s = 0 to n - 1 do
            if dem.(s) > 0. && dist.(s) = Dijkstra.unreachable then
              incr unreachable
          done
        end)
      group_dirty.(t.class_group.(k))
  done;
  let base =
    {
      f_unreachable = !unreachable;
      f_group_dags = group_dags;
      f_base_phi = Array.copy t.phi_per_arc;
      f_rows = None;
      f_phi = Array.make classes Float.infinity;
    }
  in
  if !unreachable > 0 then base
  else begin
    (* Same re-propagation discipline as {!probe}, over every group. *)
    let deltas = ref [] in
    for k = 0 to classes - 1 do
      let dags = group_dags.(t.class_group.(k)) in
      List.iter (reproject t ~dags ~deltas k) group_dirty.(t.class_group.(k))
    done;
    let rows = patch_rows t ~deltas:!deltas in
    { base with f_rows = Some rows; f_phi = rows.phi_vec }
  end

let phi t = Array.copy t.phi

let graph t = t.graph

let weights t k =
  if k < 0 || k >= class_count t then invalid_arg "Eval_ctx.weights: class out of range";
  Array.copy t.group_w.(t.class_group.(k))

let weights_view t k =
  if k < 0 || k >= class_count t then
    invalid_arg "Eval_ctx.weights_view: class out of range";
  t.group_w.(t.class_group.(k))

let dags t k =
  if k < 0 || k >= class_count t then invalid_arg "Eval_ctx.dags: class out of range";
  t.group_dags.(t.class_group.(k))

let loads t k =
  if k < 0 || k >= class_count t then invalid_arg "Eval_ctx.loads: class out of range";
  t.loads.(k)

let phi_per_arc t k =
  if k < 0 || k >= class_count t then
    invalid_arg "Eval_ctx.phi_per_arc: class out of range";
  t.phi_per_arc.(k)

let check_class_dst t name k dst =
  if k < 0 || k >= class_count t then
    invalid_arg (Printf.sprintf "Eval_ctx.%s: class out of range" name);
  if dst < 0 || dst >= Graph.node_count t.graph then
    invalid_arg (Printf.sprintf "Eval_ctx.%s: destination out of range" name)

let contrib_view t ~klass ~dst =
  check_class_dst t "contrib_view" klass dst;
  t.contrib.(klass).(dst)

let flow_view t ~klass ~dst =
  check_class_dst t "flow_view" klass dst;
  t.flow.(klass).(dst)

let demand_view t ~klass ~dst =
  check_class_dst t "demand_view" klass dst;
  t.demand.(klass).(dst)

let capacity_seen_view t k =
  if k < 0 || k >= class_count t then
    invalid_arg "Eval_ctx.capacity_seen_view: class out of range";
  t.capacity_seen.(k)

let probes t = t.probes

let commits t = t.commits

let shares_group t j k =
  j >= 0 && k >= 0 && j < class_count t && k < class_count t
  && t.class_group.(j) = t.class_group.(k)

let to_evaluate t =
  if class_count t <> 2 then invalid_arg "Eval_ctx.to_evaluate: need 2 classes";
  {
    Evaluate.graph = t.graph;
    dags_h = dags t 0;
    dags_l = dags t 1;
    h_loads = t.loads.(0);
    l_loads = t.loads.(1);
    residual = t.capacity_seen.(1);
    phi_h_per_arc = t.phi_per_arc.(0);
    phi_l_per_arc = t.phi_per_arc.(1);
    phi_h = t.phi.(0);
    phi_l = t.phi.(1);
  }

let to_multi t =
  {
    Multi.graph = t.graph;
    dags = Array.init (class_count t) (dags t);
    loads = Array.copy t.loads;
    capacity_seen = Array.copy t.capacity_seen;
    phi_per_arc = Array.copy t.phi_per_arc;
    phi = Array.copy t.phi;
  }
