module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Dijkstra = Dtr_graph.Dijkstra
module Matrix = Dtr_traffic.Matrix
module Sla = Dtr_cost.Sla
module Metrics = Dtr_util.Metrics

let m_dests =
  Metrics.counter
    ~help:"Destinations whose expected-delay vector a Lambda probe re-walked."
    "dtr_sla_rewalk_dests_total"

let m_nodes =
  Metrics.counter ~help:"Nodes re-walked by Lambda probes."
    "dtr_sla_rewalk_nodes_total"

(* What every state of one problem shares: the arc constants the delay
   formula reads and the high-priority pairs in Matrix.pairs order. *)
type shape = {
  params : Sla.params;
  graph : Graph.t;
  tails : int array;
  heads : int array;
  caps : float array;
  props : float array;
  pair_src : int array;
  pair_dst : int array;
  dsts : int array;  (* ascending destinations with at least one pair *)
}

type t = {
  shape : shape;
  arc_delay : float array;
  dags : Spf.dag array;  (* the high-priority DAGs [xi] was walked on *)
  xi : float array array;  (* dest -> ξ; [||] outside [shape.dsts] *)
  pair_delay : float array;
  lambda : float;
  violations : int;
  unreachable : int;
  worst : float;
}

(* The probe workspace.  [s_delay] is [s_base]'s delay row with the
   last probe's moved arcs ([s_moved]) written over it; re-walked
   destinations ([s_rew]) own pool rows ([s_slot] maps a destination
   to its row, -1 elsewhere).  Floats live in [s_tot] (Λ, worst
   delay) so that writing them does not box. *)
type scratch = {
  mutable s_base : t;
  mutable s_last : Eval_ctx.probe option;
  s_delay : float array;
  s_moved : int array;
  mutable s_nmoved : int;
  s_slot : int array;
  s_rew : int array;
  mutable s_nrew : int;
  mutable s_pool : float array array;
  s_pair : float array;
  s_tot : float array;
  mutable s_violations : int;
  mutable s_unreachable : int;
}

let shape params g ~th =
  let n = Graph.node_count g in
  let pairs = Matrix.pairs th in
  let pair_src = Array.of_list (List.map (fun (s, _, _) -> s) pairs) in
  let pair_dst = Array.of_list (List.map (fun (_, d, _) -> d) pairs) in
  let sinks = Array.make n false in
  Array.iter (fun d -> sinks.(d) <- true) pair_dst;
  let dsts = List.filter (fun d -> sinks.(d)) (List.init n Fun.id) in
  {
    params;
    graph = g;
    tails = Graph.srcs g;
    heads = Graph.dsts g;
    caps = Graph.capacities g;
    props = Graph.delays g;
    pair_src;
    pair_dst;
    dsts = Array.of_list dsts;
  }

let[@inline] link_delay sh a phi_h =
  Sla.link_delay sh.params ~capacity:sh.caps.(a) ~phi_h ~prop_delay:sh.props.(a)

let same_bits x y = Int64.bits_of_float x = Int64.bits_of_float y

(* ξ at order_desc.(0 .. last), nearest first, so every next hop is
   final when read: it is nearer, or it lies outside the re-walked
   prefix and keeps its value.  The per-node sum is
   Delay.expected_to_destination's, term for term; [for] loops, since a
   float ref captured by a closure would box on every update. *)
let walk sh ~delay row (dag : Spf.dag) last =
  let order = dag.Spf.order_desc and next = dag.Spf.next_arcs in
  for i = last downto 0 do
    let v = order.(i) in
    let out = next.(v) in
    let acc = ref 0. in
    for j = 0 to Array.length out - 1 do
      let id = out.(j) in
      acc := !acc +. delay.(id) +. row.(sh.heads.(id))
    done;
    row.(v) <- !acc /. float_of_int (Array.length out)
  done

let walk_fresh sh ~delay row (dag : Spf.dag) =
  Array.fill row 0 (Array.length row) Float.nan;
  row.(dag.Spf.dst) <- 0.;
  walk sh ~delay row dag (Array.length dag.Spf.order_desc - 1)

(* An int loop: Array.mem would go through polymorphic compare. *)
let carries out a =
  let found = ref false in
  for j = 0 to Array.length out - 1 do
    if out.(j) = a then found := true
  done;
  !found

(* Last index of the order_desc prefix whose ξ the moved arcs can
   change — the nodes at least as far as the nearest tail of a moved
   arc in this DAG — or -1 when no moved arc is in it. *)
let stale_prefix sh sc (dag : Spf.dag) =
  let dist = dag.Spf.dist and next = dag.Spf.next_arcs in
  let dmin = ref max_int in
  for i = 0 to sc.s_nmoved - 1 do
    let a = sc.s_moved.(i) in
    let u = sh.tails.(a) in
    if dist.(u) < !dmin && carries next.(u) a then dmin := dist.(u)
  done;
  if !dmin = max_int then -1
  else begin
    let order = dag.Spf.order_desc in
    let i = ref 0 in
    while !i < Array.length order && dist.(order.(!i)) >= !dmin do
      incr i
    done;
    !i - 1
  end

(* The scratch's row for the next re-walked destination [t]. *)
let claim sc t =
  let k = sc.s_nrew in
  if k = Array.length sc.s_pool then begin
    let n = Array.length sc.s_slot in
    sc.s_pool <-
      Array.append sc.s_pool
        (Array.init (max 1 k) (fun _ -> Array.make n Float.nan))
  end;
  sc.s_rew.(k) <- t;
  sc.s_slot.(t) <- k;
  sc.s_nrew <- k + 1;
  sc.s_pool.(k)

(* Every pair in Matrix.pairs order, exactly as Evaluate.sla_of_rows
   folds them. *)
let fold st sc ~(dags : Spf.dag array) =
  let sh = st.shape in
  let params = sh.params in
  let lambda = ref 0. and worst = ref 0. in
  let violations = ref 0 and unreachable = ref 0 in
  for i = 0 to Array.length sh.pair_src - 1 do
    let s = sh.pair_src.(i) and t = sh.pair_dst.(i) in
    let d =
      if dags.(t).Spf.dist.(s) = Dijkstra.unreachable then Float.infinity
      else
        let k = sc.s_slot.(t) in
        if k >= 0 then sc.s_pool.(k).(s) else st.xi.(t).(s)
    in
    sc.s_pair.(i) <- d;
    lambda := !lambda +. Sla.penalty params ~delay:d;
    if Sla.violated params ~delay:d then incr violations;
    if d = Float.infinity then incr unreachable;
    if d > !worst then worst := d
  done;
  sc.s_tot.(0) <- !lambda;
  sc.s_tot.(1) <- !worst;
  sc.s_violations <- !violations;
  sc.s_unreachable <- !unreachable

(* The candidate of [st] under [dags] and the Fortz costs [costs] at
   [arcs] (the committed costs elsewhere), into the scratch. *)
let rewalk st sc ~(dags : Spf.dag array) ~arcs ~costs ~count =
  let sh = st.shape in
  if sc.s_base != st then begin
    Array.blit st.arc_delay 0 sc.s_delay 0 (Array.length st.arc_delay);
    sc.s_base <- st
  end
  else
    for i = 0 to sc.s_nmoved - 1 do
      let a = sc.s_moved.(i) in
      sc.s_delay.(a) <- st.arc_delay.(a)
    done;
  sc.s_nmoved <- 0;
  for i = 0 to Array.length arcs - 1 do
    let a = arcs.(i) in
    let d = link_delay sh a costs.(i) in
    if not (same_bits d st.arc_delay.(a)) then begin
      sc.s_delay.(a) <- d;
      sc.s_moved.(sc.s_nmoved) <- a;
      sc.s_nmoved <- sc.s_nmoved + 1
    end
  done;
  for k = 0 to sc.s_nrew - 1 do
    sc.s_slot.(sc.s_rew.(k)) <- -1
  done;
  sc.s_nrew <- 0;
  let nodes = ref 0 in
  for j = 0 to Array.length sh.dsts - 1 do
    let t = sh.dsts.(j) in
    let dag = dags.(t) in
    if dag != st.dags.(t) then begin
      walk_fresh sh ~delay:sc.s_delay (claim sc t) dag;
      nodes := !nodes + Array.length dag.Spf.order_desc
    end
    else begin
      let last = stale_prefix sh sc dag in
      if last >= 0 then begin
        let row = claim sc t in
        Array.blit st.xi.(t) 0 row 0 (Array.length row);
        walk sh ~delay:sc.s_delay row dag last;
        nodes := !nodes + last + 1
      end
    end
  done;
  fold st sc ~dags;
  if count && Metrics.enabled () then begin
    Metrics.add m_dests sc.s_nrew;
    Metrics.add m_nodes !nodes
  end

(* The scratch's candidate as a state: re-walked ξ rows and a moved
   delay row are copied, everything else is shared with [st]. *)
let materialize st sc ~dags =
  let xi =
    if sc.s_nrew = 0 then st.xi
    else begin
      let xi = Array.copy st.xi in
      for k = 0 to sc.s_nrew - 1 do
        xi.(sc.s_rew.(k)) <- Array.copy sc.s_pool.(k)
      done;
      xi
    end
  in
  {
    st with
    arc_delay = (if sc.s_nmoved = 0 then st.arc_delay else Array.copy sc.s_delay);
    dags;
    xi;
    pair_delay = Array.copy sc.s_pair;
    lambda = sc.s_tot.(0);
    violations = sc.s_violations;
    unreachable = sc.s_unreachable;
    worst = sc.s_tot.(1);
  }

let scratch st =
  let sh = st.shape in
  let n = Graph.node_count sh.graph and m = Graph.arc_count sh.graph in
  {
    s_base = st;
    s_last = None;
    s_delay = Array.copy st.arc_delay;
    s_moved = Array.make m 0;
    s_nmoved = 0;
    s_slot = Array.make n (-1);
    s_rew = Array.make n 0;
    s_nrew = 0;
    s_pool = [||];
    s_pair = Array.make (Array.length sh.pair_src) 0.;
    s_tot = [| 0.; 0. |];
    s_violations = 0;
    s_unreachable = 0;
  }

let create params g ~th ~dags_h ~phi_h_per_arc =
  let n = Graph.node_count g and m = Graph.arc_count g in
  if Array.length phi_h_per_arc <> m || Array.length dags_h <> n then
    invalid_arg "Lambda.create: length mismatch";
  let sh = shape params g ~th in
  let arc_delay = Array.init m (fun a -> link_delay sh a phi_h_per_arc.(a)) in
  let xi = Array.make n [||] in
  Array.iter
    (fun t ->
      let row = Array.make n Float.nan in
      walk_fresh sh ~delay:arc_delay row dags_h.(t);
      xi.(t) <- row)
    sh.dsts;
  let st =
    {
      shape = sh;
      arc_delay;
      dags = dags_h;
      xi;
      pair_delay = [||];
      lambda = 0.;
      violations = 0;
      unreachable = 0;
      worst = 0.;
    }
  in
  let sc = scratch st in
  fold st sc ~dags:dags_h;
  materialize st sc ~dags:dags_h

let of_ctx params ~th ctx =
  create params (Eval_ctx.graph ctx) ~th ~dags_h:(Eval_ctx.dags ctx 0)
    ~phi_h_per_arc:(Eval_ctx.phi_per_arc ctx 0)

let lambda st = st.lambda

let arc_delay st = st.arc_delay

let xi st dst = st.xi.(dst)

let to_sla st =
  let sh = st.shape in
  {
    Evaluate.arc_delay = st.arc_delay;
    pair_delays =
      List.init (Array.length sh.pair_src) (fun i ->
          (sh.pair_src.(i), sh.pair_dst.(i), st.pair_delay.(i)));
    lambda = st.lambda;
    violations = st.violations;
    unreachable = st.unreachable;
    worst_delay = st.worst;
  }

let candidate st sc ctx p ~count =
  let arcs, costs = Eval_ctx.probe_phi_patch ctx p 0 in
  rewalk st sc ~dags:(Eval_ctx.probe_dags ctx p 0) ~arcs ~costs ~count;
  sc.s_last <- Some p

let probe st sc ctx p =
  candidate st sc ctx p ~count:true;
  sc.s_tot.(0)

let commit st sc ctx p =
  (match sc.s_last with
  | Some q when q == p && sc.s_base == st -> ()
  | _ -> candidate st sc ctx p ~count:false);
  materialize st sc ~dags:(Eval_ctx.probe_dags ctx p 0)
