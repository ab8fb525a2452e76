module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Dijkstra = Dtr_graph.Dijkstra
module Matrix = Dtr_traffic.Matrix

(* The even-split flow recursion shared by every consumer: walk
   order_desc (upstream nodes first, so all transit inflow has arrived
   by the time a node is reached), split each node's flow evenly over
   its next-hop arcs, and report every (arc, share) to [on_arc] before
   forwarding it.  [flow] is mutated in place. *)
let propagate g ~dag ~flow ~on_arc =
  let dsts = Graph.dsts g in
  Array.iter
    (fun v ->
      let out = dag.Spf.next_arcs.(v) in
      let deg = Array.length out in
      if flow.(v) > 0. && deg > 0 then begin
        let share = flow.(v) /. float_of_int deg in
        Array.iter
          (fun id ->
            on_arc id share;
            let u = dsts.(id) in
            if u <> dag.Spf.dst then flow.(u) <- flow.(u) +. share)
          out
      end)
    dag.Spf.order_desc

let no_share _ _ = ()

let node_throughflow g ~dag ~demand_to_dst =
  let n = Graph.node_count g in
  if Array.length demand_to_dst <> n then
    invalid_arg "Loads.node_throughflow: demand length mismatch";
  let flow = Array.copy demand_to_dst in
  flow.(dag.Spf.dst) <- 0.;
  propagate g ~dag ~flow ~on_arc:no_share;
  flow

(* Arena variant: the caller owns [flow] (length >= n) and [contrib]
   (length >= m) and reuses them across destinations; both are fully
   reinitialized here, so stale contents never leak through.  Shares
   must land identically to {!destination_loads}: same propagate walk,
   same accumulation order. *)
let destination_loads_into g ~dag ~demand_to_dst ~flow ~contrib =
  let n = Graph.node_count g in
  if Array.length demand_to_dst <> n then
    invalid_arg "Loads.destination_loads_into: demand length mismatch";
  if Array.length flow < n || Array.length contrib < Graph.arc_count g then
    invalid_arg "Loads.destination_loads_into: scratch too small";
  Array.fill contrib 0 (Graph.arc_count g) 0.;
  Array.blit demand_to_dst 0 flow 0 n;
  flow.(dag.Spf.dst) <- 0.;
  propagate g ~dag ~flow ~on_arc:(fun id share ->
      contrib.(id) <- contrib.(id) +. share)

let destination_loads g ~dag ~demand_to_dst =
  let n = Graph.node_count g in
  if Array.length demand_to_dst <> n then
    invalid_arg "Loads.destination_loads: demand length mismatch";
  let contrib = Array.make (Graph.arc_count g) 0. in
  let flow = Array.make n 0. in
  destination_loads_into g ~dag ~demand_to_dst ~flow ~contrib;
  contrib

module Metrics = Dtr_util.Metrics

let m_subdag =
  Metrics.histogram
    ~help:"Nodes whose flow is re-propagated per re-projected destination row."
    "dtr_loads_subdag_nodes"

(* Scratch of {!repropagate}, sized lazily from the graph; node and arc
   marks are epoch stamps, so nothing is swept between calls.  The
   [out_*] buffers hold the last call's moved node flows and arc
   contributions. *)
type scratch = {
  mutable mark : int array;  (* node: in the affected set *)
  mutable arc_mark : int array;  (* arc: contribution already emitted *)
  mutable nodes : int array;  (* the affected set *)
  mutable new_flow : float array;  (* node: re-propagated flow *)
  mutable ins : int array;  (* one node's contributing in-arcs *)
  mutable out_nodes : int array;
  mutable out_flows : float array;
  mutable out_node_len : int;
  mutable out_arcs : int array;
  mutable out_vals : float array;
  mutable out_arc_len : int;
  mutable len : int;  (* affected nodes in [nodes] *)
  mutable in_arcs : int;  (* their in-arcs: the pull's cost *)
  mutable reachable : int;  (* those in the new order_desc *)
  mutable epoch : int;
}

let scratch () =
  {
    mark = [||];
    arc_mark = [||];
    nodes = [||];
    new_flow = [||];
    ins = [||];
    out_nodes = [||];
    out_flows = [||];
    out_node_len = 0;
    out_arcs = [||];
    out_vals = [||];
    out_arc_len = 0;
    len = 0;
    in_arcs = 0;
    reachable = 0;
    epoch = 0;
  }

let ensure s g =
  let n = Graph.node_count g and m = Graph.arc_count g in
  if Array.length s.mark < n then begin
    s.mark <- Array.make n 0;
    s.nodes <- Array.make n 0;
    s.new_flow <- Array.make n 0.;
    s.out_nodes <- Array.make n 0;
    s.out_flows <- Array.make n 0.
  end;
  if Array.length s.arc_mark < m then begin
    s.arc_mark <- Array.make m 0;
    s.ins <- Array.make m 0;
    s.out_arcs <- Array.make m 0;
    s.out_vals <- Array.make m 0.
  end

(* Add [v] to the affected set (first visit only), seeding its flow
   with its own demand. *)
let visit s ~in_off ~dag ~demand_to_dst v =
  if v <> dag.Spf.dst && s.mark.(v) <> s.epoch then begin
    s.mark.(v) <- s.epoch;
    s.nodes.(s.len) <- v;
    s.len <- s.len + 1;
    s.in_arcs <- s.in_arcs + in_off.(v + 1) - in_off.(v);
    if dag.Spf.dist.(v) <> Dijkstra.unreachable then
      s.reachable <- s.reachable + 1;
    s.new_flow.(v) <- demand_to_dst.(v)
  end

let rec visit_all s ~in_off ~dag ~demand_to_dst = function
  | [] -> ()
  | v :: rest ->
      visit s ~in_off ~dag ~demand_to_dst v;
      visit_all s ~in_off ~dag ~demand_to_dst rest

let emit_arc s id v =
  s.out_arcs.(s.out_arc_len) <- id;
  s.out_vals.(s.out_arc_len) <- v;
  s.out_arc_len <- s.out_arc_len + 1

(* Flow changes only at nodes whose next-hop row or label changed and
   downstream of them (in the old dag, which loses their flow, and the
   new one, which gains it): every other node keeps all its
   contributors, their shares and their order — a moved label moves
   its node in order_desc, which reorders the float sums at its heads,
   so moved nodes seed the walk even when their rows stand.

   Each affected node's flow is summed from its demand over its
   contributing arcs in the order {!propagate} adds them — contributor
   by order_desc, then arc id — so the float sums are bitwise those of
   a full walk.  Two ways produce that order, and the cheaper one for
   the affected set is taken (both are exact, so the choice never
   shows in a result):

   - pull: sort the affected nodes by order_desc and, for each, gather
     the contributing arcs among its in-arcs, insertion-sorted by
     contributor order — O(in-arcs of the affected set);
   - push: walk order_desc up to the last affected node, pushing every
     node's share (re-propagated or committed) into affected heads
     only — O(nodes ahead of it), no sort, no in-arc scan; the cheaper
     choice on dense graphs, where most in-arcs are not in the dag.

   Written as plain loops over the scratch buffers: no float crosses a
   closure, so nothing is boxed. *)
let repropagate s g ~prev ~dag ~changed ~demand_to_dst ~flow ~contrib =
  ensure s g;
  s.epoch <- s.epoch + 1;
  s.out_node_len <- 0;
  s.out_arc_len <- 0;
  let e = s.epoch in
  let dsts = Graph.dsts g and srcs = Graph.srcs g in
  let in_off = Graph.in_offsets g and in_ids = Graph.in_arc_ids g in
  let mark = s.mark and nodes = s.nodes and new_flow = s.new_flow in
  let dist = dag.Spf.dist and next = dag.Spf.next_arcs in
  s.len <- 0;
  s.in_arcs <- 0;
  s.reachable <- 0;
  visit_all s ~in_off ~dag ~demand_to_dst changed;
  let i = ref 0 in
  while !i < s.len do
    let v = nodes.(!i) in
    incr i;
    let r = prev.Spf.next_arcs.(v) in
    for j = 0 to Array.length r - 1 do
      visit s ~in_off ~dag ~demand_to_dst dsts.(r.(j))
    done;
    let r = next.(v) in
    for j = 0 to Array.length r - 1 do
      visit s ~in_off ~dag ~demand_to_dst dsts.(r.(j))
    done
  done;
  let len = s.len in
  let order = dag.Spf.order_desc in
  if s.in_arcs <= Array.length order then begin
    (* Pull. *)
    Spf.sort_order ~dist nodes len;
    let ins = s.ins in
    for oi = 0 to len - 1 do
      let x = nodes.(oi) in
      let dx = dist.(x) in
      let k = ref 0 in
      for j = in_off.(x) to in_off.(x + 1) - 1 do
        let id = in_ids.(j) in
        let z = srcs.(id) in
        (* A contributor lies strictly farther out and lists the arc. *)
        if dist.(z) > dx then begin
          let row = next.(z) in
          let member = ref false in
          for r = 0 to Array.length row - 1 do
            if row.(r) = id then member := true
          done;
          if !member then begin
            let p = ref !k in
            while !p > 0 && Spf.precedes dist z srcs.(ins.(!p - 1)) do
              ins.(!p) <- ins.(!p - 1);
              decr p
            done;
            ins.(!p) <- id;
            incr k
          end
        end
      done;
      let f = ref new_flow.(x) in
      for j = 0 to !k - 1 do
        let z = srcs.(ins.(j)) in
        let fz = if mark.(z) = e then new_flow.(z) else flow.(z) in
        if fz > 0. then f := !f +. (fz /. float_of_int (Array.length next.(z)))
      done;
      new_flow.(x) <- !f
    done
  end
  else begin
    (* Push. *)
    let left = ref s.reachable and oi = ref 0 in
    while !left > 0 do
      let v = order.(!oi) in
      incr oi;
      let mine = mark.(v) = e in
      if mine then decr left;
      let fv = if mine then new_flow.(v) else flow.(v) in
      let out = next.(v) in
      let deg = Array.length out in
      if fv > 0. && deg > 0 then begin
        let share = fv /. float_of_int deg in
        for j = 0 to deg - 1 do
          let u = dsts.(out.(j)) in
          (* The destination is never in the set: it absorbs flow. *)
          if mark.(u) = e then new_flow.(u) <- new_flow.(u) +. share
        done
      end
    done
  end;
  (* Emit: the affected nodes' flows and out-arcs are the only values
     that can move. *)
  let arc_mark = s.arc_mark in
  for oi = 0 to len - 1 do
    let x = nodes.(oi) in
    let f = new_flow.(x) in
    if f <> flow.(x) then begin
      s.out_nodes.(s.out_node_len) <- x;
      s.out_flows.(s.out_node_len) <- f;
      s.out_node_len <- s.out_node_len + 1
    end;
    let out = next.(x) in
    let deg = Array.length out in
    let share = if f > 0. && deg > 0 then f /. float_of_int deg else 0. in
    for j = 0 to deg - 1 do
      let id = out.(j) in
      arc_mark.(id) <- e;
      if share <> contrib.(id) then emit_arc s id share
    done;
    let old = prev.Spf.next_arcs.(x) in
    for j = 0 to Array.length old - 1 do
      let id = old.(j) in
      if arc_mark.(id) <> e && contrib.(id) <> 0. then emit_arc s id 0.
    done
  done;
  if Metrics.enabled () then Metrics.observe m_subdag (float_of_int len);
  len

let moved_flows s =
  (Array.sub s.out_nodes 0 s.out_node_len, Array.sub s.out_flows 0 s.out_node_len)

let moved_arcs s =
  (Array.sub s.out_arcs 0 s.out_arc_len, Array.sub s.out_vals 0 s.out_arc_len)

let destination_demand ?(drop_unroutable = false) ~dag tm =
  let n = Matrix.size tm in
  let t = dag.Spf.dst in
  let demand = Array.make n 0. in
  let any = ref false in
  (* Column walk in ascending source order: O(column entries) on a
     sparse matrix, and identical to the former full row scan (zero
     entries contributed nothing). *)
  Matrix.iter_col tm t (fun s r ->
      if s <> t then begin
        if dag.Spf.dist.(s) = Dijkstra.unreachable then begin
          if not drop_unroutable then
            invalid_arg (Printf.sprintf "Loads.of_matrix: no path %d -> %d" s t)
        end
        else begin
          demand.(s) <- r;
          any := true
        end
      end);
  if !any then Some demand else None

let of_matrix ?(drop_unroutable = false) g ~dags tm =
  let n = Graph.node_count g in
  if Matrix.size tm <> n then invalid_arg "Loads.of_matrix: size mismatch";
  if Array.length dags <> n then invalid_arg "Loads.of_matrix: dags length mismatch";
  let m = Graph.arc_count g in
  let loads = Array.make m 0. in
  for t = 0 to n - 1 do
    let dag = dags.(t) in
    if dag.Spf.dst <> t then invalid_arg "Loads.of_matrix: dag/destination mismatch";
    match destination_demand ~drop_unroutable ~dag tm with
    | None -> ()
    | Some demand ->
        let contrib = destination_loads g ~dag ~demand_to_dst:demand in
        for a = 0 to m - 1 do
          loads.(a) <- loads.(a) +. contrib.(a)
        done
  done;
  loads
