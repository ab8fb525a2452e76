(** ECMP load distribution: project a traffic matrix onto per-arc
    loads under the OSPF forwarding model (even splitting across all
    shortest-path next hops, per destination). *)

val of_matrix :
  ?drop_unroutable:bool ->
  Dtr_graph.Graph.t ->
  dags:Dtr_graph.Spf.dag array ->
  Dtr_traffic.Matrix.t ->
  float array
(** [of_matrix g ~dags tm] returns per-arc loads (indexed by arc id).
    [dags.(t)] must be the shortest-path DAG for destination [t] (as
    from {!Dtr_graph.Spf.all_destinations}).

    Demand between a pair with no path raises [Invalid_argument]
    unless [drop_unroutable] is set (default [false]), in which case
    it is silently discarded.
    @raise Invalid_argument on a matrix/graph size mismatch. *)

val node_throughflow :
  Dtr_graph.Graph.t ->
  dag:Dtr_graph.Spf.dag ->
  demand_to_dst:float array ->
  float array
(** Per-node total flow towards [dag.dst] (own demand plus transit),
    the intermediate quantity of the even-split recursion.  Exposed for
    tests (flow conservation checks). *)

val destination_loads :
  Dtr_graph.Graph.t ->
  dag:Dtr_graph.Spf.dag ->
  demand_to_dst:float array ->
  float array
(** One destination's per-arc load contribution: the even-split
    projection of [demand_to_dst] onto the dag's arcs.  {!of_matrix} is
    the sum of these over all destinations in ascending order, which is
    exactly how the incremental engine ({!Eval_ctx}) patches totals —
    each arc receives at most one share per destination, so subtotals
    recombine bitwise-identically. *)

val destination_loads_into :
  Dtr_graph.Graph.t ->
  dag:Dtr_graph.Spf.dag ->
  demand_to_dst:float array ->
  flow:float array ->
  contrib:float array ->
  unit
(** Arena variant of {!destination_loads}: writes the contribution
    into the caller-owned [contrib] row (length >= arc count) using
    [flow] (length >= node count) as flow scratch.  Both buffers are
    fully reinitialized, so they can be reused across destinations;
    the resulting shares are bitwise identical to
    {!destination_loads}.
    @raise Invalid_argument on a length mismatch or undersized
    scratch. *)

val destination_demand :
  ?drop_unroutable:bool ->
  dag:Dtr_graph.Spf.dag ->
  Dtr_traffic.Matrix.t ->
  float array option
(** The demand column towards [dag.dst] ([None] when no source has
    routable positive demand), with {!of_matrix}'s unroutable-pair
    handling.  Reachability does not depend on (positive) weights, so
    the column can be gathered once and reused across re-routings. *)

type scratch
(** Reusable node/arc marks and flow buffers for {!repropagate}, sized
    lazily from the graph.  One per domain. *)

val scratch : unit -> scratch

val repropagate :
  scratch ->
  Dtr_graph.Graph.t ->
  prev:Dtr_graph.Spf.dag ->
  dag:Dtr_graph.Spf.dag ->
  changed:int list ->
  demand_to_dst:float array ->
  flow:float array ->
  contrib:float array ->
  int
(** Sub-DAG flow re-propagation.  [flow] and [contrib] are the node
    flows ({!node_throughflow}) and arc contributions
    ({!destination_loads}) of [demand_to_dst] on [prev]; [dag] is the
    same destination's new dag, differing from [prev] only in the
    next-hop rows and distance labels of the nodes in [changed] (as
    reported by [Dtr_graph.Spf_delta.update_rows]).  Re-propagates flow
    over just those nodes and everything downstream of them in either
    dag, and records every node whose flow and every arc whose
    contribution differs from the given rows ({!moved_flows},
    {!moved_arcs}).  Writing the records over copies of [flow] and
    [contrib] yields, bitwise, {!node_throughflow} and
    {!destination_loads} on [dag]: each affected node's inflow is
    summed in the full walk's order.  Returns the number of nodes
    re-propagated.  Neither row is mutated. *)

val moved_flows : scratch -> int array * float array
(** The last {!repropagate}'s moved nodes and their new flows (fresh
    arrays, each node once). *)

val moved_arcs : scratch -> int array * float array
(** The last {!repropagate}'s moved arcs and their new contributions
    (fresh arrays, each arc once). *)
