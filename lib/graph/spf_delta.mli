(** Incremental shortest-path recomputation after arc-weight changes.

    Local search probes thousands of single-weight changes per
    iteration; rebuilding all [N] destination DAGs
    ({!Spf.all_destinations}) for each probe wastes almost all of that
    work, because a change to arc [(u, v)] can only affect destinations
    whose distance labels actually move.  {!update} screens every
    destination in O(1) against the previous labels and then either

    - keeps the previous dag (physically shared) when provably
      unaffected,
    - patches only node [u]'s ECMP next-hop set when distances are
      provably unchanged (a weight drop landing exactly on the current
      shortest distance, or a raise of one of several tight arcs), or
    - updates the labels dynamically when distances may move, touching
      only the nodes whose distance moves (Ramalingam–Reps, as in the
      Fortz–Thorup local search): a decrease relaxes backwards from the
      changed arc's tail; an increase (or suppression) of a tight arc
      collects the nodes whose every shortest path used it and
      re-settles just those from their boundary.  Multi-arc change
      lists are replayed one change at a time.

    The new dag is derived from the old one: labels are shared until
    the first one moves, next-hop rows are re-filtered only for
    changed-arc tails, moved nodes and in-neighbours joined to a moved
    node by a tight arc, and the moved nodes are merged back into the
    old traversal order.  Results are structurally identical to a
    from-scratch {!Spf.all_destinations} under the new weights:
    distance labels are the unique shortest distances, and every
    re-filtered next-hop row is built by the very same
    {!Spf.node_next_arcs}.  No full single-destination Dijkstra runs
    here (the [dtr_spf_runs_total] counter only counts those). *)

type change = {
  arc : int;  (** arc id whose weight changed *)
  before : int;  (** weight the [prev] dags were built with *)
  after : int;  (** new weight; must equal [weights.(arc)] *)
}

type workspace
(** Reusable scratch arena (weight replay row, node marks, bucket
    queue) for the dynamic label updates, sized lazily from the graph.
    One per domain: probes running concurrently need separate
    workspaces. *)

val workspace : unit -> workspace

type dirty = {
  dst : int;  (** the re-screened destination *)
  changed : int list;
      (** nodes whose next-hop row or distance label differs from the
          previous dag's (unordered, no duplicates); empty when the dag
          came out unchanged *)
}

val update_rows :
  ?ws:workspace ->
  ?active:bool array ->
  Graph.t ->
  weights:int array ->
  prev:Spf.dag array ->
  changes:change list ->
  Spf.dag array * dirty list
(** {!update} with the changed nodes of every dirty destination:
    exactly the nodes whose forwarding or whose place in the traversal
    order moved, which is where a flow re-propagation
    ([Dtr_routing.Loads.repropagate]) has to start. *)

val update :
  ?ws:workspace ->
  ?active:bool array ->
  Graph.t ->
  weights:int array ->
  prev:Spf.dag array ->
  changes:change list ->
  Spf.dag array * int list
(** [update g ~weights ~prev ~changes] returns the destination DAGs
    under the new [weights] together with the list of {e dirty}
    destinations — those the screen flagged (patched or label-updated;
    a superset of the destinations whose dag differs from [prev]) — in
    ascending order.  Unaffected destinations share their dag
    physically with [prev]; [prev] itself is never mutated (with no
    effective change it is returned as-is).  [weights] must be the
    full new weight vector and [changes] the arcs on which it differs
    from the vector [prev] was computed with, each arc at most once.
    [?active] restricts the screen to the flagged destinations (for
    demand-only contexts whose [prev] holds placeholder dags
    elsewhere); inactive destinations always keep their previous dag
    and are never reported dirty.
    @raise Invalid_argument on length mismatches, non-positive
    weights, a repeated arc, or a [change] whose [after] disagrees
    with [weights]. *)
