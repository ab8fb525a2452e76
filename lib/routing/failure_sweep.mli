(** Single-link failure sweeps on the delta engine.

    OSPF/MT-OSPF reacts to a link failure by re-running SPF on the
    surviving topology with the {e same} weights — no re-optimization
    — so the post-failure cost of a weight setting is a pure function
    of the setting and the failed link.  This module prices every
    physical (bidirectional) link failure of a context's graph:

    {ul
    {- {!sweep} models each failure as an arc-suppression delta
       ({!Eval_ctx.fail_probe}): no reduced-graph rebuild, no weight
       remapping — only destinations whose shortest-path DAGs used a
       failed arc are re-screened and re-projected.}
    {- {!oracle_sweep} is the retained from-scratch specification
       (reduced graph + remapped weights); the delta sweep is bitwise
       identical to it, outcome for outcome, on both cost models.}}

    A failure that severs a positive-demand pair (in either class) is
    priced as an {e infinite} outcome carrying the severed-pair count —
    it stays in the cost list, so max/percentile post-failure
    statistics are never optimistic.  A failure that disconnects only
    demand-free node pairs stays finite.

    Outcomes are indexed by {!Dtr_graph.Graph.undirected_link_pairs}
    order and are identical for every pool width. *)

type outcome = {
  cost : Dtr_cost.Lexico.t;
      (** Post-failure objective under the sweep's cost model;
          {!Dtr_cost.Lexico.infinity} when the failure severs demand. *)
  unreachable_pairs : int;
      (** Severed positive-demand (class, src, dst) pairs; [0] exactly
          when [cost] is finite. *)
}

val is_finite : outcome -> bool

val sweep :
  ?pool:Dtr_util.Pool.t ->
  ?model:Objective.model ->
  th:Dtr_traffic.Matrix.t ->
  Eval_ctx.t ->
  outcome array
(** Price every single-link failure against the context's current
    weights via failure probes.  [th] is the high-priority matrix the
    SLA model walks delays for (ignored under [Load]).  The context is
    not modified.  With a pool of [j > 1] workers the link range is
    split into [j] contiguous chunks, each probed against a private
    clone; results are reassembled in link order, so the outcome array
    is identical for every pool width.
    @raise Invalid_argument unless the context has exactly 2 classes. *)

val sweep_until :
  ?model:Objective.model ->
  ?order:int array ->
  stop:(int -> outcome -> bool) ->
  th:Dtr_traffic.Matrix.t ->
  Eval_ctx.t ->
  outcome array option
(** A sequential sweep that may stop early.  Links are visited in
    [order] (a permutation of the link indices; default ascending) and
    after each failure [i] is priced as [o], [stop i o] decides whether
    to give up.  [None] when it held — the failures priced so far were
    all shown to [stop], which keeps whatever it needs; counted under
    [dtr_failure_sweeps_pruned_total].  Otherwise [Some outcomes], in
    link order and bitwise equal to {!sweep}'s for every [order]: a
    failure probe never modifies the context, so each outcome is a
    pure function of the weights and the failed link.  {!sweep}'s
    sequential path is this loop with a [stop] that never holds.
    @raise Invalid_argument unless the context has exactly 2 classes
    or when [order] is not a permutation of [0 .. links - 1]. *)

val fail_link :
  Dtr_graph.Graph.t ->
  link:int * int ->
  Dtr_graph.Graph.t * int array
(** Remove exactly the undirected link [(a, b)] — arc [a] and its
    reverse twin [b] as paired by
    {!Dtr_graph.Graph.undirected_link_pairs} ([a = b] for a one-way
    arc) — never any parallel arcs between the same endpoints.
    Returns the reduced graph and, for each surviving arc, its
    original arc id (for weight remapping).  The reduced graph may be
    disconnected; callers decide what that means.
    @raise Invalid_argument if the ids are out of range or not reverse
    twins of each other. *)

val oracle :
  model:Objective.model ->
  Dtr_graph.Graph.t ->
  wh:int array ->
  wl:int array ->
  th:Dtr_traffic.Matrix.t ->
  tl:Dtr_traffic.Matrix.t ->
  link:int * int ->
  outcome
(** From-scratch price of one link failure: build the reduced graph,
    remap the weights, count severed positive-demand pairs, and (when
    none) evaluate the model on the reduced graph.  The specification
    {!sweep} must match bitwise. *)

val oracle_sweep :
  ?pool:Dtr_util.Pool.t ->
  ?model:Objective.model ->
  Dtr_graph.Graph.t ->
  wh:int array ->
  wl:int array ->
  th:Dtr_traffic.Matrix.t ->
  tl:Dtr_traffic.Matrix.t ->
  outcome array
(** {!oracle} over every physical link, in
    {!Dtr_graph.Graph.undirected_link_pairs} order.  A reference
    oracle (via {!Objective.evaluate}): the tests and the benchmark's
    correctness gate check {!sweep} against it; no search or report
    path calls it. *)

val penalty : ?top_k:int -> outcome array -> Dtr_cost.Lexico.t
(** Mean of the [top_k] worst {e finite} outcomes (default 1 = pure
    worst case), ordered by untolerated {!Dtr_cost.Lexico.compare}.
    Infinite outcomes are excluded: single-link reachability is
    weight-independent, so disconnecting failures price every weight
    setting identically and would drown the signal the search can
    move.  {!Dtr_cost.Lexico.zero} when no finite outcome exists.
    @raise Invalid_argument if [top_k < 1]. *)

val infinite_count : outcome array -> int
(** Outcomes priced as infinite (disconnecting failures). *)
