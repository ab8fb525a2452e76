(** The SLA objective Λ (paper Eqs. 3–4), kept incrementally.

    A state {!t} is the Λ evaluation of one high-priority routing: the
    per-arc mean delays, the expected delay ξ from every node to each
    destination that sinks high-priority demand (ECMP-averaged, as
    {!Delay.expected_to_destination}), every high-priority pair's delay
    in {!Dtr_traffic.Matrix.pairs} (row-major) order, and the folded
    totals.  States are immutable: {!commit} returns a new one sharing
    every ξ vector it did not re-walk, so contexts and their clones can
    share a state.

    A {!probe} prices an {!Eval_ctx.probe} against a state in a
    caller-owned {!scratch}, without allocating rows: it recomputes
    delays only where the probe moved a Fortz cost, re-walks a
    destination fully when its DAG record changed and otherwise only
    from the nearest node whose next-hop set carries a moved arc, and
    then re-folds every pair in row-major order.  Every quantity is
    bitwise equal to the from-scratch {!Evaluate.sla_of_rows} (the
    test oracle), which folds the same pairs in the same order. *)

type t

val create :
  Dtr_cost.Sla.params ->
  Dtr_graph.Graph.t ->
  th:Dtr_traffic.Matrix.t ->
  dags_h:Dtr_graph.Spf.dag array ->
  phi_h_per_arc:float array ->
  t
(** From-scratch evaluation over high-priority DAGs and Fortz costs
    (e.g. a failure probe's rows).  A pair with no path does not raise:
    its delay is [infinity], its penalty makes Λ infinite, and it is
    counted as unreachable (and among the violations).
    @raise Invalid_argument on a length mismatch. *)

val of_ctx : Dtr_cost.Sla.params -> th:Dtr_traffic.Matrix.t -> Eval_ctx.t -> t
(** {!create} on a context's committed class-0 (high-priority) rows. *)

val lambda : t -> float
(** [Λ = Σ penalties] over the high-priority pairs. *)

val arc_delay : t -> float array
(** Per-arc mean delay, ms (shared; never mutated). *)

val xi : t -> int -> float array
(** [xi t dst]: expected delay from every node to [dst] — defined at
    the nodes that reach [dst] — or [[||]] when [dst] sinks no
    high-priority demand (shared; never mutated). *)

val to_sla : t -> Evaluate.sla
(** The record view ({!Evaluate.sla}: pair delays in
    {!Dtr_traffic.Matrix.pairs} order, violations, unreachable pairs,
    worst delay), built in O(pairs). *)

type scratch
(** Mutable probe workspace: the last probe's candidate delays, re-walked
    ξ vectors and pair delays.  One per context; not shared between
    domains. *)

val scratch : t -> scratch
(** A workspace sized for [t]'s graph and pairs; usable with every
    state of the same problem. *)

val probe : t -> scratch -> Eval_ctx.t -> Eval_ctx.probe -> float
(** Λ of the candidate [p] (taken from [ctx], whose committed
    high-priority routing [t] evaluates), left in the scratch.  Counts
    the destinations and nodes it re-walks on the
    [dtr_sla_rewalk_dests_total] / [dtr_sla_rewalk_nodes_total]
    metrics.
    @raise Invalid_argument on a stale probe. *)

val commit : t -> scratch -> Eval_ctx.t -> Eval_ctx.probe -> t
(** The state of the candidate [p]: the scratch's result when [p] was
    its last probe against [t], otherwise re-derived first.  Call
    before {!Eval_ctx.commit} installs [p]. *)
