(** Generalization of {!Evaluate} to [T >= 2] traffic classes under
    strict priority queueing: class 0 is served first, class [i] sees
    the residual capacity left by classes [0 .. i-1].

    The paper's DTR is the special case [T = 2]; this module is the
    substrate for the multi-topology extension the paper points to
    (RFC 4915 supports up to 128 topologies).

    The record {!t} is the [T]-class view ({!Eval_ctx.to_multi});
    {!evaluate} is the from-scratch reference and a test oracle only —
    production code evaluates through {!Eval_ctx}. *)

type t = {
  graph : Dtr_graph.Graph.t;
  dags : Dtr_graph.Spf.dag array array;
      (** [dags.(k)]: per-destination DAGs of class [k]'s weights *)
  loads : float array array;  (** [loads.(k).(arc)] *)
  capacity_seen : float array array;
      (** [capacity_seen.(k).(arc)]: residual capacity available to
          class [k] ([capacity_seen.(0)] is the raw capacity) *)
  phi_per_arc : float array array;
      (** Fortz cost of class [k] on each arc, against the residual *)
  phi : float array;  (** per-class totals [Φ_k] *)
}

val evaluate :
  Dtr_graph.Graph.t ->
  weights:int array array ->
  matrices:Dtr_traffic.Matrix.t array ->
  t
(** Reference from-scratch evaluation (test oracle; {!Eval_ctx} must
    match it bitwise).  [evaluate g ~weights ~matrices] routes class [k] on
    [weights.(k)] and charges it the Fortz cost against the capacity
    left by higher-priority classes.  Physically equal weight vectors
    share their shortest-path DAGs (so single-topology routing costs
    one SPF, not [T]).
    @raise Invalid_argument if fewer than one class is given, the
    arrays disagree in length, or any class has unroutable demand. *)

val class_count : t -> int

val objective : t -> float array
(** The lexicographic objective vector: per-class [Φ_k], highest
    priority first (fresh copy). *)

val compare_objective : float array -> float array -> int
(** Lexicographic comparison of objective vectors.
    @raise Invalid_argument on length mismatch. *)

val utilization : t -> float array
(** Per-arc total utilization across all classes. *)

val avg_utilization : t -> float
