(** The paper's two optimization objectives: a cost model and the
    lexicographic result {!of_eval} assembles from a two-class
    evaluation.  {!evaluate} is the from-scratch reference and a test
    oracle only; production code evaluates through {!Eval_ctx}. *)

type model =
  | Load  (** [A = ⟨Φ_H, Φ_L⟩] — Eq. (2) *)
  | Sla of Dtr_cost.Sla.params  (** [S = ⟨Λ, Φ_L⟩] — Eq. (5) *)

type result = {
  objective : Dtr_cost.Lexico.t;
      (** [⟨Φ_H, Φ_L⟩] or [⟨Λ, Φ_L⟩] depending on the model *)
  eval : Evaluate.t;
  sla : Evaluate.sla option;  (** present iff the model is [Sla _] *)
}

val evaluate :
  model ->
  Dtr_graph.Graph.t ->
  wh:int array ->
  wl:int array ->
  th:Dtr_traffic.Matrix.t ->
  tl:Dtr_traffic.Matrix.t ->
  result
(** Reference full evaluation of a weight setting ({!Evaluate.evaluate}
    then {!of_eval}); [wh == wl] (physical equality) is the STR case.
    A test oracle: outside the tests only {!Failure_sweep.oracle_sweep}
    calls it. *)

val of_eval :
  model ->
  Evaluate.t ->
  th:Dtr_traffic.Matrix.t ->
  ?sla:Evaluate.sla ->
  unit ->
  result
(** Assemble the objective from an existing two-class evaluation.
    Production callers pass [?sla] (a {!Lambda.to_sla} view of their
    context's Λ state); without it the SLA view is computed by the
    oracle {!Evaluate.evaluate_sla}, as {!evaluate} does. *)

val model_name : model -> string
