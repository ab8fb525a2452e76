(** Large-tier {e search} benchmark: STR and DTR weight searches on a
    {!Dtr_topology.Large} preset under a wall-clock budget.

    Where {!Large_bench} measures the evaluation plumbing (full-eval
    time, probe latency), this measures the search loops themselves —
    time to first accepted improvement and iterations per second at
    1k-10k nodes — and is the source of [BENCH_search_large.json].

    The run is one {!Compare.run_point} — scenario, PRNG streams and
    the seeded random start pair are exactly those of
    [dtr optimize --preset P --seed S] — with a meter on its [stop] and
    [on_progress] hooks.  A budget-free run is deterministic in
    (preset, seed, config, model); only the timing columns are
    machine-dependent. *)

type row = {
  preset : string;
  algo : string;  (** ["str"] or ["dtr"] *)
  nodes : int;
  arcs : int;
  iterations : int;  (** search iterations completed *)
  improvements : int;  (** accepted strict improvements *)
  evaluations : int;  (** objective evaluations spent *)
  memo_hits : int;
  memo_misses : int;
  ttfi_s : float option;
      (** wall-clock seconds to the first accepted improvement over
          the starting objective; [None] if none was found *)
  elapsed_s : float;
  iters_per_sec : float;
  objective : Dtr_cost.Lexico.t;
  stopped_early : bool;  (** the wall-clock budget ended the run *)
}

val default_util : float
(** Target average link utilization the demand is scaled to (0.6). *)

val run :
  ?cfg:Dtr_core.Search_config.t ->
  ?seed:int ->
  ?time_budget:float ->
  ?progress:(string -> unit) ->
  model:Dtr_routing.Objective.model ->
  Dtr_topology.Large.preset ->
  row list
(** Build the preset's scenario (PoP gravity demand, [f = 0.30],
    [k = 0.10], demand-only routing contexts), scale to
    {!default_util}, then run STR and DTR in sequence through
    {!Compare.run_point} — one {!row} each, in that order.
    [time_budget] (seconds) is granted to {e each} search separately,
    polled once per iteration.  [cfg] defaults to
    {!Dtr_core.Search_config.quick} — at this scale the budget, not
    the iteration cap, is meant to end the run.  [progress] receives
    one line per phase (generation, each search's start and
    finish). *)

val table : row list -> Dtr_util.Table.t

val to_json : seed:int -> row list -> string
(** The [BENCH_search_large.json] document: provenance stamp plus one
    entry per row. *)
