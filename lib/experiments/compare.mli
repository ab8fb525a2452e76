(** One evaluation point: optimize the same scenario with STR and DTR
    and compare costs — the measurement behind Figs. 2, 4, 5, 8 and
    Table 1. *)

type point = {
  target_util : float;  (** requested network load *)
  measured_util : float;  (** average link utilization of the STR solution *)
  rh : float;  (** STR primary cost / DTR primary cost (≈ 1 expected) *)
  rl : float;  (** STR Φ_L / DTR Φ_L (the paper's headline ratio) *)
  problem : Dtr_core.Problem.t;  (** the scaled problem both searches ran on *)
  w0 : int array * int array;  (** restart 0's start weights [(W_H, W_L)] *)
  str : Dtr_core.Multistart.report;
  dtr : Dtr_core.Multistart.report;
}

val ratio : num:float -> den:float -> float
(** Zero-guarded ratio: both ≈ 0 gives 1 (equal performance); a zero
    denominator with a positive numerator gives [infinity]. *)

val run_point :
  ?cfg:Dtr_core.Search_config.t ->
  ?seed:int ->
  ?trace:Dtr_core.Trace.t ->
  ?pool:Dtr_util.Pool.t ->
  ?restarts:int ->
  ?iters:int ->
  ?stop:(Dtr_core.Multistart.algo -> unit -> bool) ->
  ?on_progress:(Dtr_core.Multistart.algo -> Dtr_cost.Lexico.t -> unit) ->
  ?w0:int array * int array ->
  Scenario.instance ->
  model:Dtr_routing.Objective.model ->
  target_util:float ->
  point
(** The STR-vs-DTR scenario runner — every [dtr optimize] run, dense or
    large, one restart or many, is one call.  Scale the instance to
    [target_util], build the problem, then run STR and DTR in that
    order, each through {!Dtr_core.Multistart.run} with [restarts]
    (default 1) on [pool].  The two PRNG streams are the first two
    splits of a root seeded from [seed] (default 0) and the spec's
    seed, so a point is deterministic in (instance, seed, cfg,
    restarts) whenever no budget binds.

    Both searches start from [w0] (STR takes the first vector).  The
    default is mid-range uniform weights, except on a
    {!Scenario.Large} instance: its full-mesh core makes the uniform
    start already locally optimal, so it starts from a random pair
    drawn from the root's third split.

    [iters] caps STR's iteration count (DTR's routine lengths come
    from [cfg]).  [stop algo] is called once as that algorithm's
    search starts; the poll it returns is handed to all its restarts —
    a wall-clock budget armed inside it therefore covers one
    algorithm's search.  [on_progress algo best] fires after every
    search iteration.  With an enabled [trace], each (algorithm,
    restart) is one segment of the stream, closed by its
    [Restart_done] event: STR's restarts first, then DTR's.
    @raise Invalid_argument on [restarts < 1] or an out-of-range or
    wrong-length vector in [w0]. *)

val sweep :
  ?cfg:Dtr_core.Search_config.t ->
  ?seed:int ->
  Scenario.spec ->
  model:Dtr_routing.Objective.model ->
  targets:float list ->
  point list
(** {!run_point} over a list of target utilizations on one generated
    instance. *)

val points_table :
  title:string -> point list -> Dtr_util.Table.t
(** Render points as the paper's figure series: measured utilization,
    H-cost ratio, L-cost ratio. *)
