(** Multi-start search: run [restarts] independent restarts of a weight
    search, optionally in parallel on a domain pool, and pick the
    winner.  Every STR/DTR search of [dtr optimize] runs through here,
    one restart or many.

    {b Restart 0 is the single run.}  It searches on a copy of the
    caller's stream, from the caller's start weights [w0] (default:
    the searches' mid-range uniform weights), with the caller's hooks.
    So [restarts = 1] is bitwise the plain {!Str_search.run} /
    {!Dtr_search.run} / {!Anneal_search.run} on the same stream, and
    restart 0 of a multi-start is that same run: adding restarts never
    makes the winner worse.  Restarts [>= 1] run on streams split off
    the caller's stream and start from weights drawn uniformly at
    random from their own stream.

    {b Determinism.}  Every split is taken from the master generator
    {e before} any work is dispatched, in restart order, and the
    winner is chosen by exact [(objective, restart index)] order —
    strictly smaller lexicographic objective wins, ties go to the
    lower index.  Results are therefore bit-identical for every [jobs]
    value (including 1). *)

type algo = Str | Dtr | Anneal
(** Which search a restart runs: {!Str_search}, {!Dtr_search} or
    {!Anneal_search} (with its default schedule). *)

val algo_name : algo -> string

type restart = {
  index : int;
  objective : Dtr_cost.Lexico.t;
      (** the search's reported objective (the robust J in robust
          mode) *)
  solution : Problem.solution;
  evaluations : int;  (** objective evaluations this restart spent *)
  improvements : int;
      (** accepted strict improvements (accepted Metropolis proposals
          for annealing) *)
  iterations : int;
      (** iterations completed: STR value scans, DTR FindH/FindL
          passes; 0 for annealing, which has no iteration hook *)
  memo_hits : int;  (** 0 for annealing, which keeps no memo *)
  memo_misses : int;
  archive : Str_search.archive_point list;
      (** STR's Pareto archive ({!Str_search.report}); [[]] for the
          other searches *)
}

type report = {
  best : Problem.solution;
  objective : Dtr_cost.Lexico.t;
  best_index : int;  (** which restart won *)
  restarts : restart array;  (** every restart, in index order *)
  evaluations : int;
      (** total objective evaluations across all restarts: the sum of
          the per-restart counts, so exact and scheduling-independent *)
}

val run :
  ?pool:Dtr_util.Pool.t ->
  ?jobs:int ->
  ?trace:Trace.t ->
  ?w0:int array * int array ->
  ?iters:int ->
  ?stop:(unit -> bool) ->
  ?on_progress:(Dtr_cost.Lexico.t -> unit) ->
  restarts:int ->
  algo:algo ->
  Dtr_util.Prng.t ->
  Search_config.t ->
  Problem.t ->
  report
(** [run ~restarts ~algo rng cfg problem] runs the restarts on [pool]
    if given, else on a temporary pool of [jobs] workers (default 1 =
    sequential, no domain spawned).  [rng] is advanced by [restarts]
    splits.

    The hooks go through to the searches: [w0] is restart 0's start
    (STR takes the first vector); [iters] caps STR's iteration count
    ({!Str_search.run}; DTR's routine lengths come from [cfg]); [stop]
    is polled by every restart once per iteration; [on_progress best]
    fires after every iteration of every restart with its best-so-far
    objective, on the domain running it.  Annealing has no iteration
    hooks: [stop], [iters] and [on_progress] do not reach it.
    @raise Invalid_argument if [restarts < 1], or on an out-of-range
    or wrong-length vector in [w0].

    With an enabled [trace], each restart records its search events
    into a private ring on whichever worker runs it; the rings are
    replayed into [trace] in restart-index order after the joins, with
    the [restart] field set, each followed by one [Restart_done] event
    ([detail] = index, [accepted] = improved on all lower indices)
    that closes the restart's segment — so two runs into one
    sink (STR then DTR) stay separate segments even at [restarts = 1].
    Every field but the timestamps is identical for every [jobs]
    value. *)
