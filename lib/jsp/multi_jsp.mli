(** Jury selection for multi-choice tasks with confusion-matrix workers —
    the §7 "Jury Selection Problem Extension".

    The paper observes that "the simulated annealing heuristic regards
    computing JQ as a black box, so it can be simply extended": here the
    black box is the engine's BV objective over an {!Engine.Pool.t} and a
    location is a subset of matrix workers.  {!anneal} is
    {!Annealing.solve_engine} — the same schedule, memoization and result
    contract as the binary solvers, with ℓ=2 symmetric pools lowered onto
    the dense binary fast path — so multi-class selection gets cached
    annealing and restarts instead of greedy-only.  Lemma 1 still holds
    (more workers never hurt BV), so affordable additions are accepted
    unconditionally; the quality monotonicity of Lemma 2 has no direct
    matrix analogue, so greedy seeding uses the spammer score of
    {!Workers.Spammer} as the §7-suggested heuristic.

    Every entry point returns a [Workers.Confusion.t array Solver.result]:
    the jury members are the caller's own candidate values (selection never
    rebuilds matrices), scores are estimated multi-class JQ(J, BV, ~alpha),
    and [result.cache] carries memo counters when annealing was cached. *)

val jury_cost : Workers.Confusion.t array -> float

val greedy :
  ?num_buckets:int ->
  prior:float array ->
  budget:Budget.t ->
  Workers.Confusion.t array ->
  Workers.Confusion.t array Solver.result
(** Best of three greedy scans — by spammer-score density (score / cost),
    by raw score, and cheapest-first — each adding every worker who still
    fits the budget. *)

val anneal :
  ?params:Annealing.params ->
  ?num_buckets:int ->
  ?cache:bool ->
  ?memo:Objective_cache.t ->
  rng:Prob.Rng.t ->
  prior:float array ->
  budget:Budget.t ->
  Workers.Confusion.t array ->
  Workers.Confusion.t array Solver.result
(** {!Annealing.solve_engine} over the candidates ([cache] defaults to
    [true]; [memo] as in {!Annealing.solve_engine} — key salting makes
    sharing safe).  Keeps the best jury seen.  Jury members map back to
    the candidates by position, so duplicate ids are harmless. *)

val select :
  ?params:Annealing.params ->
  ?num_buckets:int ->
  ?restarts:int ->
  rng:Prob.Rng.t ->
  prior:float array ->
  budget:Budget.t ->
  Workers.Confusion.t array ->
  Workers.Confusion.t array Solver.result
(** The production path: best of [restarts] annealing runs (default 1;
    further runs draw independent streams via {!Prob.Rng.split}) and
    {!greedy}.  On a pool scored from scratch (not lowered to the binary
    accumulator path) the runs share one {!Objective_cache}, so a later
    restart reads the scores an earlier one computed; the result equals
    that of fresh per-run tables.  Evaluations and cache counters
    accumulate across all runs.
    @raise Invalid_argument when [restarts < 1]. *)

val exhaustive :
  ?num_buckets:int ->
  prior:float array ->
  budget:Budget.t ->
  Workers.Confusion.t array ->
  Workers.Confusion.t array Solver.result
(** Exact argmax over all subsets (candidate sets of ≤ 15 workers). *)
