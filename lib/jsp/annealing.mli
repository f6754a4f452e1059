(** Simulated-annealing JSP solver (Algorithms 3 and 4, §5.1).

    Locations are juries; the objective value is the (estimated) JQ.  A
    temperature T starts at 1.0 and halves until it drops below ε
    (paper default 1e-8).  At each temperature, N local searches run: a
    random worker r is either added outright when the budget allows
    (Lemma 1 — more workers never hurt BV), or proposed in a swap against a
    random selected/unselected partner (Algorithm 4); a swap that lowers JQ
    by Δ is still accepted with probability exp(−Δ/T) (Boltzmann), which
    lets the search escape local optima.

    The schedule treats JQ as a black box, so one entry point serves every
    worker model and objective: OPTJS is the default bucket-BV objective,
    MVJS the majority-voting one, and §7's ℓ-label juries are the same
    search over a matrix pool.  The objective decides how moves are
    scored: when it carries an {!Engine.Objective.accumulator} for the pool
    (the incremental objectives on binary pools), one accumulator per
    search applies O(state) add/remove deltas per move — the production
    hot path; otherwise every candidate jury is scored from scratch.
    Either mode can memoize scores with an {!Objective_cache} ([cache]);
    from-scratch scores are pure, so caching never changes their search
    trajectory (the Boltzmann draw is skipped exactly when it was skipped
    uncached) and cached runs return bit-identical juries and scores.
    Partner picks use O(1) reads of a permutation array — the hot loop
    allocates nothing.

    Every solve prefixes its cache keys with a salt, derived before the
    first draw, so entries written by solves that could disagree on a
    selection's score live in disjoint key spaces.  A from-scratch score
    is a pure function of (objective, task, jury), so a from-scratch
    solve salts with a digest of ({!Engine.Objective.id}, task prior)
    alone: every such solve over one pool shares its scores, whatever its
    budget, seed or params.  An accumulator's values are path-dependent,
    so an incremental solve also folds in the budget and the RNG state,
    and only a repeat of the same (objective, prior, budget, seed) reads
    its entries.  A caller-owned [?memo] is therefore safe to share across
    arbitrary solves over one pool. *)

type params = {
  t_initial : float;      (** Starting temperature (paper: 1.0). *)
  epsilon : float;        (** Stop once T < ε (paper: 1e-8). *)
  cooling : float;        (** Divisor applied to T per phase (paper: 2). *)
  moves_per_temp : int option;
      (** Local searches per temperature; [None] means the pool size N,
          as in Algorithm 3's inner loop. *)
  keep_best : bool;
      (** Return the best jury seen rather than the final one (default
          [true]; the final-state behaviour of the literal pseudo-code is
          available with [false]). *)
}

val default_params : params

val default_objective : ?num_buckets:int -> unit -> Engine.Objective.t
(** The objective {!solve_engine} runs when given none: OPTJS,
    {!Engine.Objective.bv_bucket_incremental} at [num_buckets]. *)

val solve_engine :
  ?params:params ->
  ?objective:Engine.Objective.t ->
  ?num_buckets:int ->
  ?cache:bool ->
  ?memo:Objective_cache.t ->
  rng:Prob.Rng.t ->
  task:Engine.Task.t ->
  budget:Budget.t ->
  Engine.Pool.t ->
  Engine.Pool.t Solver.result
(** Run the annealer.  [objective] defaults to
    {!default_objective} at [num_buckets] (which is only read for that
    default).  The result is always feasible, its jury
    keeps the input representation, and it is deterministic given the
    [rng] state.

    [cache] (default [true]) memoizes repeat evaluations and surfaces
    counters in [result.cache].  [memo] supplies a caller-owned
    {!Objective_cache} instead (overriding [cache]); it survives the
    solve.  It must have been created with [~n] equal to the pool size and
    serve one pool; key salting (see above) takes care of everything else.
    It is how a long-lived caller shares pure scores: solves of any
    budget, seed or params over one pool and task that score from scratch
    ({!Engine.Objective.incremental} is false) read each other's entries,
    and a hit returns exactly the float a fresh evaluation would, so the
    jury and score equal a fresh-table solve's, and [evaluations] is no
    higher unless the table reaches capacity and resets mid-solve.  Under
    an accumulator the salt confines sharing to repeats of one (budget,
    seed), so such a table only helps a caller that replays requests.
    [result.cache] counts this solve's own hits, misses and evictions
    either way, with the entries resident when it returns.

    With an accumulator, the returned score is a final from-scratch
    {!Engine.Objective.score} of the winning jury, so it is directly
    comparable with every other solver's scores.  Incremental values are
    path-dependent at ulp level (add/remove float drift), so an entry
    computed during one solve can differ in the last bits from what
    another solve would have computed for the same selection — which is
    exactly why the salt folds the budget and the RNG state in — and a
    cached incremental run may differ from an uncached one.
    @raise Invalid_argument on an invalid budget or params (ε ≤ 0,
    cooling ≤ 1, t_initial < ε), when the pool and task label counts
    differ, or when a supplied [memo] was created for a different pool
    size. *)
