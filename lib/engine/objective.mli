(** Model-polymorphic JQ objectives — the one quantity every jury-selection
    solver maximizes.

    One objective scores any {!Pool} under any {!Task}, dispatching on the
    pool's representation: [Binary] pools go through the dense binary stack
    ({!Jq.Bucket.estimate} / {!Jq.Exact.jq_optimal} / {!Jq.Mv_closed.jq}),
    [Matrix] pools through §7's tuple-key machinery ({!Jq.Multiclass_jq}).
    Empty juries score {!Task.empty_score} under BV in either
    representation.

    Scoring is always available from scratch ({!score}).  An incremental
    objective also carries an {!accumulator} for binary pools: a
    per-search state that folds members in and out in O(state) instead of
    re-running the full JQ computation — the annealer's hot path, whose
    moves change one or two members at a time.  Whether a solve scores
    incrementally is therefore decided by the objective, not by the
    caller: {!incremental} is that rule, and {!accumulator} follows it. *)

type t

val id : t -> string
(** The objective's identity: its kind plus every parameter that moves a
    score, so two objectives with equal ids score every (task, jury)
    alike.  The bucket objectives carry their bucket count
    (["BV/bucket-incr/50"]); the workspace is scratch and stays out. *)

val score : t -> task:Task.t -> Pool.t -> float

val score_workers : t -> alpha:float -> Workers.Pool.t -> float
(** {!score} of a scalar-quality jury under the binary task with prior
    [alpha] — the view of the binary paper-path solvers (greedy,
    exhaustive, beam, …).  Partially applied to [alpha] it builds the task
    once.  @raise Invalid_argument when [alpha] lies outside [0, 1]. *)

(** An incremental scorer over one pool's positions. *)
type accumulator = {
  add : int -> unit;     (** Fold the pool's member at this position in. *)
  remove : int -> unit;  (** Take it back out. *)
  value : unit -> float;
      (** JQ estimate of the current members, on the accumulator's own
          scale (final juries are re-scored with {!score}). *)
}

val incremental : t -> Pool.t -> bool
(** Whether [t] scores [pool] incrementally: true exactly for the
    [*_incremental] objectives on binary pools.  Otherwise every jury is
    scored from scratch by {!score}, a pure function of (objective id,
    task, jury) that callers may memoize across solves. *)

val accumulator : t -> task:Task.t -> Pool.t -> accumulator option
(** A fresh empty-jury accumulator over [pool] when {!incremental} holds,
    and [None] when [pool] must be scored from scratch. *)

val bv_bucket : ?num_buckets:int -> ?workspace:Jq.Workspace.t -> unit -> t
(** JQ under Bayesian Voting by the bucket approximation — Algorithm 1 for
    binary pools, the ℓ-tuple-key generalization for matrix pools.
    [num_buckets] defaults to {!Jq.Bucket.default_num_buckets}.
    [workspace] pins the kernels' scratch buffers (one owner at a time,
    never shared across domains — see {!Jq.Workspace}); by default each
    evaluation reuses the calling domain's workspace.
    @raise Invalid_argument when a non-empty pool's label count differs
    from the task's. *)

val bv_bucket_incremental :
  ?num_buckets:int -> ?workspace:Jq.Workspace.t -> unit -> t
(** OPTJS: {!bv_bucket}'s scores, plus a {!Jq.Incremental} accumulator on
    binary pools (O(|map|) per add/remove).  The accumulator runs at twice
    [num_buckets]: its fixed global bucket width divides the logit cap
    φ(0.99), roughly twice the jury maximum {!Jq.Bucket} divides by, so
    doubling the count matches the effective width.  Its values agree with
    {!bv_bucket}'s within the two constructions' combined §4.4 error
    bounds. *)

val mv_closed : t
(** MVJS: exact JQ(J, MV, α) in closed form ([7]'s polynomial
    computation); the empty jury scores 1 − α (MV answers 1).  Binary
    pools only.  @raise Invalid_argument on a matrix pool or a non-binary
    task. *)

val mv_closed_incremental : t
(** {!mv_closed}'s scores, plus a {!Prob.Poisson_binomial.Incremental}
    accumulator on binary pools: O(k) per add/remove, exact up to float
    drift (guarded by periodic rebuilds). *)

type scored = {
  score : float;  (** The JQ estimate — identical to {!score} of {!bv_bucket}. *)
  bound : float;
      (** Certified additive error: the §4.4 bound for binary pools,
          Σ α_t·{!Jq.Bounds.multiclass_bound} + truncation loss for matrix
          pools. *)
  flat_fallbacks : int;
      (** Matrix-pool truth evaluations that overflowed the flat kernel's
          frontier cap and fell back to the hashtable oracle (0 for binary
          pools). *)
}

val bv_bucket_scored :
  ?num_buckets:int ->
  ?workspace:Jq.Workspace.t ->
  unit ->
  task:Task.t ->
  Pool.t ->
  scored
(** {!bv_bucket}'s score together with its certified error bound and the
    fallback count, for callers (the serve data plane, CLIs) that surface
    bound and kernel health alongside the value.  Same dispatch,
    arguments, and exceptions as {!bv_bucket}. *)

val bv_exact : t
(** Exact JQ under BV by enumeration — 2^n votings for binary pools
    (juries of ≤ {!Jq.Exact.max_jury}), ℓ^n for matrix pools (bounded by
    {!Voting.Multiclass.enumeration_cap}).
    @raise Invalid_argument beyond those limits or on a label mismatch. *)

val bv_exact_capped : ?cap:int -> unit -> t
(** {!bv_exact} with the enumeration ceiling moved to [cap] votings in
    either representation (defaults as in {!bv_exact}; binary juries
    still top out at 25 workers, the {!Voting.Vote.enumerate} hard
    limit). *)
