(** The embeddable jury-selection service: registry + scheduler + metrics.

    A service owns a sharded work plane ({!Dispatch}: one bounded shard
    queue per executor {!Domain}, affinity-routed by pool name, with
    spill and work-stealing) fed by {!submit}.  Every verb has one
    evaluation, and a request is answered on the submitting thread when
    its evaluation needs no executor; otherwise it is queued.  So the
    control-plane verbs (ping, stats, pool upsert/list) stay responsive
    however backed up the compute plane is, as do reads that need no
    computation: a [select] or a [table] whose every row is in the jury
    memo, a pool [jq] in the [jq] memo, [quality], and [fleet-status]
    once the pool's allocator is at the registry's version.  One lock
    rule keeps them from waiting behind compute: the registry lock and
    every memo lock are held for one lookup or one publication, never
    across a computation, so every caller takes them outright (a
    calibration step runs under its pool's own mutex, see {!Registry}),
    and [stats] reads the gauge rows each shard store republishes as a
    locked call on it ends, taking no store lock.  Only a fleet store's
    lock is held through a computation (a fleet solve), so a
    [fleet-status] on the submitting thread only tries it and is queued
    when it is busy.  Compute requests (a memo miss,
    inline [jq], the session verbs open/vote/advise/decide/close, and the
    quality-plane and fleet writes) are enqueued
    on their pool's shard; when every shard with room is full the reply
    is an immediate [err overload] (admission control — total queue depth
    never grows past its bound), and a request that waits past its
    monotonic-clock deadline ({!Clock}) is answered [err deadline] by the
    executor that finally pops it.  Metrics are likewise sharded per
    domain and merged only at snapshot time, so completing a request
    takes no lock contended across domains.

    Warm state is keyed by pool version.  The service holds one of each
    memo, shared by every executor and the submitting threads, each
    behind a mutex held only for one find or add:

    - a jury memo from (pool, version, prior, budget, seed) to the solved
      row (jury ids, score, cost), bounded at {!row_memo_cap} rows per
      domain and emptied wholesale on reaching it.  [select], every
      [table] row and drift-triggered re-selection share it; a hit
      answers without running the annealer, and a miss runs
      {!Jsp.Annealing.solve_engine} with its own fresh score cache, the
      same solve a never-seen key gets;
    - a [jq] memo from (pool, version, prior, buckets) to the answer.

    A queued duplicate of a miss is answered from the memo row its
    predecessor filled.  Each executor domain owns its compute state,
    touched by that domain alone: one reusable {!Jq.Incremental}
    evaluator per (alpha, buckets), used for a [jq] miss over a binary
    pool ({!Jq.Incremental.reset} + re-adding the pool reuses the grown
    key-map arrays; a matrix-pool [jq] miss runs the ℓ-tuple bucket
    estimator instead), and a {!Jq.Workspace}.

    Caching is invisible in results: a jury is a deterministic function
    of (pool, version, prior, budget, seed) and the service's fixed
    bucket count, so any executor or the submitting thread — memo hit or
    miss, owner or work-stealing thief — returns byte-identical
    responses, whichever worker model the pool holds.

    Sequential sessions ({!Session.Task}) live in per-shard
    {!Session.Store}s indexed by the same pool-name hash that routes the
    data plane, so a session's verbs normally all run on its home
    executor; each store carries its own mutex, so even a stolen or
    spilled session job mutates the home store consistently.  Session
    replies are pure functions of (pool contents, vote history, request)
    — byte-deterministic at any cache warmth — and a [pool-put] bumping
    the registry version invalidates the pool's still-soliciting
    sessions on their next touch (a terminal session keeps serving its
    snapshot until [close]).

    The live quality plane rides the same machinery: [report]/[recal]
    (and decided sessions auto-feeding their votes) mutate the pool's
    streaming calibrator through {!Registry.report}; an applied batch
    bumps the pool version, so every memo row and still-soliciting
    session keyed by the old version invalidates exactly as under
    [pool-put].  Drift flags mark the pool stale, and the executor reacts
    inline by re-solving the pool's recorded standing juries ([select]
    requests register them) before replying — visible in [stats] as
    [recal_runs], [drift_flags], [stale_pools] and the [ingest_ns_p*]
    latency trio.

    The fleet plane ([fleet-submit]/[fleet-status]/[fleet-release])
    shares a {!Fleet.Allocator} per pool, homed on the pool's affinity
    shard exactly like session stores: same-pool fleet verbs serialize on
    one warm allocator (prices, proposal cache, solver memos), and the
    store mutex keeps a stolen or spilled job consistent.  A registry
    version bump (pool-put, applied calibration batch) resyncs the
    allocator on its next touch via {!Fleet.Allocator.set_pool} — the
    same invalidation rule as every other per-pool cache.  [stats] grows
    the [fleet_assigns]/[fleet_releases] counters, the
    [fleet_assign_ns_p50/95/99] latency trio and the [fleet_*] gauge rows
    (resident tasks, claimed/priced positions, contention rate, full vs
    delta solve counts, price rounds, proposal-cache hits). *)

type t

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()] capped at 8. *)

val create :
  ?domains:int ->
  ?queue_capacity:int ->
  ?deadline:float ->
  ?num_buckets:int ->
  ?session_cap:int ->
  ?session_ttl:float ->
  ?calib_config:Workers.Calib.config ->
  unit ->
  t
(** Start the executor domains.  Defaults: [domains] =
    {!recommended_domains}[ ()], [queue_capacity] = 256, no deadline,
    [num_buckets] = {!Jq.Bucket.default_num_buckets}
    (the Algorithm-1 resolution used for select/table scoring),
    [session_cap] = {!Session.Store.default_cap} open sessions per shard
    store, [session_ttl] = {!Session.Store.default_ttl} seconds of idle
    life, [calib_config] = {!Workers.Calib.default_config} for the
    streaming calibrators behind [report]/[recal].
    @raise Invalid_argument on non-positive sizes, deadline, cap or
    ttl. *)

val submit : t -> Wire.request -> Wire.response
(** Serve one request, blocking until its reply is ready.  Never raises:
    every failure mode is an [Error] response.  Thread-safe; call it from
    as many threads as you like. *)

val submit_async : t -> Wire.request -> k:(Wire.response -> unit) -> unit
(** Like {!submit}, but non-blocking: [k] receives the response exactly
    once — synchronously on the calling thread for control-plane verbs,
    reads answered inline, admission rejections and post-shutdown
    refusals, from an executor domain otherwise.  [k] must be cheap, thread-safe and non-raising
    (the TCP event loop's completion hook is the intended caller). *)

val registry : t -> Registry.t
val metrics : t -> Metrics.t
val domains : t -> int

val row_memo_cap : int
(** Jury-memo rows per executor domain: the service's one jury memo holds
    [row_memo_cap * domains] rows before it is emptied. *)

val stats : t -> (string * float) list
(** {!Metrics.snapshot} plus service gauges ([domains], [queue_len],
    [queue_capacity], [stale_pools], [drift_flags]), sorted by key — the
    payload of the [stats] verb.  docs/serving.md lists every key. *)

val shutdown : t -> unit
(** Close the queue, finish already-admitted work, and join the executor
    domains.  Later submissions that must be queued get [err shutdown];
    control-plane requests and reads answered inline keep working.
    Idempotent. *)
