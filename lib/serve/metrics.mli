(** Service metrics, sharded per executor domain.

    The pre-sharding design funnelled every request completion from every
    executor through one mutex, which showed up directly in the negative
    multi-domain scaling of the serve bench.  Now each executor domain
    owns a private metrics shard (counters, per-verb table, latency
    histogram and ring) guarded by a mutex that only that executor and
    the occasional {!snapshot} ever take — the record path never blocks
    on another domain's traffic.  Submitting threads (control-plane
    replies, overload rejections) share one extra shard: those events are
    rare and cheap, so contention there is irrelevant.

    Shards are merged only at {!snapshot}/{!pp_line} time: counters sum,
    per-verb tables sum, histogram buckets sum, and the latency quantiles
    are computed over the concatenation of the shards' recent-sample
    rings.  A property test checks the merge against a single-accumulator
    oracle run on the same event stream. *)

type t

val create : ?shards:int -> unit -> t
(** [shards] is the executor-domain count (default 1); one extra internal
    shard is added for submitter-side events.  Uptime is measured from
    this call on the monotonic clock.
    @raise Invalid_argument for [shards <= 0]. *)

val shards : t -> int
(** Total shard count, including the submitter shard — valid [shard]
    arguments are [0 .. shards t - 1]. *)

val submitter : t -> int
(** Index of the shard for events recorded by submitting threads. *)

val record : t -> shard:int -> verb:string -> latency:float -> ok:bool -> unit
(** Count one completed request on [shard] (latency in seconds, [ok]
    false for error replies of any kind). *)

val overload : t -> unit
(** Count one admission-control rejection on the submitter shard (also
    counts as an error reply; do not additionally call {!record}). *)

val deadline : t -> shard:int -> unit
(** Count one request expired in queue (the reply itself still goes
    through {!record} with [ok:false]). *)

val batch : t -> shard:int -> size:int -> unit
(** Count one executor batch of [size] coalesced jq queries ([size >= 2];
    saved evaluations = size − 1). *)

val jq_memo_hit : t -> shard:int -> unit
(** Count one pool-jq query answered from the executor memo. *)

val select_memo_hit : t -> shard:int -> unit
(** Count one jury row (a [select], one [table] row or one standing-jury
    re-selection) answered from the executor's jury memo instead of an
    annealing run. *)

val solver_cache : t -> shard:int -> Jsp.Objective_cache.stats -> unit
(** Add the score-cache counters of one annealing solve run on [shard]
    (its [result.cache]).  The [cache_*] rows of {!snapshot} sum these
    over every solve actually run, so [cache_misses] rises exactly when
    a solve runs and never on a jury-memo hit. *)

val steal : t -> shard:int -> unit
(** Count one batch obtained by work-stealing from another shard's
    queue. *)

val jq_eval : t -> shard:int -> ns:float -> unit
(** Record one from-scratch JQ kernel evaluation on [shard] taking [ns]
    nanoseconds (memo hits are not kernel evaluations and count through
    {!jq_memo_hit} instead).  Feeds the per-shard [jq_eval_ns] histogram
    and the merged [jq_eval_ns_p*] quantiles, so dense-kernel regressions
    are visible in production metrics. *)

val jq_flat_fallback : t -> shard:int -> count:int -> unit
(** Count [count] flat-kernel evaluations on [shard] that overflowed the
    frontier cap and silently fell back to the hashtable oracle (a
    correctness-preserving but order-of-magnitude slower path; a nonzero
    rate means the pool/bucket configuration defeats the flat kernel).
    No-op for [count <= 0]. *)

val session_verb : t -> shard:int -> ns:float -> unit
(** Record one session-verb evaluation (open/vote/advise/decide/close) on
    [shard] taking [ns] nanoseconds.  Feeds the per-shard session
    histogram and the merged [session_verb_ns_p*] quantiles, so posterior
    updates and policy scans are tracked separately from jq kernel
    time. *)

val ingest : t -> shard:int -> votes:int -> ns:float -> unit
(** Record one applied calibration batch on [shard]: [votes] votes folded
    into a pool's quality plane in [ns] nanoseconds (registry time only —
    drift-triggered re-selection is counted via {!recal_run}, not here).
    Feeds the [ingests]/[votes_ingested] counters and the merged
    [ingest_ns_p50/95/99] quantiles. *)

val recal_run : t -> shard:int -> count:int -> unit
(** Count [count] drift-triggered jury re-selections (solver re-runs over
    standing jury specs) on [shard].  No-op for [count <= 0]. *)

val fleet_assign : t -> shard:int -> ns:float -> unit
(** Record one fleet submit assigned on [shard] in [ns] nanoseconds
    (allocator time only — queueing is covered by the request latency).
    Feeds the [fleet_assigns] counter and the merged
    [fleet_assign_ns_p50/95/99] quantiles, so assignment-latency
    regressions in the price-based allocator are visible in [stats]. *)

val fleet_release : t -> shard:int -> unit
(** Count one fleet task released on [shard] ([fleet_releases]). *)

val add_sessions : t -> stats:(unit -> Session.Store.stats) -> unit
(** Register a pull-source of session-store counters (one per shard
    store); {!snapshot} sums every registered source into the
    [sessions_*] rows.  The thunk runs on the snapshotting thread and
    must take whatever lock guards its store. *)

val add_gauges : t -> gauges:(unit -> (string * float) list) -> unit
(** Register a pull-source of free-form gauge rows appended verbatim to
    {!snapshot} (e.g. the TCP server's [conns_open]/[conns_rejected]/
    [read_timeouts] counters).  Keys should not collide with the built-in
    rows.  The thunk runs on the snapshotting thread and may read other
    threads' counters racily. *)

val snapshot : t -> (string * float) list
(** Merged values, sorted by key: [uptime_s], [requests], [ok], [errors],
    [overloads], [deadlines], [batches], [batched_saved], [jq_memo_hits],
    [select_memo_hits], [steals], [jq_evals], [jq_flat_fallbacks],
    [req_<verb>] per seen verb,
    [p50_ms]/[p95_ms]/[p99_ms] over recent latencies,
    [jq_eval_ns_p50]/[jq_eval_ns_p95]/[jq_eval_ns_p99] over recent kernel
    evaluations and [session_verb_ns_p50/95/99] over recent session verbs
    (each trio absent until a first sample), [session_verbs],
    [ingests]/[votes_ingested]/[recal_runs] with
    [ingest_ns_p50/95/99] over recent calibration batches,
    [fleet_assigns]/[fleet_releases] with [fleet_assign_ns_p50/95/99]
    over recent fleet assignments, plus the
    [sessions_open]/[sessions_opened]/[sessions_decided]/
    [sessions_expired]/[sessions_invalidated]/[sessions_rejected] rows
    summed over registered session stores, and
    [cache_hits], [cache_misses], [cache_hit_rate], [cache_entries],
    [cache_evictions] summed over the solves recorded by
    {!solver_cache}.  docs/serving.md documents every key. *)

val pp_line : Format.formatter -> t -> unit
(** One-line human summary plus the merged latency-histogram buckets that
    are nonempty — the periodic server log line. *)
