(** Service metrics, sharded per executor domain.

    Each executor domain owns a private metrics shard guarded by a mutex
    that only that executor and the occasional {!snapshot} ever take, so
    the record path never blocks on another domain's traffic.  Submitting
    threads (control-plane replies, reads answered inline, overload
    rejections) share one extra shard; in the daemon the event thread is
    the only submitter, so its lock is uncontended.

    A shard holds one int per {!counter}, one ring of recent samples per
    {!timer}, a per-verb request table and the request-latency histogram.
    Shards are merged only at {!snapshot}/{!pp_line} time: counters,
    per-verb tables and histogram buckets sum, and each timer's quantiles
    are computed over the concatenation of the shards' rings.  A property
    test checks the merge against a single-accumulator oracle run on the
    same event stream. *)

type t

(** A counter: one [stats] row of the same name. *)
type counter =
  | Requests            (** [requests]; {!record} and {!overload} keep it *)
  | Ok_replies          (** [ok]; kept by {!record} *)
  | Errors              (** [errors]; {!record} and {!overload} keep it *)
  | Overloads           (** [overloads]; kept by {!overload} *)
  | Deadlines           (** [deadlines] *)
  | Jq_memo_hits        (** [jq_memo_hits] *)
  | Select_memo_hits    (** [select_memo_hits] *)
  | Steals              (** [steals] *)
  | Jq_flat_fallbacks   (** [jq_flat_fallbacks] *)
  | Votes_ingested      (** [votes_ingested] *)
  | Recal_runs          (** [recal_runs] *)
  | Fleet_releases      (** [fleet_releases] *)
  | Cache_hits          (** [cache_hits] *)
  | Cache_misses        (** [cache_misses] *)
  | Cache_entries       (** [cache_entries] *)
  | Cache_evictions     (** [cache_evictions] *)
  | Solves              (** [solves] *)

(** A timer: a ring of each shard's 2048 most recent samples, reported as
    p50/p95/p99 keys once it has a sample, plus a key counting every
    sample taken. *)
type timer =
  | Latency
      (** Request latency in seconds, kept by {!record}: [p50_ms] …; its
          count is [requests]. *)
  | Jq_eval  (** JQ kernel evaluation, ns: [jq_evals], [jq_eval_ns_p50] … *)
  | Session_verb
      (** Session verb evaluation, ns: [session_verbs],
          [session_verb_ns_p50] … *)
  | Ingest  (** Calibration call, ns: [ingests], [ingest_ns_p50] … *)
  | Fleet_assign
      (** Allocator time per fleet submit, ns: [fleet_assigns],
          [fleet_assign_ns_p50] … *)

val create : ?shards:int -> unit -> t
(** [shards] is the executor-domain count (default 1); one extra internal
    shard is added for submitter-side events, so valid [shard] arguments
    are [0 .. shards].  Uptime is measured from this call on the
    monotonic clock.
    @raise Invalid_argument for [shards <= 0]. *)

val submitter : t -> int
(** Index of the shard for events recorded by submitting threads. *)

val add : t -> shard:int -> counter -> int -> unit
(** [add t ~shard c n] adds [n] to counter [c] on [shard]; a no-op for
    [n <= 0]. *)

val sample : t -> shard:int -> timer -> float -> unit
(** Record one sample of a timer on [shard]. *)

val record : t -> shard:int -> verb:string -> latency:float -> ok:bool -> unit
(** Count one completed request on [shard] (latency in seconds, [ok]
    false for error replies of any kind). *)

val overload : t -> unit
(** Count one admission-control rejection on the submitter shard (also
    counts as an error reply; do not additionally call {!record}). *)

val add_gauges : t -> gauges:(unit -> (string * float) list) -> unit
(** Register a pull-source of free-form gauge rows appended verbatim to
    {!snapshot} (e.g. the TCP server's [conns_open] counters or the
    service's session-store rows).  Keys should not collide with the
    built-in rows.  The thunk runs on the snapshotting thread and must
    take whatever lock guards what it reads. *)

val snapshot : t -> (string * float) list
(** Merged values, sorted by key: [uptime_s]; every {!counter};
    [cache_hit_rate] = [cache_hits / (cache_hits + cache_misses)], 0
    before the first lookup; [req_<verb>] per seen verb; each {!timer}'s
    count and quantile keys; and the rows of every gauge source.
    docs/serving.md documents every key. *)

val pp_line : Format.formatter -> t -> unit
(** One-line human summary plus the merged latency-histogram buckets that
    are nonempty — the periodic server log line. *)
