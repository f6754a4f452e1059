(** Versioned quality-plane owner: named pools plus their live calibrators.

    Each named pool carries a {!Workers.Calib.t} streaming calibrator, and
    the served {!Engine.Pool.t} is rebuilt from the upload template (ids,
    names, costs) and the calibrator's current estimates whenever a vote
    batch is applied.

    The invalidation contract is what keeps every warm cache correct by
    construction: all quality mutations flow through {!report} / {!recal},
    every applied batch bumps the registry-wide generation and stamps the
    pool with a fresh version, and the service's caches (jury-row and jq
    memos, session stores) are keyed by (name, version, ...), so there is
    no code path that can observe recalibrated qualities through a stale
    cache.

    One lock rule holds for every call: the registry lock is held for one
    lookup or one publication, never across a computation, so any thread
    may take it outright.  A calibration step runs under its pool's own
    calibration mutex, outside the registry lock, and takes the registry
    lock only to publish the rebuilt pool, its version and the quality
    rows; lock order is that mutex first, then the registry lock.  A
    [pool-put] that lands during a step supersedes it: the step publishes
    nothing.

    Drift flags raised by the calibrator mark the pool [stale]; the service
    reacts by re-solving the recorded standing specs ({!standing}) against
    the new version and then {!clear_stale}. *)

type t

val create :
  ?calib_config:Workers.Calib.config -> ?standing_cap:int -> unit -> t
(** [calib_config] applies to calibrators created by subsequent upserts;
    [standing_cap] (default 8) bounds recorded standing-jury specs per
    pool. *)

val upsert : t -> name:string -> Engine.Pool.t -> int
(** Insert or replace the named pool; returns the new version.  Versions
    come from one registry-wide counter, so they are unique across pools
    and strictly increasing over time.  Replacing a pool resets its
    calibrator: the uploaded qualities are the new anchor. *)

val find : t -> string -> (Engine.Pool.t * int) option
(** Snapshot of the named pool (as currently calibrated) and its version. *)

val list : t -> (string * int * int) list
(** (name, version, size) rows, sorted by name. *)

val size : t -> int
(** Number of registered pools. *)

type ingest = {
  version : int;  (** Pool version after the call. *)
  applied : int;  (** Votes folded in by this call (0 = only buffered). *)
  pending : int;  (** Votes still buffered for the next step. *)
  drifted : Workers.Calib.drift list;
  stale : bool;   (** Standing juries may predate a drift flag. *)
}

val report :
  t ->
  name:string ->
  Workers.Calib.vote list ->
  (ingest, [ `Unknown_pool | `Invalid of string ]) result
(** Ingest a vote batch.  Votes are buffered; once the calibrator's batch
    threshold is reached a mini-batch calibration step runs inline and —
    when it applied votes or moved an estimate — the pool version is
    bumped.  [`Invalid] reports out-of-range worker/label/truth ids
    (nothing is buffered in that case). *)

val recal : t -> name:string -> (ingest, [ `Unknown_pool ]) result
(** Force a full calibration step now (pending votes included, EM run to
    convergence), bumping the version when anything moved. *)

val quality : t -> name:string -> ((int * float * int) list * int) option
(** Per-worker readback: (worker id, current quality, votes seen) in pool
    order, as last published, plus the pool version. *)

val note_standing :
  t -> name:string -> budget:float -> prior:float list -> seed:int -> unit
(** Record a standing jury spec for the pool: a select (budget, prior,
    seed) that drift re-solves.  Specs are deduplicated and capped;
    unknown pools are ignored. *)

val standing : t -> string -> (float * float list * int) list
(** Recorded (budget, prior, seed) specs, most recent first. *)

val clear_stale : t -> name:string -> unit
(** Clear the stale flag: the tail end of a drift-triggered
    re-selection. *)

val stale_pools : t -> int
(** Pools currently flagged stale (drifted, standing juries not yet
    re-solved). *)

val drift_total : t -> int
(** Cumulative drift flags across all pools. *)
