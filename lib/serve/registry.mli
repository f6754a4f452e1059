(** Versioned quality-plane owner: named pools plus their live calibrators.

    Until PR 8 this was a copy-on-write map of immutable CSV snapshots.
    It now owns the full worker-quality state: each named pool carries a
    {!Workers.Calib.t} streaming calibrator, and the served
    {!Engine.Pool.t} is rebuilt from the upload template (ids, names,
    costs) and the calibrator's current estimates whenever a vote batch is
    applied.

    The invalidation contract is unchanged and is what keeps every warm
    cache correct by construction: all quality mutations flow through
    {!report} / {!recal}, every applied batch bumps the registry-wide
    generation and stamps the pool with a fresh version, and the service's
    caches (jury-row and jq memos, session stores) are keyed by
    (name, version, ...), so there is no code path that can observe
    recalibrated qualities through a stale cache.

    Drift flags raised by the calibrator mark the pool [stale]; the service
    reacts by re-solving the recorded standing juries ({!standing} /
    {!refresh_standing}) against the new version. *)

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

val standing : t -> string -> (float * float list * int * int list) list
(** Recorded (budget, prior, seed, jury) specs, most recent first. *)

val refresh_standing :
  t -> name:string -> juries:(float * float list * int * int list) list -> unit
(** Install re-solved juries for matching specs and clear the stale flag —
    the tail end of a drift-triggered re-selection. *)

val clear_stale : t -> name:string -> unit

val stale_pools : t -> int
(** Pools currently flagged stale (drifted, standing juries not yet
    re-solved). *)

val drift_total : t -> int
(** Cumulative drift flags across all pools. *)

(** {2 Calls under a held lock}

    Every function above takes the registry lock for one call, waiting
    for it if need be.  {!Held} runs inside {!locked} or {!try_locked}.
    {!Service} answers warm reads on the submitting (event) thread, which
    must never wait behind a calibration step ({!report} holds the lock
    through it), so each registry call of such a read is a {!Held}
    function run by {!try_locked}. *)

type held
(** The registry while the calling thread holds its lock.  Only
    {!locked} and {!try_locked} hand one out, valid for that call only. *)

val locked : t -> (held -> 'a) -> 'a
(** [locked t f] runs [f] under the registry lock, waiting for it. *)

val try_locked : t -> (held -> 'a) -> 'a option
(** [try_locked t f] is [Some (f held)] when the lock is free at once and
    [None] when another thread holds it; it never waits.  The lock is
    released even when [f] raises. *)

module Held : sig
  val find : held -> string -> (Engine.Pool.t * int) option
  (** As {!find}. *)

  val quality : held -> name:string -> ((int * float * int) list * int) option
  (** Per-worker readback: (worker id, current quality, votes seen) in
      pool order, plus the pool version. *)

  val note_standing :
    held -> name:string -> budget:float -> prior:float list -> seed:int ->
    jury:int list -> unit
  (** Record a solved standing jury for the pool (spec = budget, prior,
      seed).  Specs are deduplicated and capped; unknown pools are
      ignored. *)
end
