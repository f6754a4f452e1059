(** A store of open sessions keyed by (pool name, task id).

    One store lives in each serve shard's warm state: pool-affinity
    dispatch routes every verb for a given pool name to the same home
    shard, so a session's whole lifetime runs against one store.  Three
    eviction mechanisms keep the stores bounded and correct:

    - {b version invalidation}: a session snapshots its pool's registry
      version at open; {!find} is handed the registry's current version
      and drops a still-soliciting session the moment they disagree, so a
      [pool-put] invalidates in-flight sessions by construction, exactly
      like the warm JQ caches (terminal sessions keep serving their
      snapshot until [close] or expiry);
    - {b TTL / idle expiry}: sessions untouched for [ttl] seconds are
      dropped, lazily on access plus an amortized sweep (at most one full
      scan per ttl/4);
    - {b capacity cap with admission control}: [open] beyond [cap] first
      tries to reclaim expired sessions, then refuses.

    The store is not thread-safe; each serve shard guards its own with a
    mutex.  All eviction outcomes are counted for the [stats] verb. *)

type t

type stats = {
  open_now : int;      (** Sessions currently resident. *)
  opened : int;        (** Sessions ever admitted. *)
  decided : int;       (** Terminal transitions recorded via {!note_decided}. *)
  expired : int;       (** TTL evictions. *)
  invalidated : int;   (** Pool-version evictions. *)
  rejected : int;      (** Opens refused at capacity. *)
}

val default_cap : int
val default_ttl : float

val create : ?cap:int -> ?ttl:float -> unit -> t
(** @raise Invalid_argument for cap ≤ 0 or ttl ≤ 0. *)

val open_session :
  t ->
  pool:string ->
  task:string ->
  session:Task.t ->
  now:float ->
  [ `Ok | `Exists | `Full ]

val find :
  t ->
  pool:string ->
  task:string ->
  now:float ->
  version:int ->
  [ `Found of Task.t | `Missing | `Expired | `Invalidated ]
(** Look up a live session.  [version] is the pool's {e current} registry
    version; a mismatch evicts a still-soliciting session and reports
    [`Invalidated].  A terminal session is returned whatever the version:
    its snapshot no longer depends on the pool (this is what keeps a
    deciding vote whose calibration feed bumps the version from
    invalidating its own session).  An idle-expired entry evicts and
    reports [`Expired]. *)

val remove : t -> pool:string -> task:string -> Task.t option
(** Close: drop and return the session if present (no version check — a
    close must always succeed in freeing the slot). *)

val note_decided : t -> unit
(** Count one session reaching a terminal state. *)

val sweep : t -> now:float -> unit
(** Evict every idle-expired session now. *)

val open_count : t -> int
val stats : t -> stats
val zero_stats : stats
val add_stats : stats -> stats -> stats
