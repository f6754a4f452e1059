(** Sharded dispatcher: routes work to per-executor shard queues.

    One {!Bqueue} shard per executor domain.  A request is routed by an
    [affinity] hash (the service hashes the pool name), so same-pool
    requests land on the same shard — and that shard's warm
    [Jq.Incremental] state and session and fleet stores — while different
    pools spread across shards and never touch each other's locks.

    Two mechanisms keep a skewed affinity distribution from serializing
    the plane:

    - {b spill}: when the affinity shard is full, the push is retried on
      the least-loaded other shard with room (admission control is the
      total capacity, not one shard's slice);
    - {b stealing}: a push that brings its shard to a backlog of four
      invites one other shard's owner, round-robin; an invited owner with
      an empty shard steals the front item of the longest neighbour.

    Replies stay byte-deterministic under both: the service's memos are
    keyed by the full request, so any executor — owner or thief, hit or
    miss — computes the identical response. *)

type 'a t

val create : shards:int -> capacity:int -> 'a t
(** [capacity] is the total bound across shards (each shard gets
    [ceil (capacity / shards)] slots).
    @raise Invalid_argument for non-positive [shards] or [capacity]. *)

val push : 'a t -> affinity:int -> 'a -> [ `Ok | `Overload | `Closed ]
(** Never blocks.  [`Overload] means every shard with capacity is full;
    [`Closed] that the dispatcher was shut down. *)

val pop : 'a t -> shard:int -> ('a * [ `Own | `Stolen ]) option
(** Executor loop for [shard]: block for the own shard's front item, or —
    when invited while empty — steal one from the longest other shard.
    [None] once the dispatcher is closed and the own shard drained
    (leftovers on other shards are drained by their owners). *)

val close : 'a t -> unit
(** Close every shard and wake every owner.  Queued items are still
    handed out. *)

val length : 'a t -> int
(** Total queued items across shards (racy snapshot, for metrics). *)

val shards : 'a t -> int
val capacity : 'a t -> int
(** Total capacity actually allocated (= shards × per-shard slots). *)
