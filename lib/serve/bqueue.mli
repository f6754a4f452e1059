(** Bounded single-owner work queue — one shard of the serve data plane.

    Each executor domain owns exactly one shard: the owner blocks in
    {!pop} on the shard's private mutex/condvar, so two executors never
    contend on the same lock in steady state (the failure mode that made
    the pre-sharding single global queue scale negatively).  Other actors
    touch a foreign shard only briefly: producers {!push} into it, idle
    executors {!steal} its front item, and a producer that observes
    backlog {!invite}s a neighbouring shard's owner to come stealing.
    Items leave in FIFO order, one per {!pop} or {!steal}. *)

type 'a t

type push_result =
  | Pushed of int  (** Enqueued; payload is the queue length after the push. *)
  | Full           (** At capacity — the dispatcher may spill elsewhere. *)
  | Closed         (** Shut down — no further pushes will ever succeed. *)

val create : capacity:int -> 'a t
(** @raise Invalid_argument for capacity <= 0. *)

val push : 'a t -> 'a -> push_result
(** Enqueue without blocking and wake the owner if it sleeps. *)

val pop : 'a t -> [ `Item of 'a | `Invited | `Closed ]
(** Owner-only.  Block until something happens on this shard:
    [`Item x] — the front item; [`Invited] — a producer signalled backlog
    on some other shard, go try {!steal}ing (the invitation counter is
    consumed); [`Closed] — the shard is closed {i and} drained, the owner
    may exit. *)

val steal : 'a t -> 'a option
(** Thief-side, never blocks: take the front item, or [None] when the
    shard is empty or holds a lone item (the owner's next {!pop}) while
    open.  Items already queued remain stealable after {!close} (they
    still must be answered). *)

val invite : 'a t -> unit
(** Ask the shard's owner to wake up and steal from its neighbours.  The
    invitation is latched in a counter, so it is not lost when the owner
    is busy: it is consumed at the owner's next idle {!pop}. *)

val close : 'a t -> unit
(** Stop accepting pushes and wake the owner.  Items already queued are
    still handed out (to the owner or to thieves). *)

val length : 'a t -> int
(** Items currently queued (a racy snapshot, for routing and metrics). *)

val capacity : 'a t -> int
