(** Bounded memo table for jury scores, keyed on the selection bitset.

    For a fixed candidate pool a jury {i is} its selection bitset, and the
    annealer revisits juries heavily once the temperature drops — most
    moves are rejected and the walk oscillates around a few states.  The
    cache turns those repeat evaluations into hash lookups, with
    hit/miss/evals-saved counters surfaced through {!Solver.result} and the
    bench rows.

    Eviction is by epoch: when the table reaches capacity it is emptied
    wholesale.  The annealer's working set late in cooling is tiny, so it
    repopulates within a few moves; no per-entry bookkeeping taxes the hot
    path. *)

type t
(** A cache for one fixed candidate pool (keys are [n]-bit selections). *)

type key = string
(** Packed selection bitset ((n+7)/8 bytes). *)

type stats = {
  hits : int;            (** Lookups answered from the table. *)
  misses : int;          (** Lookups that had to evaluate. *)
  evals_saved : int;     (** Objective evaluations avoided (= hits). *)
  entries : int;         (** Entries resident at snapshot time. *)
  evictions : int;       (** Epoch resets performed. *)
}

val default_capacity : int
(** 65536 entries. *)

val create : ?capacity:int -> n:int -> unit -> t
(** A fresh cache over an [n]-candidate pool.
    @raise Invalid_argument for [capacity <= 0] or [n < 0]. *)

val key : ?salt:string -> t -> bool array -> key
(** Pack a selection into its key.  [salt] (default ["" ]) is an opaque
    prefix under the caller's control: keys built with different salts
    occupy disjoint key spaces, so one table can serve solves whose scores
    would disagree — {!Annealing} salts from-scratch solves with a digest
    of (objective, task), and accumulator solves also with the budget and
    RNG state, which is what makes caller-owned memo sharing safe by
    construction.  Callers must use fixed-length salts per table.
    @raise Invalid_argument when the array length differs from [n]. *)

val key_swapped : ?salt:string -> t -> bool array -> out:int -> into:int -> key
(** [key] of the selection with positions [out] and [into] toggled —
    probing a swap candidate without mutating the selection. *)

val find_or_eval : t -> key -> (unit -> float) -> float
(** Memoized call: return the cached score for [key], or evaluate, store
    and return it. *)

val stats : t -> stats
(** Counters so far (cheap snapshot). *)

val stats_since : t -> stats -> stats
(** The hits, misses and evictions counted since [before] was taken by
    {!stats} on the same table, with the entries resident now — one
    solve's own counters on a table that outlives it. *)

val empty_stats : stats
val merge_stats : stats -> stats -> stats
(** Pointwise sum — aggregate over restarts. *)

val pp_stats : Format.formatter -> stats -> unit
