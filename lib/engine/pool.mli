(** Engine pools: one worker-pool type over both worker models.

    A pool is either [Binary] — scalar-quality workers, the paper's §2
    model, eligible for the dense {!Jq.Bucket} / {!Jq.Incremental} fast
    paths — or [Matrix] — §7 confusion-matrix workers over ℓ labels.

    {!of_confusions} *lowers* automatically: a pool in which every matrix
    is exactly the symmetric 2×2 [[q, 1−q], [1−q, q]] is represented as
    [Binary] (ids, names and costs preserved), so ℓ=2 symmetric matrix
    pools ride the binary hot paths end to end.  Theorem 3's pseudo-worker
    trick for α ≠ 0.5 stays inside the binary stack — it is never visible
    at this layer. *)

type repr =
  | Binary of Workers.Pool.t
  | Matrix of Workers.Confusion.t array

type t

val repr : t -> repr
(** The underlying representation.  The [Matrix] array is the pool's own —
    treat it as read-only. *)

val of_workers : Workers.Pool.t -> t
(** A binary pool, verbatim. *)

val of_confusions : Workers.Confusion.t array -> t
(** A matrix pool over uniform ℓ, lowered to [Binary] when every worker is
    an exactly-symmetric 2×2 matrix (bitwise test, so the scalar and matrix
    representations score identically).  The array is copied.
    @raise Invalid_argument on mixed label counts. *)

val size : t -> int
val is_empty : t -> bool

val labels : t -> int
(** ℓ of the worker model (2 for binary and for the empty pool). *)

val cost : t -> int -> float
(** Positional cost.  @raise Invalid_argument when out of bounds. *)

val costs : t -> float array
val total_cost : t -> float
val ids : t -> int list

val sub : t -> bool array -> t
(** [sub t selected] keeps the members whose flag is set, preserving order
    and representation (no re-lowering — a [Matrix] subset stays [Matrix]).
    @raise Invalid_argument when the flag array length differs from
    [size t]. *)

val to_workers : t -> Workers.Pool.t option
(** The scalar pool when the representation is [Binary]. *)

val to_workers_exn : t -> Workers.Pool.t
(** {!to_workers} for pools known to be binary — a jury the annealer
    returned for an {!of_workers} pool.
    @raise Invalid_argument on a [Matrix] pool. *)

val to_confusions : t -> Workers.Confusion.t array
(** Matrix view of any pool; binary workers embed via
    {!Workers.Confusion.of_binary}. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
