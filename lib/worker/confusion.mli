(** Confusion-matrix worker model for multi-choice tasks (§7).

    A worker over ℓ labels is described by an ℓ×ℓ row-stochastic matrix C
    where [C.(j).(k)] is the probability of voting label [k] when the true
    answer is label [j].  The binary single-quality model embeds as the 2×2
    matrix [[q, 1−q], [1−q, q]]. *)

type t
(** A validated confusion matrix together with the worker's cost. *)

val make : ?name:string -> id:int -> matrix:float array array -> cost:float -> unit -> t
(** Validates: square, ℓ ≥ 2, rows nonnegative summing to 1 (±1e-9), cost ≥ 0.
    Rows are renormalized to remove the residual rounding.  The matrix is
    copied.  @raise Invalid_argument on violations. *)

val of_binary : Worker.t -> t
(** Embed a binary quality-q worker as a symmetric 2×2 matrix. *)

val with_id : t -> int -> t
(** The same worker (matrix, cost and name unchanged) under another id. *)

val id : t -> int
val name : t -> string
val cost : t -> float
val labels : t -> int
(** Number of labels ℓ. *)

val prob : t -> truth:int -> vote:int -> float
(** [prob c ~truth ~vote] is Pr(worker votes [vote] | true label [truth]).
    @raise Invalid_argument on out-of-range labels. *)

val row : t -> int -> float array
(** Copy of the distribution over votes when the truth is the given label. *)

val unsafe_row : t -> int -> float array
(** The same distribution {e without} the defensive copy — the backing
    array itself, which must not be mutated.  For allocation-free kernel
    prologues ({!Jq.Multiclass_jq}) that read each row element-wise:
    unlike per-entry {!prob} calls, float reads from the returned array
    stay unboxed.  @raise Invalid_argument on an out-of-range label. *)

val accuracy_given_uniform_prior : t -> float
(** Mean diagonal: the probability of a correct vote when all truths are
    equally likely — a scalar summary used when ranking matrix workers. *)

val diagonal_dominant : t -> bool
(** Whether each row's diagonal entry is its (weak) maximum — the
    matrix analogue of q ≥ 0.5. *)

val symmetric_quality : t -> float option
(** [Some q] when the matrix is exactly (bitwise) the symmetric 2×2
    [[q, 1−q], [1−q, q]] — i.e. the worker admits a lossless scalar-quality
    representation — and [None] otherwise.  The engine uses this to route
    ℓ=2 symmetric pools onto the dense binary fast paths. *)

val symmetric_binary : quality:float -> id:int -> cost:float -> t
(** Convenience builder for a 2×2 quality-q matrix. *)

val uniform_spammer : labels:int -> id:int -> cost:float -> t
(** The worker who votes uniformly at random regardless of the truth. *)

val pp : Format.formatter -> t -> unit
