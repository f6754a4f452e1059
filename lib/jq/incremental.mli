(** Anytime (incremental) JQ estimation with worker removal.

    Algorithm 1 processes a *fixed* jury; when workers arrive one at a time
    — online collection, greedy jury growth, or the annealer's swap moves —
    recomputing from scratch after each change costs O(n) passes over the
    key map.  This module keeps the key map alive between changes as a
    dense array over the contiguous key span [−Σbᵢ, Σbᵢ]: {!add_worker}
    folds one worker in (one array pass), {!remove_worker} deconvolves one
    back out (also one pass — the per-worker DP step is a linear
    convolution with kernel [{+b ↦ q, −b ↦ 1−q}], which is invertible for
    q ≠ 0.5 and b > 0), and {!value} reads an estimate maintained during
    those passes in O(1).  Every key holding mass has the parity of Σbᵢ,
    so each pass visits only the Σbᵢ + 1 keys of that parity.

    One deliberate difference from {!Bucket}: the bucket width is fixed up
    front from the global logit cap φ(0.99) rather than the jury's own
    maximum logit (unknowable in advance), so a width-d·n guarantee is kept
    by construction for any arrival order.  Estimates therefore differ from
    {!Bucket.estimate}'s by at most the sum of both error bounds (a property
    test pins this), and the ĴQ ≤ JQ direction still holds.

    Removal is numerically the exact inverse of addition; accumulated float
    drift is caught by a mass-renormalization check after each
    deconvolution, plus a periodic full rebuild from the tracked worker
    multiset, so a long add/remove stream (the annealing hot path) cannot
    degrade silently.  A member whose bucket is 0 only scaled the map, so
    its removal marks the map for a rebuild at the next {!value}. *)

type t
(** Mutable accumulator over an implicit jury multiset. *)

val create : ?num_buckets:int -> ?alpha:float -> unit -> t
(** Empty jury.  [num_buckets] defaults to {!Bucket.default_num_buckets};
    a non-half prior is folded in as the usual pseudo-worker (Theorem 3).
    @raise Invalid_argument for num_buckets <= 0 or alpha outside [0, 1]. *)

val add_worker : t -> float -> unit
(** Fold one worker of the given quality into the jury (sub-0.5 qualities
    are reinterpreted as usual).
    @raise Invalid_argument for a quality outside [0, 1]. *)

val remove_worker : t -> float -> unit
(** Take one worker of the given quality back out of the jury, in one pass
    over the keys of the live parity (a bucket-0 member: a rebuild at the
    next {!value} instead).
    Qualities q and 1−q are the same member after reinterpretation.
    @raise Invalid_argument for a quality outside [0, 1], or when no member
    of that (reinterpreted) quality is currently in the jury. *)

val reset : t -> unit
(** Back to the empty jury (the prior pseudo-worker is re-folded) while
    keeping the allocated key-map arrays, so a long-lived evaluator — a
    serving executor scoring one pool after another — reuses its grown
    capacity instead of reallocating per query.  Does not count as a
    {!rebuilds} event. *)

val value : t -> float
(** The current ĴQ: 1 while a certain worker (q ∈ {0, 1}) is present,
    otherwise the key-map estimate floored at the Lemma-1 lower bounds —
    max(α, 1−α) (BV dominates prior-only play; this is also the empty-jury
    value) and the top member quality above 0.99 (BV dominates the
    single-member dictator; such members are never bucketized, mirroring
    {!Bucket.estimate}'s high-quality shortcut). *)

val size : t -> int
(** Current jury size: workers added minus workers removed (excluding the
    prior pseudo-worker). *)

val convolved : t -> int
(** The number of logits actually convolved into the key map: non-coin,
    non-certain members plus the prior pseudo-worker when α ≠ 0.5.  This —
    not {!size} — is the n of the §4.4 error bound. *)

val coins : t -> int
(** Current q = 0.5 members (never convolved; they cannot change BV's JQ). *)

val rebuilds : t -> int
(** Full map rebuilds performed so far (drift guard / periodic fallback). *)

val error_bound : t -> float
(** {!Jq.Bounds.additive_bound} with [upper = φ(0.99)] (the fixed-width
    construction's logit cap) and [n = convolved t]: exactly the logits in
    the map, counting the prior pseudo-worker and skipping coins and
    certain-shortcut members.  0 while a certain member is present.  When a
    member (or the prior) exceeds the 0.99 cap the bound is [1 − floor]
    instead — the same semantics {!Bucket.estimate_stats} reports under its
    high-quality shortcut. *)
