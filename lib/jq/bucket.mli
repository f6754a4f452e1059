(** Algorithm 1 (EstimateJQ): bucket-based approximation of JQ(J, BV, α).

    Computing JQ for BV exactly is NP-hard (Theorem 2).  The algorithm
    works on R(V) = ln Pr(V|t=0) − ln Pr(V|t=1) = Σ (1−2v_i)·φ(q_i): BV
    answers 0 exactly when R(V) ≥ 0, so at α = 0.5

      JQ = Σ_V [ 1(R(V) > 0)·e^u(V) + ½·1(R(V) = 0)·e^u(V) ].

    Each logit φ(q_i) is snapped to the nearest of numBuckets equal-width
    buckets, turning R into a *bounded integer*.  Since |R| ≤ Σ buckets,
    the key → probability-mass map is a dense float array of 2·Σb + 1
    cells (offset-indexed, ping-pong buffers from a {!Workspace}), grown
    one worker at a time; pruning (Algorithm 2) settles keys whose sign
    the remaining workers can no longer change, and in the dense kernel
    becomes index-range clamping of the scan window.  Every key holding
    mass has the parity of the bucket sum so far, so the dense kernel's
    scans step over every other cell.

    Guarantees (§4.4, verified by property tests): ĴQ ≤ JQ and
    JQ − ĴQ < e^(nδ/4) − 1 — under 1% for numBuckets ≥ 200·n.

    Priors fold in through Theorem 3 ({!Prior.fold}); qualities below 0.5
    canonicalize through {!Reinterpret} (both leave the true JQ
    unchanged). *)

type stats = {
  value : float;           (** ĴQ, the estimated jury quality. *)
  upper : float;           (** Logit range used for bucketing. *)
  delta : float;           (** Bucket width δ (0 when all logits are 0). *)
  max_map_size : int;      (** Largest key-map across iterations (occupied
                               cells for the dense kernel, table entries
                               for the hashtable one). *)
  pruned_pairs : int;      (** (key, prob) pairs settled early by pruning. *)
  error_bound : float;     (** e^(nδ/4) − 1 for this run's δ and n. *)
}

type impl =
  | Flat      (** Dense offset-indexed DP over flat float arrays (default). *)
  | Hashtbl   (** Legacy key → mass hashtable kernel, kept as a
                  differential-testing oracle. *)

val default_num_buckets : int
(** 50, the paper's experimental default (§6.1.1). *)

val estimate :
  ?impl:impl ->
  ?workspace:Workspace.t ->
  ?num_buckets:int ->
  ?pruning:bool ->
  ?high_quality_shortcut:bool ->
  ?alpha:float ->
  float array ->
  float
(** [estimate qs] approximates JQ(J, BV, α).  Defaults: numBuckets = 50,
    pruning on, α = 0.5.  [high_quality_shortcut] (default [true]) applies
    §4.4's early return: when some quality exceeds 0.99, answer that quality
    (a ≤1%-error lower bound by Lemma 1) rather than bucket an unbounded
    logit range.  Degenerate priors (α ∈ {0,1}) and certain workers (q ∈
    {0,1}) return 1 exactly.

    [workspace] supplies the scratch buffers; it defaults to the calling
    domain's {!Workspace.default} and must not be shared across domains
    (see {!Workspace}).  The two kernels agree on [value] up to
    summation-order ulps (property-tested).
    @raise Invalid_argument for an empty jury, a non-positive numBuckets,
    or out-of-range qualities/α. *)

val estimate_stats :
  ?impl:impl ->
  ?workspace:Workspace.t ->
  ?num_buckets:int ->
  ?pruning:bool ->
  ?high_quality_shortcut:bool ->
  ?alpha:float ->
  float array ->
  stats
(** Same computation, with instrumentation. *)

val bucketize : num_buckets:int -> float array -> int array * float
(** [bucketize ~num_buckets logits] is [(b, delta)]: each logit mapped to
    its nearest bucket index b_i = ⌈φ_i/δ − ½⌉ with δ = max φ / numBuckets.
    Exposed for unit tests; returns (zeros, 0.) when every logit is 0. *)
