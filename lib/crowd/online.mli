(** Online (adaptive) vote collection.

    JSP commits to a jury *before* seeing any votes.  The online-processing
    systems the paper relates to (CDAS [25], Boim et al. [4], §8) instead
    ask one worker at a time and stop as soon as the answer is confident —
    often cheaper for easy tasks, at the price of latency.  This module
    implements that alternative over the same worker model so the trade-off
    can be measured (the `abl-online` ablation bench):

    - after each vote the Bayesian posterior Pr(t = 0 | votes) is updated;
    - collection stops when the posterior's favourite reaches [confidence],
      the [budget] cannot afford any remaining worker, or everyone voted;
    - the next worker is picked by a {!policy}. *)

type policy =
  | By_quality        (** Highest quality first. *)
  | By_cost           (** Cheapest first. *)
  | Random_order      (** Uniformly random among affordable workers. *)
  | By_information_gain
      (** Greatest expected entropy reduction of the posterior per unit
          cost — the "ask the most informative affordable worker" rule
          (the entropy-driven assignment of Boim et al. [4]). *)

type outcome = {
  answer : Voting.Vote.t;     (** Posterior argmax when collection stopped. *)
  posterior_no : float;       (** Pr(t = 0 | collected votes). *)
  votes_used : int;
  cost : float;               (** Total reward paid. *)
  asked : int list;           (** Worker ids in ask order. *)
  predicted_jq : float;
      (** Anytime JQ of the workers actually asked (incremental Algorithm-1
          estimate) — what a JSP-style prediction would have said about
          this ad-hoc jury. *)
}

val run :
  Prob.Rng.t ->
  ?policy:policy ->
  confidence:float ->
  budget:float ->
  alpha:float ->
  truth:Voting.Vote.t ->
  Workers.Pool.t ->
  outcome
(** Simulate one task.  Votes are sampled from each worker's latent quality
    against [truth]; the decision logic never sees [truth].
    @raise Invalid_argument for confidence outside (0.5, 1], a negative
    budget, or alpha outside [0, 1]. *)

type summary = {
  tasks : int;
  accuracy : float;
  mean_cost : float;
  mean_votes : float;
}

val simulate_many :
  Prob.Rng.t ->
  ?policy:policy ->
  confidence:float ->
  budget:float ->
  alpha:float ->
  tasks:int ->
  Workers.Pool.t ->
  summary
(** Run many tasks with truths drawn from the prior and aggregate. *)

val expected_entropy_gain : posterior_no:float -> quality:float -> float
(** The information-gain score: H(p) − E[H(p | one vote from a quality-q
    worker)], in nats; nonnegative.  Exposed for tests. *)

val posterior_entropy : float array -> float
(** Shannon entropy (nats) of an ℓ-label posterior vector. *)

val expected_entropy_gain_vector :
  posterior:float array -> confusion:Workers.Confusion.t -> float
(** ℓ-label generalization of {!expected_entropy_gain}: the expected
    reduction in posterior entropy from one vote by a confusion-matrix
    worker, marginalizing the vote over the current posterior.  Routes ℓ=2
    symmetric matrices onto the scalar fast path bit-for-bit, so sequential
    sessions over binary pools score candidates exactly as {!run} does.
    @raise Invalid_argument when the posterior length and matrix dimension
    disagree or fewer than two labels are given. *)
