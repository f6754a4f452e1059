(** Closed-form JSP fast paths from the monotonicity lemmas (§5).

    Lemma 1 (jury size): when workers are free, or the whole pool fits the
    budget, the optimal jury is everyone.  Lemma 2 (quality): with a
    uniform per-worker cost c, the optimal jury is the top-k workers by
    quality with k = min(⌊B/c⌋, N). *)

type applicability =
  | All_affordable      (** Σ c_i ≤ B (includes the all-volunteer case). *)
  | Uniform_cost of float  (** Every worker costs the same c > 0. *)
  | General             (** Neither fast path applies. *)

val classify : budget:Budget.t -> Workers.Pool.t -> applicability

val solve :
  Engine.Objective.t ->
  alpha:float ->
  budget:Budget.t ->
  Workers.Pool.t ->
  Workers.Pool.t Solver.result option
(** The fast-path solution when one applies, [None] otherwise.  The
    objective is only used to score the chosen jury. *)

val top_k_by_quality : int -> Workers.Pool.t -> Workers.Pool.t
(** The k highest-quality workers (deterministic tie-breaking). *)
