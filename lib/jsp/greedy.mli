(** Greedy JSP baselines.

    None of these carries a guarantee — they exist as cheap baselines for
    the ablation benches and as seeds for local search. *)

val by_quality :
  Engine.Objective.t -> alpha:float -> budget:Budget.t -> Workers.Pool.t -> Workers.Pool.t Solver.result
(** Scan workers by decreasing quality, adding each one that still fits. *)

val by_cheapest :
  Engine.Objective.t -> alpha:float -> budget:Budget.t -> Workers.Pool.t -> Workers.Pool.t Solver.result
(** Scan by increasing cost — maximizes jury size (Lemma 1 heuristic). *)

val by_density :
  Engine.Objective.t -> alpha:float -> budget:Budget.t -> Workers.Pool.t -> Workers.Pool.t Solver.result
(** Scan by decreasing logit(q)/cost — the knapsack value-density heuristic
    with a worker's log-odds as its value. *)

val best_of_all :
  Engine.Objective.t -> alpha:float -> budget:Budget.t -> Workers.Pool.t -> Workers.Pool.t Solver.result
(** The best-scoring of the three greedy juries. *)
