(** Exact JSP by exhaustive subset enumeration.

    JSP is NP-hard (Theorem 4); for pools of up to ~20 workers the 2^N
    feasible juries can still be enumerated, which is how the paper obtains
    the optimal J* in Figure 7(a)/Table 3 (N = 11) and how Figure 1's
    budget–quality table is computed. *)

val max_pool : int
(** Largest pool accepted (20). *)

val solve :
  Engine.Objective.t -> alpha:float -> budget:Budget.t -> Workers.Pool.t -> Workers.Pool.t Solver.result
(** The feasible jury with the maximum objective score; among equal scores,
    the cheaper jury wins (then the earlier-enumerated, so results are
    deterministic).  The empty jury is always feasible, so the result is
    total.  @raise Invalid_argument when the pool exceeds {!max_pool}. *)

val solve_bv :
  ?num_buckets:int ->
  alpha:float ->
  budget:Budget.t ->
  Workers.Pool.t ->
  Workers.Pool.t Solver.result
(** [solve] with the bucket-BV objective (OPTJS's exact-search variant). *)
