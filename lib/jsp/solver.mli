(** Common result type and contract for jury-selection solvers.

    The jury type is a parameter so every solver — binary
    ({!Workers.Pool.t}), multi-class ({!Workers.Confusion.t array}, see
    {!Multi_jsp}) or engine-level — shares one contract, and experiment and
    report code handles them uniformly. *)

type 'jury result = {
  jury : 'jury;                (** The selected jury (feasible by contract). *)
  score : float;               (** The objective's JQ estimate for it. *)
  evaluations : int;           (** Objective evaluations spent. *)
  cache : Objective_cache.stats option;
      (** Memoization counters, when the solver ran with an
          {!Objective_cache} ([None] for uncached solvers). *)
}

val best : 'jury result -> 'jury result -> 'jury result
(** The result with the higher score (ties keep the first). *)

val map_jury : ('a -> 'b) -> 'a result -> 'b result
(** Re-represent the jury, keeping score and counters. *)
