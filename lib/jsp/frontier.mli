(** The budget–quality Pareto frontier.

    Figure 1's table samples four budgets; the frontier is the full
    staircase: every (cost, JQ) pair such that no cheaper jury achieves at
    least that JQ.  A task provider reading the frontier sees exactly where
    extra money stops buying quality — the "is going from 15 to 20 units
    worth 2.5%?" judgement of §1, for all budgets at once. *)

type point = {
  cost : float;            (** What the jury actually costs. *)
  quality : float;         (** Its (estimated) JQ. *)
  jury : Workers.Pool.t;
}

val exact :
  Engine.Objective.t -> alpha:float -> Workers.Pool.t -> point list
(** The exact frontier by subset enumeration (pools within
    {!Enumerate.max_pool}): points in strictly increasing cost *and*
    strictly increasing quality; the first point is the best free jury
    (usually the empty jury).  Deterministic. *)

val sampled :
  solve:(budget:Budget.t -> Workers.Pool.t -> Workers.Pool.t Solver.result) ->
  budgets:float list ->
  Workers.Pool.t ->
  point list
(** Approximate frontier from solving JSP at the given budget ladder and
    keeping the Pareto-dominant results (same ordering guarantees). *)

val quality_at : point list -> budget:float -> float
(** Best quality the frontier offers within [budget] (the step function
    evaluated at [budget]); 0 when no frontier point is affordable. *)

val cheapest_for : point list -> quality:float -> point option
(** The cheapest frontier point reaching at least [quality]. *)

val pp : Format.formatter -> point list -> unit
