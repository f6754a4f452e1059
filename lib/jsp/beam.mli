(** Beam-search JSP solver.

    A deterministic alternative to simulated annealing: workers are
    considered one at a time (highest log-odds-per-cost first) and a beam of
    the [width] most promising partial juries is carried through the
    take/skip branching.  With an unbounded beam this is exhaustive search;
    with a finite beam it costs O(N · width) objective evaluations and no
    randomness, making it a useful reproducible baseline for the ablation
    benches (annealing vs greedy vs beam vs exhaustive). *)

val default_width : int
(** 32. *)

val solve :
  ?width:int ->
  Engine.Objective.t ->
  alpha:float ->
  budget:Budget.t ->
  Workers.Pool.t ->
  Workers.Pool.t Solver.result
(** The best feasible jury found.  Always feasible; at least as good as the
    empty jury.  @raise Invalid_argument for width <= 0 or a negative
    budget. *)
