let select ?params ~rng ~alpha ~budget pool =
  let annealed =
    Annealing.solve_engine ?params ~objective:Engine.Objective.mv_closed_incremental
      ~rng ~task:(Engine.Task.binary ~alpha) ~budget (Engine.Pool.of_workers pool)
  in
  let greedy = Greedy.best_of_all Engine.Objective.mv_closed ~alpha ~budget pool in
  Solver.best (Solver.map_jury Engine.Pool.to_workers_exn annealed) greedy

let select_exact ~alpha ~budget pool =
  Enumerate.solve Engine.Objective.mv_closed ~alpha ~budget pool

let jq_of_jury ~alpha jury =
  Jq.Mv_closed.jq ~alpha ~qualities:(Workers.Pool.qualities jury)

let strategy = Voting.Classic.majority
