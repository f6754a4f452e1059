type config = { num_buckets : int; annealing : Jsp.Annealing.params }

let default_config =
  { num_buckets = Jq.Bucket.default_num_buckets; annealing = Jsp.Annealing.default_params }

let objective config =
  Engine.Objective.bv_bucket ~num_buckets:config.num_buckets ()

let jury_quality ?(config = default_config) ~alpha jury =
  Engine.Objective.score_workers (objective config) ~alpha jury

let jury_quality_exact ~alpha jury =
  Engine.Objective.score_workers Engine.Objective.bv_exact ~alpha jury

let jury_quality_of strategy ~alpha jury =
  Jq.Exact.jq strategy ~alpha ~qualities:(Workers.Pool.qualities jury)

let select_jury ?(config = default_config) ~rng ~alpha ~budget pool =
  let objective = objective config in
  match Jsp.Special.solve objective ~alpha ~budget pool with
  | Some result -> result
  | None ->
      let annealed =
        Jsp.Annealing.solve_engine ~params:config.annealing
          ~num_buckets:config.num_buckets ~rng
          ~task:(Engine.Task.binary ~alpha) ~budget
          (Engine.Pool.of_workers pool)
      in
      let greedy = Jsp.Greedy.best_of_all objective ~alpha ~budget pool in
      Jsp.Solver.best
        (Jsp.Solver.map_jury Engine.Pool.to_workers_exn annealed)
        greedy

let select_jury_exact ?(config = default_config) ~alpha ~budget pool =
  Jsp.Enumerate.solve (objective config) ~alpha ~budget pool

let budget_quality_table ?config ~rng ~alpha ~budgets pool =
  Jsp.Table.build ~budgets pool ~solve:(fun ~budget pool ->
      select_jury ?config ~rng ~alpha ~budget pool)

let system ?(config = default_config) () =
  {
    Crowd.Campaign.name = "OPTJS";
    select =
      (fun rng ~alpha ~budget pool ->
        (select_jury ~config ~rng ~alpha ~budget pool).Jsp.Solver.jury);
    aggregate =
      (fun _rng ~alpha ~qualities voting ->
        Voting.Bayesian.decide_exact ~alpha ~qualities voting);
  }

let mvjs_system ?(config = default_config) () =
  {
    Crowd.Campaign.name = "MVJS";
    select =
      (fun rng ~alpha ~budget pool ->
        (Jsp.Mvjs.select ~params:config.annealing ~rng ~alpha ~budget pool)
          .Jsp.Solver.jury);
    aggregate =
      (fun rng ~alpha ~qualities voting ->
        Voting.Strategy.run Jsp.Mvjs.strategy rng ~alpha ~qualities voting);
  }

let aggregate ~alpha ~qualities voting =
  Voting.Bayesian.decide_exact ~alpha ~qualities voting

let posterior_no ~alpha ~qualities voting =
  Voting.Bayesian.posterior_no ~alpha ~qualities voting

let version = "1.0.0"
