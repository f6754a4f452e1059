let scan objective ~alpha ~budget ordered =
  Budget.validate budget;
  let chosen = ref [] in
  let spent = ref 0. in
  Array.iter
    (fun w ->
      let c = Workers.Worker.cost w in
      if !spent +. c <= budget +. 1e-9 then begin
        chosen := w :: !chosen;
        spent := !spent +. c
      end)
    ordered;
  let jury = Workers.Pool.of_list (List.rev !chosen) in
  {
    Solver.jury;
    score = Engine.Objective.score_workers objective ~alpha jury;
    evaluations = 1;
    cache = None;
  }

let by_quality objective ~alpha ~budget pool =
  scan objective ~alpha ~budget
    (Workers.Pool.to_array (Workers.Pool.sorted_by_quality_desc pool))

let by_cheapest objective ~alpha ~budget pool =
  scan objective ~alpha ~budget
    (Workers.Pool.to_array (Workers.Pool.sorted_by_cost pool))

let by_density objective ~alpha ~budget pool =
  let density w =
    let q = Float.max 0.5 (Float.min 0.99 (Workers.Worker.quality w)) in
    let value = Prob.Log_space.logit q in
    let c = Float.max 1e-9 (Workers.Worker.cost w) in
    value /. c
  in
  let workers = Workers.Pool.to_array pool in
  Array.sort (fun a b -> compare (density b) (density a)) workers;
  scan objective ~alpha ~budget workers

let best_of_all objective ~alpha ~budget pool =
  let a = by_quality objective ~alpha ~budget pool in
  let b = by_cheapest objective ~alpha ~budget pool in
  let c = by_density objective ~alpha ~budget pool in
  Solver.best (Solver.best a b) c
