type applicability = All_affordable | Uniform_cost of float | General

let classify ~budget pool =
  Budget.validate budget;
  if Budget.feasible ~budget pool then All_affordable
  else
    let costs = Workers.Pool.costs pool in
    let n = Array.length costs in
    if n = 0 then All_affordable
    else begin
      let c = costs.(0) in
      if Array.for_all (fun x -> Float.abs (x -. c) <= 1e-12) costs && c > 0. then
        Uniform_cost c
      else General
    end

let top_k_by_quality k pool =
  Workers.Pool.take k (Workers.Pool.sorted_by_quality_desc pool)

let solve objective ~alpha ~budget pool =
  let scored jury =
    {
      Solver.jury;
      score = Engine.Objective.score_workers objective ~alpha jury;
      evaluations = 1;
      cache = None;
    }
  in
  match classify ~budget pool with
  | General -> None
  | All_affordable -> Some (scored pool)
  | Uniform_cost c ->
      let k = min (int_of_float (Float.floor ((budget +. 1e-9) /. c))) (Workers.Pool.size pool) in
      Some (scored (top_k_by_quality k pool))
