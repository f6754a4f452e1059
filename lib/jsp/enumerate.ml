let max_pool = 20

let solve objective ~alpha ~budget pool =
  Budget.validate budget;
  if Workers.Pool.size pool > max_pool then
    invalid_arg "Enumerate.solve: pool too large for exhaustive search";
  let score = Engine.Objective.score_workers objective ~alpha in
  let evaluations = ref 0 in
  (* The empty subset comes first and always fits, so the sentinel is
     replaced on the first feasible jury. *)
  let consider ((best_jury, best_score) as best) jury =
    if not (Budget.feasible ~budget jury) then best
    else begin
      incr evaluations;
      let s = score jury in
      if
        s > best_score
        || (s = best_score && Budget.jury_cost jury < Budget.jury_cost best_jury)
      then (jury, s)
      else best
    end
  in
  let jury, score =
    Seq.fold_left consider
      (Workers.Pool.of_list [], neg_infinity)
      (Workers.Pool.subsets pool)
  in
  { Solver.jury; score; evaluations = !evaluations; cache = None }

let solve_bv ?num_buckets ~alpha ~budget pool =
  solve (Engine.Objective.bv_bucket ?num_buckets ()) ~alpha ~budget pool
