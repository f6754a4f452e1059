(* Budget planning for a large worker marketplace.

   A task provider faces a pool of 200 candidate workers (qualities and
   costs estimated from history) and wants to know how much budget a target
   quality requires.  Exhaustive search is hopeless at N = 200 (Theorem 4),
   so this example exercises the production path: simulated annealing with
   the bucket-approximated Bayesian-Voting objective, plus the Lemma-1/2
   fast paths where they apply, producing a budget-quality table and a
   cheapest-budget-for-target lookup.

   Run with: dune exec examples/budget_planner.exe *)

let () =
  let rng = Prob.Rng.create 314159 in
  let pool = Workers.Generator.gaussian_pool rng Workers.Generator.default 200 in
  Format.printf "Pool: %d workers, mean quality %.3f, total cost %.2f@.@."
    (Workers.Pool.size pool) (Workers.Pool.mean_quality pool)
    (Workers.Pool.total_cost pool);

  (* 1. The budget-quality table over a budget ladder. *)
  let budgets = [ 0.05; 0.1; 0.2; 0.4; 0.8; 1.6 ] in
  let table = Optjs.budget_quality_table ~rng ~alpha:0.5 ~budgets pool in
  Format.printf "Budget-quality table (annealed OPTJS):@.%a@." Jsp.Table.pp table;

  (* 2. Find the cheapest ladder budget reaching a target quality. *)
  let target = 0.95 in
  (match
     List.find_opt (fun (r : Jsp.Table.row) -> r.quality >= target) table
   with
  | Some row ->
      Format.printf "Cheapest ladder budget reaching %.0f%%: %.2f (jury of %d, JQ %.4f)@.@."
        (100. *. target) row.budget
        (Workers.Pool.size row.jury)
        row.quality
  | None ->
      Format.printf "No ladder budget reaches %.0f%%; consider more budget.@.@."
        (100. *. target));

  (* 3. The special cases the lemmas solve outright. *)
  let volunteers = Workers.Generator.free_pool rng Workers.Generator.default 25 in
  (match Jsp.Special.solve (Engine.Objective.bv_bucket ()) ~alpha:0.5 ~budget:0. volunteers with
  | Some r ->
      Format.printf "Volunteers (all free): Lemma 1 selects everyone -> JQ %.4f@."
        r.Jsp.Solver.score
  | None -> assert false);
  let flat = Workers.Generator.uniform_cost_pool rng Workers.Generator.default ~cost:0.1 25 in
  (match Jsp.Special.solve (Engine.Objective.bv_bucket ()) ~alpha:0.5 ~budget:0.55 flat with
  | Some r ->
      Format.printf
        "Uniform cost 0.1, budget 0.55: Lemma 2 takes the top-%d by quality -> JQ %.4f@.@."
        (Workers.Pool.size r.Jsp.Solver.jury)
        r.Jsp.Solver.score
  | None -> assert false);

  (* 4. The exact Pareto frontier on a committee-sized subset: every
     cost/quality trade-off at once, not just the sampled ladder. *)
  let committee = Workers.Pool.take 14 (Workers.Pool.sorted_by_cost pool) in
  let frontier = Jsp.Frontier.exact Engine.Objective.bv_exact ~alpha:0.5 committee in
  Format.printf "Exact budget-quality frontier of the 14 cheapest workers (%d points):@."
    (List.length frontier);
  Format.printf "%a@." Jsp.Frontier.pp (Jsp.Frontier.exact Engine.Objective.bv_exact ~alpha:0.5 (Workers.Pool.take 8 committee));
  (match Jsp.Frontier.cheapest_for frontier ~quality:0.9 with
  | Some p ->
      Format.printf "Cheapest committee jury reaching 90%%: cost %.3f, JQ %.4f@.@."
        p.Jsp.Frontier.cost p.Jsp.Frontier.quality
  | None -> Format.printf "No committee jury reaches 90%%.@.@.");

  (* 5. How much does the optimal strategy matter at a fixed budget? *)
  let budget = 0.4 in
  let opt = Optjs.select_jury ~rng ~alpha:0.5 ~budget pool in
  let mvjs = Jsp.Mvjs.select ~rng ~alpha:0.5 ~budget pool in
  Format.printf "At budget %.2f: OPTJS predicts %.4f, MVJS predicts %.4f (gap %.2f%%)@."
    budget opt.Jsp.Solver.score mvjs.Jsp.Solver.score
    (100. *. (opt.Jsp.Solver.score -. mvjs.Jsp.Solver.score))
