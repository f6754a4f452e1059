type outcome = {
  noise_sigma : float;
  evaluation_error : float;
  selection_regret : float;
  samples : int;
}

let perturb rng ~sigma pool =
  Workers.Pool.of_list
    (List.map
       (fun w ->
         let noisy =
           Prob.Distributions.sample_gaussian_clamped rng
             ~mu:(Workers.Worker.quality w) ~sigma ~lo:0.5 ~hi:0.99
         in
         Workers.Worker.with_quality w noisy)
       (Workers.Pool.to_list pool))

(* Score a jury chosen from the estimate under the true pool: members are
   matched by id. *)
let true_jq ~alpha ~truth jury =
  let true_worker w =
    match Workers.Pool.find_id truth (Workers.Worker.id w) with
    | Some t -> t
    | None -> invalid_arg "Sensitivity: jury member not in the true pool"
  in
  Engine.Objective.score_workers Engine.Objective.bv_exact ~alpha
    (Workers.Pool.of_list (List.map true_worker (Workers.Pool.to_list jury)))

let measure rng ?(samples = 20) ~alpha ~budget ~sigma pool =
  if sigma < 0. || Float.is_nan sigma then invalid_arg "Sensitivity.measure: sigma";
  if samples <= 0 then invalid_arg "Sensitivity.measure: samples <= 0";
  let optimal = Enumerate.solve Engine.Objective.bv_exact ~alpha ~budget pool in
  let eval_errors = Prob.Kahan.create () in
  let regrets = Prob.Kahan.create () in
  for _ = 1 to samples do
    let estimate = perturb rng ~sigma pool in
    let selected =
      Enumerate.solve Engine.Objective.bv_exact ~alpha ~budget estimate
    in
    let believed = selected.Solver.score in
    let actual = true_jq ~alpha ~truth:pool selected.Solver.jury in
    Prob.Kahan.add eval_errors (Float.abs (believed -. actual));
    Prob.Kahan.add regrets (Float.max 0. (optimal.Solver.score -. actual))
  done;
  let n = float_of_int samples in
  {
    noise_sigma = sigma;
    evaluation_error = Prob.Kahan.total eval_errors /. n;
    selection_regret = Prob.Kahan.total regrets /. n;
    samples;
  }
