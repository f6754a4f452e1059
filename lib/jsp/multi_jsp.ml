(* Multi-class jury selection as a thin wrapper over the engine: candidates
   become an [Engine.Pool.t] (ℓ=2 symmetric pools lower to the binary fast
   path), annealing is [Annealing.solve_engine], and every entry point
   returns the shared ['jury Solver.result] contract. *)

let jury_cost jury =
  Prob.Kahan.sum_array (Array.map Workers.Confusion.cost jury)

let task_of ~prior = Engine.Task.make ~prior

let make_objective ?num_buckets ~task counter =
  let objective = Engine.Objective.bv_bucket ?num_buckets () in
  fun jury ->
    incr counter;
    Engine.Objective.score objective ~task (Engine.Pool.of_confusions jury)

let greedy_scan objective ~budget order =
  let chosen = ref [] and spent = ref 0. in
  Array.iter
    (fun c ->
      let cost = Workers.Confusion.cost c in
      if !spent +. cost <= budget +. 1e-9 then begin
        chosen := c :: !chosen;
        spent := !spent +. cost
      end)
    order;
  let jury = Array.of_list (List.rev !chosen) in
  (jury, objective jury)

let sorted_by key candidates =
  let order = Array.copy candidates in
  Array.sort (fun a b -> compare (key b) (key a)) order;
  order

let greedy ?num_buckets ~prior ~budget candidates =
  Budget.validate budget;
  let task = task_of ~prior in
  let evaluations = ref 0 in
  let objective = make_objective ?num_buckets ~task evaluations in
  (* Three seeds, mirroring the binary Greedy module: informativeness per
     cost, raw informativeness, and maximal jury size (Lemma 1). *)
  let density c =
    Workers.Spammer.score c /. Float.max 1e-9 (Workers.Confusion.cost c)
  in
  let orders =
    [
      sorted_by density candidates;
      sorted_by Workers.Spammer.score candidates;
      sorted_by (fun c -> -.Workers.Confusion.cost c) candidates;
    ]
  in
  let best_jury = ref [||] and best_score = ref neg_infinity in
  List.iter
    (fun order ->
      let jury, score = greedy_scan objective ~budget order in
      if score > !best_score then begin
        best_jury := jury;
        best_score := score
      end)
    orders;
  {
    Solver.jury = !best_jury;
    score = !best_score;
    evaluations = !evaluations;
    cache = None;
  }

(* The engine pool carries positional ids, so the jury maps back onto the
   caller's candidate structs by position whatever their own ids are — and
   whichever representation the pool lowered to. *)
let engine_pool candidates =
  Engine.Pool.of_confusions
    (Array.mapi (fun i c -> Workers.Confusion.with_id c i) candidates)

let anneal_pool ?params ?num_buckets ?cache ?memo ~rng ~task ~budget candidates
    epool =
  Solver.map_jury
    (fun jury ->
      Array.of_list (List.map (Array.get candidates) (Engine.Pool.ids jury)))
    (Annealing.solve_engine ?params ?num_buckets ?cache ?memo ~rng ~task
       ~budget epool)

let anneal ?params ?num_buckets ?cache ?memo ~rng ~prior ~budget candidates =
  anneal_pool ?params ?num_buckets ?cache ?memo ~rng ~task:(task_of ~prior)
    ~budget candidates (engine_pool candidates)

let select ?params ?num_buckets ?(restarts = 1) ~rng ~prior ~budget candidates =
  if restarts < 1 then invalid_arg "Multi_jsp.select: restarts < 1";
  let task = task_of ~prior and epool = engine_pool candidates in
  (* Restarts scoring from scratch share one table: their scores are pure,
     so a hit is exactly the float a fresh evaluation would give. *)
  let memo =
    if
      Engine.Objective.incremental
        (Annealing.default_objective ?num_buckets ())
        epool
    then None
    else Some (Objective_cache.create ~n:(Engine.Pool.size epool) ())
  in
  let anneal rng =
    anneal_pool ?params ?num_buckets ?memo ~rng ~task ~budget candidates epool
  in
  let best = ref (anneal rng) in
  for _ = 2 to restarts do
    (* Independent streams per restart; counters accumulate. *)
    let r = anneal (Prob.Rng.split rng) in
    let merged_cache =
      match ((!best).Solver.cache, r.Solver.cache) with
      | Some a, Some b -> Some (Objective_cache.merge_stats a b)
      | one, None | None, one -> one
    in
    let keep = if r.Solver.score > (!best).Solver.score then r else !best in
    best :=
      {
        keep with
        Solver.evaluations = (!best).Solver.evaluations + r.Solver.evaluations;
        cache = merged_cache;
      }
  done;
  let g = greedy ?num_buckets ~prior ~budget candidates in
  let winner = if g.Solver.score > (!best).Solver.score then g else !best in
  {
    winner with
    Solver.evaluations = g.Solver.evaluations + (!best).Solver.evaluations;
    cache = (!best).Solver.cache;
  }

let subset_of_flags candidates flags =
  let members = ref [] in
  for i = Array.length candidates - 1 downto 0 do
    if flags.(i) then members := candidates.(i) :: !members
  done;
  Array.of_list !members

let exhaustive ?num_buckets ~prior ~budget candidates =
  Budget.validate budget;
  let n = Array.length candidates in
  if n > 15 then invalid_arg "Multi_jsp.exhaustive: too many candidates";
  let task = task_of ~prior in
  let evaluations = ref 0 in
  let objective = make_objective ?num_buckets ~task evaluations in
  let best = ref [||] and best_score = ref neg_infinity in
  for mask = 0 to (1 lsl n) - 1 do
    let flags = Array.init n (fun i -> mask land (1 lsl i) <> 0) in
    let jury = subset_of_flags candidates flags in
    if jury_cost jury <= budget +. 1e-9 then begin
      let score = objective jury in
      if score > !best_score then begin
        best := jury;
        best_score := score
      end
    end
  done;
  {
    Solver.jury = !best;
    score = !best_score;
    evaluations = !evaluations;
    cache = None;
  }
