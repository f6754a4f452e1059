(* Tests for jury selection: budgets, objectives, exhaustive search,
   fast paths (Lemmas 1-2), simulated annealing (Algorithms 3-4), greedy
   baselines, the MVJS baseline, and budget-quality tables. *)

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let w ~id ~q ~c = Workers.Worker.make ~id ~quality:q ~cost:c ()

let fig1 = Workers.Generator.figure1_pool ()

(* Random pools for property tests: up to [max] workers, reliable
   qualities, costs in (0, 2]. *)
let pool_gen_of ~max =
  QCheck2.Gen.(
    int_range 1 max >>= fun n ->
    array_size (return n)
      (pair (Qgen.float_in 0.5 0.99) (float_range 0.05 2.))
    >>= fun specs ->
    return
      (Workers.Pool.of_list
         (List.mapi
            (fun id (q, c) -> w ~id ~q ~c)
            (Array.to_list specs))))

let pool_gen = pool_gen_of ~max:8

let budget_gen = QCheck2.Gen.float_range 0. 6.

(* ---- Budget ------------------------------------------------------------ *)

let test_budget_feasible () =
  check_bool "within" true (Jsp.Budget.feasible ~budget:20. (Workers.Pool.take 3 fig1));
  check_bool "exact boundary" true
    (Jsp.Budget.feasible ~budget:37. fig1);
  check_bool "over" false (Jsp.Budget.feasible ~budget:36.9 fig1);
  check_close 1e-9 "remaining" 3. (Jsp.Budget.remaining ~budget:40. fig1)

let test_budget_validate () =
  Alcotest.check_raises "negative" (Invalid_argument "Budget.validate: negative budget")
    (fun () -> Jsp.Budget.validate (-1.))

let test_budget_helpers () =
  (match Jsp.Budget.cheapest_cost fig1 with
  | Some c -> check_float "cheapest is F" 2. c
  | None -> Alcotest.fail "cheapest");
  check_bool "empty pool" true (Jsp.Budget.cheapest_cost (Workers.Pool.of_list []) = None);
  let affordable = Jsp.Budget.affordable_workers ~budget:5. ~spent:0. fig1 in
  check_int "affordable at 5" 4 (Workers.Pool.size affordable)

(* ---- Objective ----------------------------------------------------------- *)

let score objective ~alpha jury =
  Engine.Objective.score_workers objective ~alpha jury

let test_objective_empty () =
  let empty = Workers.Pool.of_list [] in
  check_float "bucket empty" 0.7
    (score (Engine.Objective.bv_bucket ()) ~alpha:0.7 empty);
  check_float "exact empty" 0.7 (score Engine.Objective.bv_exact ~alpha:0.7 empty);
  (* MV with no jury answers 1; correct with probability 1 - alpha. *)
  check_close 1e-12 "mv empty" 0.3 (score Engine.Objective.mv_closed ~alpha:0.7 empty)

let test_objective_agreement =
  qtest "bucket objective tracks exact objective" pool_gen (fun pool ->
      let bucket = Engine.Objective.bv_bucket ~num_buckets:2000 () in
      Float.abs
        (score bucket ~alpha:0.5 pool -. score Engine.Objective.bv_exact ~alpha:0.5 pool)
      < 0.01)

(* ---- Enumerate ------------------------------------------------------------ *)

(* Reference: brute-force the best feasible subset with the exact objective. *)
let brute_force objective ~alpha ~budget pool =
  Seq.fold_left
    (fun best jury ->
      if not (Jsp.Budget.feasible ~budget jury) then best
      else
        let s = score objective ~alpha jury in
        match best with
        | Some (_, b) when b >= s -> best
        | _ -> Some (jury, s))
    None (Workers.Pool.subsets pool)

let test_enumerate_matches_brute_force =
  qtest ~count:60 "enumerate finds the optimum" (QCheck2.Gen.pair pool_gen budget_gen)
    (fun (pool, budget) ->
      let r = Jsp.Enumerate.solve Engine.Objective.bv_exact ~alpha:0.5 ~budget pool in
      match brute_force Engine.Objective.bv_exact ~alpha:0.5 ~budget pool with
      | Some (_, best) -> Float.abs (r.Jsp.Solver.score -. best) < 1e-9
      | None -> false)

let test_enumerate_feasible =
  qtest "enumerate result is feasible" (QCheck2.Gen.pair pool_gen budget_gen)
    (fun (pool, budget) ->
      let r = Jsp.Enumerate.solve_bv ~alpha:0.5 ~budget pool in
      Jsp.Budget.feasible ~budget r.Jsp.Solver.jury)

let test_enumerate_fig1 () =
  (* The paper's budget-quality table (Figure 1): JQ values are exact. *)
  let solve b = Jsp.Enumerate.solve Engine.Objective.bv_exact ~alpha:0.5 ~budget:b fig1 in
  check_close 1e-9 "B=5" 0.75 (solve 5.).Jsp.Solver.score;
  check_close 1e-9 "B=10" 0.80 (solve 10.).Jsp.Solver.score;
  check_close 1e-9 "B=15" 0.845 (solve 15.).Jsp.Solver.score;
  check_close 1e-9 "B=20" 0.8695 (solve 20.).Jsp.Solver.score

let test_enumerate_zero_budget () =
  let r = Jsp.Enumerate.solve_bv ~alpha:0.5 ~budget:0. fig1 in
  check_int "empty jury" 0 (Workers.Pool.size r.Jsp.Solver.jury);
  check_float "coin score" 0.5 r.Jsp.Solver.score

let test_enumerate_pool_cap () =
  let big =
    Workers.Pool.of_list (List.init 21 (fun id -> w ~id ~q:0.7 ~c:1.))
  in
  Alcotest.check_raises "cap"
    (Invalid_argument "Enumerate.solve: pool too large for exhaustive search")
    (fun () -> ignore (Jsp.Enumerate.solve_bv ~alpha:0.5 ~budget:5. big))

(* ---- Special fast paths ------------------------------------------------------ *)

let test_special_classify () =
  check_bool "all affordable" true
    (Jsp.Special.classify ~budget:37. fig1 = Jsp.Special.All_affordable);
  check_bool "general" true
    (Jsp.Special.classify ~budget:10. fig1 = Jsp.Special.General);
  let uniform = Workers.Pool.of_list (List.init 5 (fun id -> w ~id ~q:0.7 ~c:2.)) in
  check_bool "uniform" true
    (Jsp.Special.classify ~budget:4. uniform = Jsp.Special.Uniform_cost 2.)

let test_special_all_affordable () =
  match Jsp.Special.solve Engine.Objective.bv_exact ~alpha:0.5 ~budget:37. fig1 with
  | Some r -> check_int "everyone" 7 (Workers.Pool.size r.Jsp.Solver.jury)
  | None -> Alcotest.fail "fast path expected"

let test_special_uniform_topk () =
  let uniform =
    Workers.Pool.of_list
      [ w ~id:0 ~q:0.6 ~c:2.; w ~id:1 ~q:0.9 ~c:2.; w ~id:2 ~q:0.8 ~c:2.; w ~id:3 ~q:0.7 ~c:2. ]
  in
  (match Jsp.Special.solve Engine.Objective.bv_exact ~alpha:0.5 ~budget:4.5 uniform with
  | Some r ->
      check_int "two workers" 2 (Workers.Pool.size r.Jsp.Solver.jury);
      Alcotest.(check (array (float 1e-9))) "top 2 by quality" [| 0.9; 0.8 |]
        (Workers.Pool.qualities r.Jsp.Solver.jury)
  | None -> Alcotest.fail "fast path expected");
  (* Fast-path answer equals the exhaustive optimum (Lemma 2). *)
  let exact = Jsp.Enumerate.solve Engine.Objective.bv_exact ~alpha:0.5 ~budget:4.5 uniform in
  (match Jsp.Special.solve Engine.Objective.bv_exact ~alpha:0.5 ~budget:4.5 uniform with
  | Some r -> check_close 1e-9 "matches exact" exact.Jsp.Solver.score r.Jsp.Solver.score
  | None -> Alcotest.fail "fast path expected")

let test_special_none_for_general () =
  check_bool "general has no fast path" true
    (Jsp.Special.solve Engine.Objective.bv_exact ~alpha:0.5 ~budget:10. fig1 = None)

let test_top_k () =
  let top = Jsp.Special.top_k_by_quality 3 fig1 in
  Alcotest.(check (array (float 1e-9))) "order" [| 0.8; 0.77; 0.75 |]
    (Workers.Pool.qualities top)

(* ---- Annealing (Algorithms 3-4) ------------------------------------------------ *)

let light_params =
  { Jsp.Annealing.default_params with epsilon = 1e-4 }

(* The paper-path view of the annealer: a scalar pool under the binary
   task, the jury mapped back to scalars.  [objective] defaults to OPTJS;
   [scratch] is the from-scratch bucket-BV objective. *)
let anneal ?params ?objective ?cache ~rng ~alpha ~budget pool =
  Jsp.Solver.map_jury Engine.Pool.to_workers_exn
    (Jsp.Annealing.solve_engine ?params ?objective ?cache ~rng
       ~task:(Engine.Task.binary ~alpha) ~budget (Engine.Pool.of_workers pool))

let scratch = Engine.Objective.bv_bucket ()

let test_annealing_feasible =
  qtest ~count:60 "annealed jury is feasible"
    (QCheck2.Gen.triple pool_gen budget_gen (QCheck2.Gen.int_range 0 1000))
    (fun (pool, budget, seed) ->
      let rng = Prob.Rng.create seed in
      let r =
        anneal ~params:light_params ~objective:scratch ~rng ~alpha:0.5 ~budget
          pool
      in
      Jsp.Budget.feasible ~budget r.Jsp.Solver.jury)

let test_annealing_deterministic () =
  let pool =
    Workers.Pool.of_list (List.init 8 (fun id -> w ~id ~q:(0.55 +. (0.05 *. float_of_int id)) ~c:(1. +. (0.3 *. float_of_int id))))
  in
  let solve seed =
    anneal ~params:light_params ~objective:scratch ~rng:(Prob.Rng.create seed)
      ~alpha:0.5 ~budget:4. pool
  in
  let a = solve 5 and b = solve 5 in
  check_bool "same jury" true (Workers.Pool.equal a.Jsp.Solver.jury b.Jsp.Solver.jury);
  check_float "same score" a.Jsp.Solver.score b.Jsp.Solver.score

let test_annealing_near_optimal () =
  (* Statistical: across seeds and pools, annealing lands within 2% of the
     exhaustive optimum (the paper's Table 3 shows the same concentration). *)
  let rng = Prob.Rng.create 2024 in
  let worst_gap = ref 0. in
  for _ = 1 to 25 do
    let pool =
      Workers.Generator.gaussian_pool rng Workers.Generator.default 10
    in
    let budget = 0.3 in
    let objective = Engine.Objective.bv_bucket () in
    let star = Jsp.Enumerate.solve objective ~alpha:0.5 ~budget pool in
    let hat =
      anneal ~params:light_params ~objective ~rng ~alpha:0.5 ~budget pool
    in
    worst_gap := Float.max !worst_gap (star.Jsp.Solver.score -. hat.Jsp.Solver.score)
  done;
  check_bool "within 2% of optimal" true (!worst_gap < 0.02)

let test_annealing_keep_best () =
  (* keep_best can only improve on the literal final state. *)
  let pool = Workers.Generator.gaussian_pool (Prob.Rng.create 1) Workers.Generator.default 12 in
  let objective = Engine.Objective.bv_bucket () in
  let final =
    anneal
      ~params:{ light_params with keep_best = false }
      ~objective ~rng:(Prob.Rng.create 3) ~alpha:0.5 ~budget:0.3 pool
  in
  let best =
    anneal
      ~params:{ light_params with keep_best = true }
      ~objective ~rng:(Prob.Rng.create 3) ~alpha:0.5 ~budget:0.3 pool
  in
  check_bool "best >= final" true (best.Jsp.Solver.score >= final.Jsp.Solver.score -. 1e-12)

let test_annealing_empty_pool () =
  let r =
    anneal ~objective:scratch ~rng:(Prob.Rng.create 0) ~alpha:0.5 ~budget:1.
      (Workers.Pool.of_list [])
  in
  check_int "empty jury" 0 (Workers.Pool.size r.Jsp.Solver.jury)

let test_annealing_params_validation () =
  let bad f =
    Alcotest.check_raises "params" (Invalid_argument f) (fun () ->
        ignore
          (anneal
             ~params:
               (match f with
               | "Annealing: epsilon <= 0" -> { light_params with epsilon = 0. }
               | "Annealing: cooling <= 1" -> { light_params with cooling = 1. }
               | _ -> { light_params with t_initial = 1e-9; epsilon = 1e-4 })
             ~objective:scratch ~rng:(Prob.Rng.create 0) ~alpha:0.5 ~budget:1.
             fig1))
  in
  bad "Annealing: epsilon <= 0";
  bad "Annealing: cooling <= 1";
  bad "Annealing: t_initial < epsilon"

let test_annealing_moves_override () =
  let r =
    anneal
      ~params:{ light_params with moves_per_temp = Some 3 }
      ~objective:scratch ~rng:(Prob.Rng.create 0) ~alpha:0.5 ~budget:10. fig1
  in
  check_bool "still feasible" true (Jsp.Budget.feasible ~budget:10. r.Jsp.Solver.jury)

(* ---- Annealing: memoized + incremental engines ----------------------------- *)

let test_annealing_cached_bit_identical =
  (* Memoization must not perturb the search: the objective is pure, and the
     Boltzmann draw is skipped exactly when it was skipped uncached. *)
  qtest ~count:40 "cached annealing = uncached annealing, bit for bit"
    (QCheck2.Gen.triple pool_gen budget_gen (QCheck2.Gen.int_range 0 1000))
    (fun (pool, budget, seed) ->
      let solve cache =
        anneal ~params:light_params ~objective:scratch ~cache
          ~rng:(Prob.Rng.create seed) ~alpha:0.5 ~budget pool
      in
      let plain = solve false and cached = solve true in
      Workers.Pool.equal plain.Jsp.Solver.jury cached.Jsp.Solver.jury
      && plain.Jsp.Solver.score = cached.Jsp.Solver.score
      && cached.Jsp.Solver.cache <> None
      && plain.Jsp.Solver.cache = None
      && cached.Jsp.Solver.evaluations <= plain.Jsp.Solver.evaluations)

let test_annealing_incremental_cached_reproducible =
  (* Unlike the pure objective above, the incremental estimate is not a
     bit-pure function of the selection: deconvolution drift means even an
     uncached run scores a revisited jury ulps apart from the first visit,
     and a flipped `delta >= 0.` consumes an extra Boltzmann draw — so
     cached-vs-uncached bit-identity is unattainable here by construction,
     and the cached run may take a different path that evaluates more.
     What must hold: each cache mode is exactly reproducible under a fixed
     seed and returns a feasible jury, and in the cached run every
     evaluation is a cache miss except the final from-scratch rescore. *)
  qtest ~count:40 "cached incremental annealing is reproducible + feasible"
    (QCheck2.Gen.triple pool_gen budget_gen (QCheck2.Gen.int_range 0 1000))
    (fun (pool, budget, seed) ->
      let solve cache =
        anneal ~params:light_params ~cache
          ~objective:(Engine.Objective.bv_bucket_incremental ())
          ~rng:(Prob.Rng.create seed) ~alpha:0.5 ~budget pool
      in
      let plain = solve false and cached = solve true in
      let again = solve true in
      Workers.Pool.equal cached.Jsp.Solver.jury again.Jsp.Solver.jury
      && cached.Jsp.Solver.score = again.Jsp.Solver.score
      && Jsp.Budget.feasible ~budget plain.Jsp.Solver.jury
      && Jsp.Budget.feasible ~budget cached.Jsp.Solver.jury
      && plain.Jsp.Solver.cache = None
      &&
      match cached.Jsp.Solver.cache with
      | None -> false
      | Some stats ->
          cached.Jsp.Solver.evaluations = stats.Jsp.Objective_cache.misses + 1)

let test_annealing_incremental_feasible =
  qtest ~count:60 "incremental annealed juries are feasible (both objectives)"
    (QCheck2.Gen.triple pool_gen budget_gen (QCheck2.Gen.int_range 0 1000))
    (fun (pool, budget, seed) ->
      let optjs =
        anneal ~params:light_params ~rng:(Prob.Rng.create seed) ~alpha:0.5
          ~budget pool
      in
      let mvjs =
        anneal ~params:light_params
          ~objective:Engine.Objective.mv_closed_incremental
          ~rng:(Prob.Rng.create seed) ~alpha:0.5 ~budget pool
      in
      Jsp.Budget.feasible ~budget optjs.Jsp.Solver.jury
      && Jsp.Budget.feasible ~budget mvjs.Jsp.Solver.jury)

let test_annealing_incremental_deterministic () =
  let pool = Workers.Generator.gaussian_pool (Prob.Rng.create 11) Workers.Generator.default 12 in
  let solve () =
    anneal ~params:light_params ~rng:(Prob.Rng.create 7) ~alpha:0.5 ~budget:0.3
      pool
  in
  let a = solve () and b = solve () in
  check_bool "same jury" true (Workers.Pool.equal a.Jsp.Solver.jury b.Jsp.Solver.jury);
  check_float "same score" a.Jsp.Solver.score b.Jsp.Solver.score

let test_annealing_incremental_near_optimal () =
  (* The incremental fixed-width estimate steers the search to juries whose
     (from-scratch rescored) JQ stays close to the exhaustive optimum.
     Best-of-3 seeds: a single annealing run can be absorbed — free adds
     greedily fill the budget with cheap mediocre workers until no swap to
     any remaining worker is feasible — which is exactly why the restart
     harness exists; a trapped trajectory says nothing about the estimate
     quality under test here. *)
  let rng = Prob.Rng.create 2024 in
  let worst_gap = ref 0. in
  for _ = 1 to 25 do
    let pool = Workers.Generator.gaussian_pool rng Workers.Generator.default 10 in
    let budget = 0.3 in
    let star = Jsp.Enumerate.solve (Engine.Objective.bv_bucket ()) ~alpha:0.5 ~budget pool in
    let base_seed = Prob.Rng.int rng 1_000_000 in
    let best = ref neg_infinity in
    for restart = 0 to 2 do
      let hat =
        anneal ~params:light_params
          ~rng:(Prob.Rng.create (base_seed + restart))
          ~alpha:0.5 ~budget pool
      in
      best := Float.max !best hat.Jsp.Solver.score
    done;
    worst_gap := Float.max !worst_gap (star.Jsp.Solver.score -. !best)
  done;
  check_bool "within 2% of optimal" true (!worst_gap < 0.02)

let test_annealing_mvjs_incremental_score_scale () =
  (* The reported score must be the closed-form MV JQ of the returned jury
     (the incremental run re-scores through Engine.Objective.mv_closed). *)
  let pool = Workers.Generator.gaussian_pool (Prob.Rng.create 5) Workers.Generator.default 12 in
  let r =
    anneal ~params:light_params ~objective:Engine.Objective.mv_closed_incremental
      ~rng:(Prob.Rng.create 9) ~alpha:0.4 ~budget:0.3 pool
  in
  check_close 1e-9 "score = Mv_closed.jq of jury"
    (Jq.Mv_closed.jq ~alpha:0.4 ~qualities:(Workers.Pool.qualities r.Jsp.Solver.jury))
    r.Jsp.Solver.score

let test_annealing_cache_stats_populated () =
  let pool = Workers.Generator.gaussian_pool (Prob.Rng.create 2) Workers.Generator.default 20 in
  let r =
    anneal ~rng:(Prob.Rng.create 1) ~alpha:0.5 ~budget:0.3 pool
  in
  match r.Jsp.Solver.cache with
  | None -> Alcotest.fail "cache stats missing"
  | Some s ->
      check_bool "misses counted" true (s.Jsp.Objective_cache.misses > 0);
      (* The paper schedule cools through ~27 temperatures over a 20-worker
         pool: late phases revisit juries, so hits must show up. *)
      check_bool "hits counted" true (s.Jsp.Objective_cache.hits > 0);
      check_int "saved = hits" s.Jsp.Objective_cache.hits s.Jsp.Objective_cache.evals_saved;
      (* Misses are the only evaluations besides the final rescore. *)
      check_int "misses + rescore = evaluations" r.Jsp.Solver.evaluations
        (s.Jsp.Objective_cache.misses + 1)

let test_objective_cache_unit () =
  let c = Jsp.Objective_cache.create ~capacity:2 ~n:4 () in
  let sel = [| true; false; true; false |] in
  let k = Jsp.Objective_cache.key c sel in
  let calls = ref 0 in
  let f () = incr calls; 0.75 in
  check_float "miss evaluates" 0.75 (Jsp.Objective_cache.find_or_eval c k f);
  check_float "hit reuses" 0.75 (Jsp.Objective_cache.find_or_eval c k f);
  check_int "evaluated once" 1 !calls;
  (* key_swapped = key of the mutated selection. *)
  let k' = Jsp.Objective_cache.key_swapped c sel ~out:0 ~into:1 in
  let sel' = [| false; true; true; false |] in
  check_bool "swapped key matches" true (k' = Jsp.Objective_cache.key c sel');
  check_bool "distinct from original" true (k' <> k);
  (* Epoch eviction at capacity. *)
  ignore (Jsp.Objective_cache.find_or_eval c k' (fun () -> 0.5));
  ignore
    (Jsp.Objective_cache.find_or_eval c
       (Jsp.Objective_cache.key c [| false; false; false; true |])
       (fun () -> 0.25));
  let s = Jsp.Objective_cache.stats c in
  check_bool "eviction happened" true (s.Jsp.Objective_cache.evictions >= 1);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Objective_cache: selection length mismatch") (fun () ->
      ignore (Jsp.Objective_cache.key c [| true |]))

(* ---- Greedy -------------------------------------------------------------------- *)

let test_greedy_feasible =
  qtest "greedy juries are feasible" (QCheck2.Gen.pair pool_gen budget_gen)
    (fun (pool, budget) ->
      let o = Engine.Objective.bv_bucket () in
      List.for_all
        (fun solve ->
          Jsp.Budget.feasible ~budget (solve o ~alpha:0.5 ~budget pool).Jsp.Solver.jury)
        [ Jsp.Greedy.by_quality; Jsp.Greedy.by_cheapest; Jsp.Greedy.by_density ])

let test_greedy_by_quality_order () =
  let r = Jsp.Greedy.by_quality (Engine.Objective.bv_bucket ()) ~alpha:0.5 ~budget:9. fig1 in
  (* Best affordable prefix by quality: C (0.8, $6) then G (0.75, $3). *)
  Alcotest.(check (array (float 1e-9))) "C then G" [| 0.8; 0.75 |]
    (Workers.Pool.qualities r.Jsp.Solver.jury)

let test_greedy_cheapest_maximizes_size =
  qtest "cheapest-first picks at least as many workers"
    (QCheck2.Gen.pair pool_gen budget_gen) (fun (pool, budget) ->
      let o = Engine.Objective.bv_bucket () in
      let cheap = Jsp.Greedy.by_cheapest o ~alpha:0.5 ~budget pool in
      let qual = Jsp.Greedy.by_quality o ~alpha:0.5 ~budget pool in
      Workers.Pool.size cheap.Jsp.Solver.jury >= Workers.Pool.size qual.Jsp.Solver.jury)

let test_greedy_best_of_all =
  qtest "best_of_all dominates each greedy" (QCheck2.Gen.pair pool_gen budget_gen)
    (fun (pool, budget) ->
      let o = Engine.Objective.bv_bucket () in
      let best = Jsp.Greedy.best_of_all o ~alpha:0.5 ~budget pool in
      List.for_all
        (fun solve ->
          (solve o ~alpha:0.5 ~budget pool).Jsp.Solver.score
          <= best.Jsp.Solver.score +. 1e-12)
        [ Jsp.Greedy.by_quality; Jsp.Greedy.by_cheapest; Jsp.Greedy.by_density ])

(* ---- MVJS baseline --------------------------------------------------------------- *)

let test_mvjs_score_is_mv_jq =
  qtest ~count:60 "MVJS reports MV JQ of its jury"
    (QCheck2.Gen.pair pool_gen budget_gen) (fun (pool, budget) ->
      let r =
        Jsp.Mvjs.select ~params:light_params ~rng:(Prob.Rng.create 0) ~alpha:0.5
          ~budget pool
      in
      Float.abs
        (r.Jsp.Solver.score -. Jsp.Mvjs.jq_of_jury ~alpha:0.5 r.Jsp.Solver.jury)
      < 1e-9)

let test_mvjs_exact_optimal =
  qtest ~count:40 "exhaustive MVJS is optimal for MV"
    (QCheck2.Gen.pair pool_gen budget_gen) (fun (pool, budget) ->
      let r = Jsp.Mvjs.select_exact ~alpha:0.5 ~budget pool in
      match brute_force Engine.Objective.mv_closed ~alpha:0.5 ~budget pool with
      | Some (_, best) -> Float.abs (r.Jsp.Solver.score -. best) < 1e-9
      | None -> false)

let test_optjs_beats_mvjs =
  (* The headline comparison: under the same budget, the BV-optimal jury's
     true JQ is at least the MV jury's true JQ. *)
  qtest ~count:60 "OPTJS jury (BV JQ) >= MVJS jury (MV JQ)"
    (QCheck2.Gen.pair pool_gen budget_gen) (fun (pool, budget) ->
      let opt = Jsp.Enumerate.solve Engine.Objective.bv_exact ~alpha:0.5 ~budget pool in
      let mv = Jsp.Mvjs.select_exact ~alpha:0.5 ~budget pool in
      opt.Jsp.Solver.score >= mv.Jsp.Solver.score -. 1e-9)

(* ---- Table ------------------------------------------------------------------------- *)

let test_table_fig1 () =
  let table =
    Jsp.Table.build ~budgets:[ 5.; 10.; 15.; 20. ] fig1 ~solve:(fun ~budget pool ->
        Jsp.Enumerate.solve Engine.Objective.bv_exact ~alpha:0.5 ~budget pool)
  in
  check_int "rows" 4 (List.length table);
  let qualities = List.map (fun (r : Jsp.Table.row) -> r.quality) table in
  Alcotest.(check (list (float 1e-9))) "paper qualities" [ 0.75; 0.80; 0.845; 0.8695 ]
    qualities;
  List.iter
    (fun (r : Jsp.Table.row) ->
      check_bool "required within budget" true (r.required <= r.budget +. 1e-9))
    table

let test_table_monotone_quality () =
  let table =
    Jsp.Table.build_exact ~num_buckets:2000 ~alpha:0.5
      ~budgets:[ 2.; 5.; 9.; 14.; 20.; 37. ] fig1
  in
  let rec check_monotone = function
    | (a : Jsp.Table.row) :: (b : Jsp.Table.row) :: rest ->
        check_bool "quality nondecreasing in budget" true (b.quality >= a.quality -. 1e-6);
        check_monotone (b :: rest)
    | _ -> ()
  in
  check_monotone table

(* ---- Frontier ------------------------------------------------------------------ *)

let test_frontier_fig1 () =
  let points = Jsp.Frontier.exact Engine.Objective.bv_exact ~alpha:0.5 fig1 in
  (* Strictly increasing in both coordinates. *)
  let rec strictly_monotone = function
    | (a : Jsp.Frontier.point) :: (b : Jsp.Frontier.point) :: rest ->
        check_bool "cost increases" true (b.cost > a.cost);
        check_bool "quality increases" true (b.quality > a.quality);
        strictly_monotone (b :: rest)
    | _ -> ()
  in
  strictly_monotone points;
  (* Contains the Figure-1 optimal points. *)
  let has cost quality =
    List.exists
      (fun (p : Jsp.Frontier.point) ->
        Float.abs (p.cost -. cost) < 1e-9 && Float.abs (p.quality -. quality) < 1e-9)
      points
  in
  check_bool "(3, 75%)" true (has 3. 0.75);
  check_bool "(6, 80%)" true (has 6. 0.80);
  check_bool "(14, 84.5%)" true (has 14. 0.845);
  check_bool "(18, 86.95%)" true (has 18. 0.8695);
  (* The full pool is the most expensive Pareto point (Lemma 1). *)
  (match List.rev points with
  | last :: _ -> check_close 1e-9 "everyone at the top" 37. last.Jsp.Frontier.cost
  | [] -> Alcotest.fail "empty frontier")

let test_frontier_queries () =
  let points = Jsp.Frontier.exact Engine.Objective.bv_exact ~alpha:0.5 fig1 in
  check_close 1e-9 "quality_at 15" 0.845 (Jsp.Frontier.quality_at points ~budget:15.);
  check_close 1e-9 "quality_at 0" 0.5 (Jsp.Frontier.quality_at points ~budget:0.);
  (match Jsp.Frontier.cheapest_for points ~quality:0.84 with
  | Some p -> check_close 1e-9 "cheapest for 84%" 14. p.Jsp.Frontier.cost
  | None -> Alcotest.fail "expected a point");
  check_bool "unreachable quality" true
    (Jsp.Frontier.cheapest_for points ~quality:0.999 = None)

let test_frontier_matches_enumerate =
  qtest ~count:40 "frontier step function = per-budget exhaustive optimum"
    (QCheck2.Gen.pair pool_gen budget_gen) (fun (pool, budget) ->
      let points = Jsp.Frontier.exact Engine.Objective.bv_exact ~alpha:0.5 pool in
      let star = Jsp.Enumerate.solve Engine.Objective.bv_exact ~alpha:0.5 ~budget pool in
      Float.abs (Jsp.Frontier.quality_at points ~budget -. star.Jsp.Solver.score)
      < 1e-9)

let test_frontier_sampled_subset () =
  let points =
    Jsp.Frontier.sampled
      ~solve:(fun ~budget pool ->
        Jsp.Enumerate.solve Engine.Objective.bv_exact ~alpha:0.5 ~budget pool)
      ~budgets:[ 3.; 6.; 14.; 18. ] fig1
  in
  check_int "four dominant points" 4 (List.length points)

(* ---- Beam -------------------------------------------------------------------- *)

let test_beam_feasible =
  qtest "beam jury is feasible" (QCheck2.Gen.pair pool_gen budget_gen)
    (fun (pool, budget) ->
      let r = Jsp.Beam.solve (Engine.Objective.bv_bucket ()) ~alpha:0.5 ~budget pool in
      Jsp.Budget.feasible ~budget r.Jsp.Solver.jury)

let test_beam_wide_is_exact =
  (* With a beam wider than 2^N the search is exhaustive over the branch
     tree, hence optimal. *)
  qtest ~count:40 "wide beam matches exhaustive optimum"
    (QCheck2.Gen.pair pool_gen budget_gen) (fun (pool, budget) ->
      let objective = Engine.Objective.bv_exact in
      let beam = Jsp.Beam.solve ~width:1024 objective ~alpha:0.5 ~budget pool in
      let star = Jsp.Enumerate.solve objective ~alpha:0.5 ~budget pool in
      Float.abs (beam.Jsp.Solver.score -. star.Jsp.Solver.score) < 1e-9)

(* Beam search promises greedy's score only where it is exhaustive: with
   at most 5 workers its 32 states hold every subset. *)
let test_beam_dominates_greedy =
  qtest ~count:40 "beam(32) at least as good as greedy"
    (QCheck2.Gen.pair (pool_gen_of ~max:5) budget_gen) (fun (pool, budget) ->
      let objective = Engine.Objective.bv_bucket () in
      let beam = Jsp.Beam.solve objective ~alpha:0.5 ~budget pool in
      let greedy = Jsp.Greedy.best_of_all objective ~alpha:0.5 ~budget pool in
      beam.Jsp.Solver.score >= greedy.Jsp.Solver.score -. 1e-9)

let test_beam_deterministic () =
  let pool = Workers.Generator.gaussian_pool (Prob.Rng.create 5) Workers.Generator.default 15 in
  let solve () = Jsp.Beam.solve (Engine.Objective.bv_bucket ()) ~alpha:0.5 ~budget:0.3 pool in
  let a = solve () and b = solve () in
  check_bool "same jury" true (Workers.Pool.equal a.Jsp.Solver.jury b.Jsp.Solver.jury)

let test_beam_validation () =
  Alcotest.check_raises "width" (Invalid_argument "Beam.solve: width <= 0") (fun () ->
      ignore (Jsp.Beam.solve ~width:0 (Engine.Objective.bv_bucket ()) ~alpha:0.5 ~budget:1. fig1))

(* ---- Sensitivity ----------------------------------------------------------------- *)

let test_sensitivity_zero_noise () =
  let rng = Prob.Rng.create 88 in
  let pool = Workers.Generator.gaussian_pool rng Workers.Generator.default 9 in
  let o =
    Jsp.Sensitivity.measure rng ~samples:5 ~alpha:0.5 ~budget:0.3 ~sigma:0. pool
  in
  check_close 1e-9 "no evaluation error at sigma 0" 0. o.Jsp.Sensitivity.evaluation_error;
  check_close 1e-9 "no regret at sigma 0" 0. o.Jsp.Sensitivity.selection_regret

let test_sensitivity_grows_with_noise () =
  let pool =
    Workers.Generator.gaussian_pool (Prob.Rng.create 89) Workers.Generator.default 9
  in
  let run sigma =
    Jsp.Sensitivity.measure (Prob.Rng.create 90) ~samples:30 ~alpha:0.5
      ~budget:0.3 ~sigma pool
  in
  let small = run 0.02 and large = run 0.15 in
  check_bool "evaluation error grows" true
    (large.Jsp.Sensitivity.evaluation_error
    >= small.Jsp.Sensitivity.evaluation_error -. 0.002);
  check_bool "regret nonnegative" true (small.Jsp.Sensitivity.selection_regret >= 0.)

let test_sensitivity_perturb_ranges =
  qtest ~count:50 "perturbed qualities stay in [0.5, 0.99]"
    QCheck2.Gen.(int_range 0 5_000) (fun seed ->
      let rng = Prob.Rng.create seed in
      let pool = Workers.Generator.gaussian_pool rng Workers.Generator.default 10 in
      let noisy = Jsp.Sensitivity.perturb rng ~sigma:0.3 pool in
      Workers.Pool.size noisy = 10
      && Array.for_all
           (fun q -> q >= 0.5 && q <= 0.99)
           (Workers.Pool.qualities noisy))

let test_sensitivity_validation () =
  let rng = Prob.Rng.create 0 in
  Alcotest.check_raises "sigma" (Invalid_argument "Sensitivity.measure: sigma")
    (fun () ->
      ignore (Jsp.Sensitivity.measure rng ~alpha:0.5 ~budget:1. ~sigma:(-1.) fig1))

(* ---- Multi-class JSP (section 7) ------------------------------------------------ *)

let mc_worker rng id =
  let diag = 0.45 +. Prob.Rng.float rng 0.45 in
  let off = (1. -. diag) /. 2. in
  Workers.Confusion.make ~id
    ~matrix:
      [|
        [| diag; off; off |]; [| off; diag; off |]; [| off; off; diag |];
      |]
    ~cost:(0.02 +. Prob.Rng.float rng 0.2)
    ()

let uniform3 = [| 1. /. 3.; 1. /. 3.; 1. /. 3. |]

let test_multi_jsp_feasible_and_near_exact () =
  let rng = Prob.Rng.create 71 in
  let worst_gap = ref 0. in
  for _ = 1 to 10 do
    let candidates = Array.init 8 (fun id -> mc_worker rng id) in
    let budget = 0.3 in
    let exact = Jsp.Multi_jsp.exhaustive ~prior:uniform3 ~budget candidates in
    let selected = Jsp.Multi_jsp.select ~rng ~prior:uniform3 ~budget candidates in
    check_bool "feasible" true
      (Jsp.Multi_jsp.jury_cost selected.Jsp.Solver.jury <= budget +. 1e-9);
    worst_gap :=
      Float.max !worst_gap
        (exact.Jsp.Solver.score -. selected.Jsp.Solver.score)
  done;
  check_bool "selection near exhaustive" true (!worst_gap < 0.02)

let test_multi_jsp_greedy_feasible () =
  let rng = Prob.Rng.create 72 in
  let candidates = Array.init 10 (fun id -> mc_worker rng id) in
  let r = Jsp.Multi_jsp.greedy ~prior:uniform3 ~budget:0.25 candidates in
  check_bool "feasible" true (Jsp.Multi_jsp.jury_cost r.Jsp.Solver.jury <= 0.25 +. 1e-9);
  check_bool "score in range" true
    (r.Jsp.Solver.score >= (1. /. 3.) -. 1e-9 && r.Jsp.Solver.score <= 1.)

let test_multi_jsp_exhaustive_cap () =
  let rng = Prob.Rng.create 73 in
  let candidates = Array.init 16 (fun id -> mc_worker rng id) in
  Alcotest.check_raises "cap" (Invalid_argument "Multi_jsp.exhaustive: too many candidates")
    (fun () -> ignore (Jsp.Multi_jsp.exhaustive ~prior:uniform3 ~budget:1. candidates))

let test_multi_jsp_empty_budget () =
  let rng = Prob.Rng.create 74 in
  let candidates = Array.init 5 (fun id -> mc_worker rng id) in
  let r = Jsp.Multi_jsp.select ~rng ~prior:uniform3 ~budget:0. candidates in
  check_int "empty jury" 0 (Array.length r.Jsp.Solver.jury);
  check_close 1e-9 "prior argmax score" (1. /. 3.) r.Jsp.Solver.score

let test_multi_jsp_duplicate_ids () =
  (* Two candidates share id 0; with budget 2 both fit and the engine
     picks both.  The jury must hold each candidate once, found by
     position — not the first candidate with that id twice — whether the
     pool lowers to scalars (symmetric 2x2) or stays a matrix pool. *)
  let check_both ~prior candidates =
    let r =
      Jsp.Multi_jsp.anneal ~rng:(Prob.Rng.create 1) ~prior ~budget:2.
        candidates
    in
    check_int "both picked" 2 (Array.length r.Jsp.Solver.jury);
    check_bool "each candidate once, in order" true
      (r.Jsp.Solver.jury.(0) == candidates.(0)
      && r.Jsp.Solver.jury.(1) == candidates.(1))
  in
  check_both ~prior:[| 0.5; 0.5 |]
    [|
      Workers.Confusion.symmetric_binary ~quality:0.9 ~id:0 ~cost:1.;
      Workers.Confusion.symmetric_binary ~quality:0.6 ~id:0 ~cost:1.;
    |];
  let matrix d =
    let off = (1. -. d) /. 2. in
    Workers.Confusion.make ~id:0
      ~matrix:[| [| d; off; off |]; [| off; d; off |]; [| off; off; d |] |]
      ~cost:1. ()
  in
  check_both ~prior:uniform3 [| matrix 0.9; matrix 0.6 |]

let test_table_csv () =
  let table =
    Jsp.Table.build ~budgets:[ 5. ] fig1 ~solve:(fun ~budget pool ->
        Jsp.Enumerate.solve Engine.Objective.bv_exact ~alpha:0.5 ~budget pool)
  in
  let csv = Jsp.Table.to_csv table in
  check_bool "header" true (String.length csv > 0 && String.sub csv 0 6 = "budget")

let () =
  Alcotest.run "jsp"
    [
      ( "budget",
        [
          Alcotest.test_case "feasible" `Quick test_budget_feasible;
          Alcotest.test_case "validate" `Quick test_budget_validate;
          Alcotest.test_case "helpers" `Quick test_budget_helpers;
        ] );
      ( "objective",
        [
          Alcotest.test_case "empty juries" `Quick test_objective_empty;
          test_objective_agreement;
        ] );
      ( "enumerate",
        [
          test_enumerate_matches_brute_force;
          test_enumerate_feasible;
          Alcotest.test_case "figure 1 values" `Quick test_enumerate_fig1;
          Alcotest.test_case "zero budget" `Quick test_enumerate_zero_budget;
          Alcotest.test_case "pool cap" `Quick test_enumerate_pool_cap;
        ] );
      ( "special",
        [
          Alcotest.test_case "classify" `Quick test_special_classify;
          Alcotest.test_case "all affordable" `Quick test_special_all_affordable;
          Alcotest.test_case "uniform top-k" `Quick test_special_uniform_topk;
          Alcotest.test_case "general" `Quick test_special_none_for_general;
          Alcotest.test_case "top-k" `Quick test_top_k;
        ] );
      ( "annealing",
        [
          test_annealing_feasible;
          Alcotest.test_case "deterministic" `Quick test_annealing_deterministic;
          Alcotest.test_case "near optimal" `Slow test_annealing_near_optimal;
          Alcotest.test_case "keep_best" `Quick test_annealing_keep_best;
          Alcotest.test_case "empty pool" `Quick test_annealing_empty_pool;
          Alcotest.test_case "params validation" `Quick test_annealing_params_validation;
          Alcotest.test_case "moves override" `Quick test_annealing_moves_override;
          test_annealing_cached_bit_identical;
          test_annealing_incremental_cached_reproducible;
          test_annealing_incremental_feasible;
          Alcotest.test_case "incremental deterministic" `Quick
            test_annealing_incremental_deterministic;
          Alcotest.test_case "incremental near optimal" `Slow
            test_annealing_incremental_near_optimal;
          Alcotest.test_case "mvjs incremental score scale" `Quick
            test_annealing_mvjs_incremental_score_scale;
          Alcotest.test_case "cache stats populated" `Quick
            test_annealing_cache_stats_populated;
          Alcotest.test_case "objective cache unit" `Quick test_objective_cache_unit;
        ] );
      ( "greedy",
        [
          test_greedy_feasible;
          Alcotest.test_case "by quality order" `Quick test_greedy_by_quality_order;
          test_greedy_cheapest_maximizes_size;
          test_greedy_best_of_all;
        ] );
      ( "mvjs",
        [
          test_mvjs_score_is_mv_jq;
          test_mvjs_exact_optimal;
          test_optjs_beats_mvjs;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "figure 1 frontier" `Quick test_frontier_fig1;
          Alcotest.test_case "queries" `Quick test_frontier_queries;
          test_frontier_matches_enumerate;
          Alcotest.test_case "sampled" `Quick test_frontier_sampled_subset;
        ] );
      ( "beam",
        [
          test_beam_feasible;
          test_beam_wide_is_exact;
          test_beam_dominates_greedy;
          Alcotest.test_case "deterministic" `Quick test_beam_deterministic;
          Alcotest.test_case "validation" `Quick test_beam_validation;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "zero noise" `Quick test_sensitivity_zero_noise;
          Alcotest.test_case "grows with noise" `Slow test_sensitivity_grows_with_noise;
          test_sensitivity_perturb_ranges;
          Alcotest.test_case "validation" `Quick test_sensitivity_validation;
        ] );
      ( "multi_jsp",
        [
          Alcotest.test_case "near exhaustive" `Slow test_multi_jsp_feasible_and_near_exact;
          Alcotest.test_case "greedy feasible" `Quick test_multi_jsp_greedy_feasible;
          Alcotest.test_case "exhaustive cap" `Quick test_multi_jsp_exhaustive_cap;
          Alcotest.test_case "empty budget" `Quick test_multi_jsp_empty_budget;
          Alcotest.test_case "duplicate ids map by position" `Quick
            test_multi_jsp_duplicate_ids;
        ] );
      ( "table",
        [
          Alcotest.test_case "figure 1" `Quick test_table_fig1;
          Alcotest.test_case "monotone quality" `Quick test_table_monotone_quality;
          Alcotest.test_case "csv" `Quick test_table_csv;
        ] );
    ]
