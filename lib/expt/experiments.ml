type driver = ?config:Config.t -> unit -> Report.table

let pct = Report.cell_pct

(* x-axis sweeps: inclusive float ranges. *)
let frange lo hi step =
  let n = int_of_float (Float.round ((hi -. lo) /. step)) in
  List.init (n + 1) (fun i -> lo +. (float_of_int i *. step))

let irange lo hi step =
  let rec go x acc = if x > hi then List.rev acc else go (x + step) (x :: acc) in
  go lo []

let mean_of xs = Prob.Stats.mean (Array.of_list xs)

(* Replicate a paired (mvjs, optjs) measurement and average both sides. *)
let mean_pair ?domains rng ~reps f =
  let pairs = Series.replicate_collect ?domains rng ~reps f in
  (mean_of (List.map fst pairs), mean_of (List.map snd pairs))

let optjs_config (config : Config.t) =
  { Optjs.num_buckets = config.num_buckets; annealing = config.annealing }

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

let fig1 ?config:_ () =
  let pool = Workers.Generator.figure1_pool () in
  let table =
    Jsp.Table.build ~budgets:[ 5.; 10.; 15.; 20. ] pool ~solve:(fun ~budget pool ->
        Jsp.Enumerate.solve Engine.Objective.bv_exact ~alpha:0.5 ~budget pool)
  in
  let rows =
    List.map
      (fun (r : Jsp.Table.row) ->
        [
          Printf.sprintf "%g" r.budget;
          "{"
          ^ String.concat ", "
              (List.map Workers.Worker.name (Workers.Pool.to_list r.jury))
          ^ "}";
          pct r.quality;
          Printf.sprintf "%g" r.required;
        ])
      table
  in
  Report.make ~id:"fig1" ~title:"Budget-quality table for workers A-G (Figure 1)"
    ~header:[ "Budget"; "Optimal Jury Set"; "Quality"; "Required" ]
    ~notes:
      [
        "paper rows: 5 -> {F,G} 75%; 10 -> {C,G} 80%; 15 -> {B,C,G} 84.5%; \
         20 -> {A,C,F,G} 86.95%";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)
(* ------------------------------------------------------------------ *)

let fig2 ?config:_ () =
  let qualities = Workers.Generator.example2_qualities in
  let alpha = 0.5 in
  let breakdown strategy =
    Jq.Exact.jq_table strategy ~alpha ~qualities
  in
  let mv_rows = breakdown Voting.Classic.majority in
  let bv_rows = breakdown Voting.Bayesian.strategy in
  let fmt_voting v =
    "{"
    ^ String.concat ","
        (List.map (fun x -> string_of_int (Voting.Vote.to_int x)) (Array.to_list v))
    ^ "}"
  in
  let rows =
    List.map2
      (fun (v, p0, p1, mv_contrib) (_, _, _, bv_contrib) ->
        [
          fmt_voting v;
          Report.cell_float p0;
          Report.cell_float p1;
          Report.cell_float mv_contrib;
          Report.cell_float bv_contrib;
        ])
      mv_rows bv_rows
  in
  let jq_mv = Jq.Exact.jq Voting.Classic.majority ~alpha ~qualities in
  let jq_bv = Jq.Exact.jq Voting.Bayesian.strategy ~alpha ~qualities in
  Report.make ~id:"fig2"
    ~title:"Worked JQ example, qualities (0.9, 0.6, 0.6), alpha = 0.5 (Figure 2)"
    ~header:[ "V"; "P0(V)"; "P1(V)"; "MV adds"; "BV adds" ]
    ~notes:
      [
        Printf.sprintf "JQ(J,MV,0.5) = %s (paper: 79.2%%)" (pct jq_mv);
        Printf.sprintf "JQ(J,BV,0.5) = %s (paper: 90%%)" (pct jq_bv);
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 6: end-to-end MVJS vs OPTJS                                  *)
(* ------------------------------------------------------------------ *)

let compare_systems (config : Config.t) rng ~generator ~n ~budget =
  let pool = Workers.Generator.gaussian_pool rng generator n in
  let mv =
    Jsp.Mvjs.select ~params:config.annealing ~rng ~alpha:config.alpha ~budget pool
  in
  let opt =
    Optjs.select_jury ~config:(optjs_config config) ~rng ~alpha:config.alpha
      ~budget pool
  in
  (mv.Jsp.Solver.score, opt.Jsp.Solver.score)

let fig6 ~id ~title ~xlabel ~xs ~fmt_x ~instantiate config =
  let rng = Config.rng config in
  let rows =
    List.map
      (fun x ->
        let generator, n, budget = instantiate config x in
        let mv, opt =
          mean_pair ~domains:config.Config.domains rng ~reps:config.Config.reps (fun r ->
              compare_systems config r ~generator ~n ~budget)
        in
        [ fmt_x x; pct mv; pct opt ])
      xs
  in
  Report.make ~id ~title ~header:[ xlabel; "MVJS"; "OPTJS" ]
    ~notes:
      [
        Printf.sprintf "reps=%d seed=%d; paper averages 1000 reps"
          config.Config.reps config.Config.seed;
        "expected shape: OPTJS above MVJS everywhere";
      ]
    rows

let fig6a ?(config = Config.default) () =
  fig6 ~id:"fig6a" ~title:"MVJS vs OPTJS, varying quality mean (Figure 6a)"
    ~xlabel:"mu" ~xs:(frange 0.5 1.0 0.05)
    ~fmt_x:(Printf.sprintf "%.2f")
    ~instantiate:(fun c mu ->
      ({ c.generator with quality_mu = mu }, c.n_workers, c.budget))
    config

let fig6b ?(config = Config.default) () =
  fig6 ~id:"fig6b" ~title:"MVJS vs OPTJS, varying budget (Figure 6b)"
    ~xlabel:"B" ~xs:(frange 0.1 1.0 0.1)
    ~fmt_x:(Printf.sprintf "%.1f")
    ~instantiate:(fun c budget -> (c.generator, c.n_workers, budget))
    config

let fig6c ?(config = Config.default) () =
  fig6 ~id:"fig6c" ~title:"MVJS vs OPTJS, varying pool size (Figure 6c)"
    ~xlabel:"N"
    ~xs:(List.map float_of_int (irange 10 100 10))
    ~fmt_x:(fun x -> string_of_int (int_of_float x))
    ~instantiate:(fun c n -> (c.generator, int_of_float n, c.budget))
    config

let fig6d ?(config = Config.default) () =
  fig6 ~id:"fig6d" ~title:"MVJS vs OPTJS, varying cost deviation (Figure 6d)"
    ~xlabel:"cost_sigma" ~xs:(frange 0.1 1.0 0.1)
    ~fmt_x:(Printf.sprintf "%.1f")
    ~instantiate:(fun c sigma ->
      ({ c.generator with cost_sigma = sigma }, c.n_workers, c.budget))
    config

(* ------------------------------------------------------------------ *)
(* Figure 7(a) + Table 3: annealing vs exhaustive optimum              *)
(* ------------------------------------------------------------------ *)

let fig7a_and_tab3 ?(config = Config.default) () =
  let rng = Config.rng config in
  let budgets = frange 0.05 0.5 0.05 in
  let n = 11 in
  let objective = Engine.Objective.bv_bucket ~num_buckets:config.num_buckets () in
  let task = Engine.Task.binary ~alpha:config.alpha in
  let differences = ref [] in
  let rows =
    List.map
      (fun budget ->
        let pairs =
          Series.replicate_collect ~domains:config.Config.domains rng ~reps:config.reps (fun r ->
              let pool = Workers.Generator.gaussian_pool r config.generator n in
              let star =
                Jsp.Enumerate.solve objective ~alpha:config.alpha ~budget pool
              in
              (* The production solver: annealing plus greedy seeds (the
                 swap-only neighborhood cannot shrink a full jury, so the
                 greedy seeds cover compositions annealing cannot reach). *)
              let annealed =
                Jsp.Solver.map_jury Engine.Pool.to_workers_exn
                  (Jsp.Annealing.solve_engine ~params:config.annealing
                     ~objective ~rng:r ~task ~budget (Engine.Pool.of_workers pool))
              in
              let greedy =
                Jsp.Greedy.best_of_all objective ~alpha:config.alpha ~budget pool
              in
              let hat = Jsp.Solver.best annealed greedy in
              (star.Jsp.Solver.score, hat.Jsp.Solver.score))
        in
        List.iter (fun (s, h) -> differences := (s -. h) :: !differences) pairs;
        [
          Printf.sprintf "%.2f" budget;
          pct (mean_of (List.map fst pairs));
          pct (mean_of (List.map snd pairs));
        ])
      budgets
  in
  let fig =
    Report.make ~id:"fig7a"
      ~title:"JQ of optimal J* vs annealed J^, N = 11 (Figure 7a)"
      ~header:[ "B"; "JQ(J*)"; "JQ(J^)" ]
      ~notes:[ "expected shape: the two curves nearly coincide" ]
      rows
  in
  (* Table 3 counts the per-run gaps in percent ranges
     [0, 0.01], (0.01, 0.1], (0.1, 1], (1, 3], (3, inf). *)
  let ranges = Prob.Histogram.Ranges.create [ 0.0001; 0.001; 0.01; 0.03 ] in
  List.iter (fun d -> Prob.Histogram.Ranges.add ranges (Float.max 0. d)) !differences;
  let labels = [ "[0,0.01]%"; "(0.01,0.1]%"; "(0.1,1]%"; "(1,3]%"; "(3,inf)%" ] in
  let counts = Array.to_list (Prob.Histogram.Ranges.counts ranges) in
  let tab =
    Report.make ~id:"tab3"
      ~title:"Counts of JQ(J*) - JQ(J^) per error range (Table 3)"
      ~header:[ "range"; "count" ]
      ~notes:
        [
          Printf.sprintf "total runs: %d (paper: 10000)" (List.length !differences);
          "paper counts: 9301 / 231 / 408 / 60 / 0 - mass concentrated in \
           the lowest range, none above 3%";
        ]
      (List.map2 (fun l c -> [ l; string_of_int c ]) labels counts)
  in
  (fig, tab)

let fig7a ?config () = fst (fig7a_and_tab3 ?config ())
let tab3 ?config () = snd (fig7a_and_tab3 ?config ())

(* ------------------------------------------------------------------ *)
(* Figure 7(b): JSP runtime scaling                                    *)
(* ------------------------------------------------------------------ *)

(* Per-cell comparison: the seed solver (from-scratch Bucket.run per move)
   against the cached + incremental engine on the same pools.  The per-rep
   closure returns cache stats rather than bumping shared counters — the
   reps fan out over domains. *)
let fig7b ?(config = Config.default) () =
  let rng = Config.rng config in
  let budgets = [ 0.05; 0.20; 0.35; 0.50 ] in
  let reps = max 1 (config.reps / 10) in
  let task = Engine.Task.binary ~alpha:config.alpha in
  let totals = ref Jsp.Objective_cache.empty_stats in
  let rows =
    List.map
      (fun n ->
        let cells =
          List.map
            (fun budget ->
              let runs =
                Series.replicate_collect ~domains:config.Config.domains rng ~reps (fun r ->
                    let pool =
                      Engine.Pool.of_workers
                        (Workers.Generator.gaussian_pool r config.generator n)
                    in
                    let solve ?objective ?cache () =
                      Jsp.Annealing.solve_engine ~params:config.annealing
                        ?objective ~num_buckets:config.num_buckets ?cache ~rng:r
                        ~task ~budget pool
                    in
                    let _, seed_s =
                      Series.timed (fun () ->
                          solve
                            ~objective:
                              (Engine.Objective.bv_bucket
                                 ~num_buckets:config.num_buckets ())
                            ~cache:false ())
                    in
                    let inc, inc_s = Series.timed (fun () -> solve ()) in
                    (seed_s, inc_s, inc.Jsp.Solver.cache))
              in
              List.iter
                (fun (_, _, cache) ->
                  match cache with
                  | Some s -> totals := Jsp.Objective_cache.merge_stats !totals s
                  | None -> ())
                runs;
              let seed_t = mean_of (List.map (fun (s, _, _) -> s) runs) in
              let inc_t = mean_of (List.map (fun (_, s, _) -> s) runs) in
              Printf.sprintf "%.3fs→%.3fs (%.1fx)" seed_t inc_t
                (if inc_t > 0. then seed_t /. inc_t else Float.infinity))
            budgets
        in
        string_of_int n :: cells)
      (irange 100 500 100)
  in
  Report.make ~id:"fig7b"
    ~title:"JSP (annealing) runtime vs N: seed solver → cached incremental (Figure 7b)"
    ~header:("N" :: List.map (Printf.sprintf "B=%.2f") budgets)
    ~notes:
      [
        "expected shape: roughly linear in N; paper reports < 2.5s at N=500 \
         (Python 2.7)";
        "cells: from-scratch solver → cached+incremental engine (speedup)";
        Format.asprintf "cache totals: %a" Jsp.Objective_cache.pp_stats !totals;
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 8: strategy comparison                                       *)
(* ------------------------------------------------------------------ *)

let strategy_names = [ "MV"; "BV"; "RBV"; "RMV" ]

let strategy_jqs config rng ~mu ~n =
  let generator = { config.Config.generator with quality_mu = mu } in
  let qualities =
    Workers.Pool.qualities (Workers.Generator.gaussian_pool rng generator n)
  in
  List.map
    (fun s -> Jq.Exact.jq s ~alpha:config.Config.alpha ~qualities)
    Voting.Registry.comparison_set

let fig8 ~id ~title ~xlabel ~xs ~fmt_x ~point config =
  let rng = Config.rng config in
  let rows =
    List.map
      (fun x ->
        let samples =
          Series.replicate_collect ~domains:config.Config.domains rng ~reps:config.Config.reps (fun r ->
              point config r x)
        in
        let means =
          List.init (List.length strategy_names) (fun i ->
              mean_of (List.map (fun l -> List.nth l i) samples))
        in
        fmt_x x :: List.map pct means)
      xs
  in
  Report.make ~id ~title
    ~header:(xlabel :: strategy_names)
    ~notes:[ "expected shape: BV highest everywhere; RBV pinned at 50%" ]
    rows

let fig8a ?(config = Config.default) () =
  fig8 ~id:"fig8a" ~title:"JQ per strategy, n = 11, varying mu (Figure 8a)"
    ~xlabel:"mu" ~xs:(frange 0.5 1.0 0.05)
    ~fmt_x:(Printf.sprintf "%.2f")
    ~point:(fun config r mu -> strategy_jqs config r ~mu ~n:11)
    config

let fig8b ?(config = Config.default) () =
  fig8 ~id:"fig8b" ~title:"JQ per strategy, mu = 0.7, varying n (Figure 8b)"
    ~xlabel:"n"
    ~xs:(List.map float_of_int (irange 1 11 1))
    ~fmt_x:(fun x -> string_of_int (int_of_float x))
    ~point:(fun config r n -> strategy_jqs config r ~mu:0.7 ~n:(int_of_float n))
    config

(* ------------------------------------------------------------------ *)
(* Figure 9: JQ(J, BV, 0.5) computation                                *)
(* ------------------------------------------------------------------ *)

let fig9a ?(config = Config.default) () =
  let rng = Config.rng config in
  let variances = [ 0.01; 0.03; 0.05; 0.10 ] in
  let rows =
    List.map
      (fun mu ->
        let cells =
          List.map
            (fun variance ->
              let generator =
                {
                  config.generator with
                  quality_mu = mu;
                  quality_sigma = sqrt variance;
                }
              in
              pct
                (Series.mean ~domains:config.Config.domains rng ~reps:config.reps (fun r ->
                     Jq.Bucket.estimate ~num_buckets:config.num_buckets
                       ~alpha:config.alpha
                       (Workers.Pool.qualities
                          (Workers.Generator.gaussian_pool r generator 11)))))
            variances
        in
        Printf.sprintf "%.2f" mu :: cells)
      (frange 0.5 1.0 0.05)
  in
  Report.make ~id:"fig9a"
    ~title:"JQ(J, BV, 0.5) vs mu for quality variances (Figure 9a)"
    ~header:("mu" :: List.map (Printf.sprintf "var=%.2f") variances)
    ~notes:
      [ "expected shape: higher variance helps at mu = 0.5, curves merge near 1" ]
    rows

let approximation_errors config rng ~num_buckets ~samples =
  Series.replicate_collect ~domains:config.Config.domains rng ~reps:samples (fun r ->
      let qualities =
        Workers.Pool.qualities
          (Workers.Generator.gaussian_pool r config.Config.generator 11)
      in
      let exact = Jq.Exact.jq_optimal ~alpha:config.Config.alpha ~qualities in
      let approx =
        Jq.Bucket.estimate ~num_buckets ~alpha:config.Config.alpha qualities
      in
      exact -. approx)

let fig9b ?(config = Config.default) () =
  let rng = Config.rng config in
  let rows =
    List.map
      (fun num_buckets ->
        let errors =
          approximation_errors config rng ~num_buckets ~samples:config.reps
        in
        [
          string_of_int num_buckets;
          Printf.sprintf "%.5f%%" (100. *. mean_of errors);
          Printf.sprintf "%.5f%%"
            (100.
            *. Jq.Bounds.additive_bound ~upper:Jq.Bounds.logit_upper_default
                 ~num_buckets ~n:11);
        ])
      [ 10; 25; 50; 75; 100; 150; 200 ]
  in
  Report.make ~id:"fig9b"
    ~title:"Approximation error vs numBuckets, n = 11 (Figure 9b)"
    ~header:[ "numBuckets"; "mean error"; "worst-case bound" ]
    ~notes:[ "expected shape: error drops sharply and approaches 0" ]
    rows

let fig9c ?(config = Config.default) () =
  let rng = Config.rng config in
  let samples = max 200 (config.reps * 10) in
  let errors =
    approximation_errors config rng ~num_buckets:config.num_buckets ~samples
  in
  let hist = Prob.Histogram.create ~lo:0. ~hi:0.0001 ~buckets:5 in
  List.iter (fun e -> Prob.Histogram.add hist (Float.max 0. e)) errors;
  let rows =
    List.mapi
      (fun i c ->
        let lo, hi = Prob.Histogram.bucket_bounds hist i in
        [ Printf.sprintf "[%.3f%%, %.3f%%)" (100. *. lo) (100. *. hi); string_of_int c ])
      (Array.to_list (Prob.Histogram.counts hist))
  in
  Report.make ~id:"fig9c"
    ~title:"Histogram of approximation errors, numBuckets = 50 (Figure 9c)"
    ~header:[ "error range"; "frequency" ]
    ~notes:
      [
        Printf.sprintf "samples: %d; max observed error: %.5f%%" samples
          (100. *. List.fold_left Float.max 0. errors);
        "expected shape: heavily skewed to the lowest bucket; max within 0.01%";
      ]
    rows

let fig9d ?(config = Config.default) () =
  let rng = Config.rng config in
  let reps = max 1 (config.reps / 10) in
  let rows =
    List.map
      (fun n ->
        let time ~pruning =
          mean_of
            (Series.replicate_collect ~domains:config.Config.domains rng ~reps (fun r ->
                 let qualities =
                   Workers.Pool.qualities
                     (Workers.Generator.gaussian_pool r config.generator n)
                 in
                 snd
                   (Series.timed (fun () ->
                        Jq.Bucket.estimate ~num_buckets:config.num_buckets
                          ~pruning ~alpha:config.alpha qualities))))
        in
        (* Per-swap cost of the incremental accumulator on the same jury
           size: one remove + add + value against a warm key map, i.e. what
           the annealer pays per move instead of a full re-estimate. *)
        let swap_time =
          mean_of
            (Series.replicate_collect ~domains:config.Config.domains rng ~reps (fun r ->
                 let qualities =
                   Workers.Pool.qualities
                     (Workers.Generator.gaussian_pool r config.generator n)
                 in
                 let acc =
                   Jq.Incremental.create ~num_buckets:config.num_buckets
                     ~alpha:config.alpha ()
                 in
                 Array.iter (Jq.Incremental.add_worker acc) qualities;
                 let q = qualities.(0) in
                 snd
                   (Series.timed (fun () ->
                        Jq.Incremental.remove_worker acc q;
                        Jq.Incremental.add_worker acc q;
                        ignore (Jq.Incremental.value acc)))))
        in
        [
          string_of_int n;
          Printf.sprintf "%.3fs" (time ~pruning:true);
          Printf.sprintf "%.3fs" (time ~pruning:false);
          Printf.sprintf "%.2f ms" (1000. *. swap_time);
        ])
      (irange 100 500 100)
  in
  Report.make ~id:"fig9d"
    ~title:"EstimateJQ runtime with vs without pruning (Figure 9d)"
    ~header:[ "n"; "with pruning"; "without pruning"; "incr per swap" ]
    ~notes:
      [
        "expected shape: pruning at least halves the cost; paper reports \
         ~1s vs ~2.5s at n = 500 (Python 2.7)";
        "incr per swap: one remove+add+value on a warm Jq.Incremental map \
         (what the annealer pays per move)";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 10: synthetic-AMT dataset                                    *)
(* ------------------------------------------------------------------ *)

let amt_dataset config =
  Crowd.Amt_dataset.generate (Prob.Rng.create (config.Config.seed + 1))

(* Evenly spaced question subsample so a cheap run still spans the corpus. *)
let question_sample config (dataset : Crowd.Amt_dataset.t) =
  let total = Array.length dataset.tasks in
  let wanted = min config.Config.amt_questions total in
  List.init wanted (fun i -> i * total / wanted)

let draw_costs rng ~n_workers ~cost_sigma =
  Array.init n_workers (fun _ ->
      Prob.Distributions.sample_gaussian_truncated rng ~mu:0.05 ~sigma:cost_sigma
        ~lo:0.01 ~hi:infinity)

let amt_compare config rng dataset ~budget ~n_candidates ~cost_sigma =
  let costs =
    draw_costs rng ~n_workers:dataset.Crowd.Amt_dataset.params.n_workers ~cost_sigma
  in
  let questions = question_sample config dataset in
  let scores =
    List.map
      (fun task_id ->
        let pool =
          Workers.Pool.take n_candidates
            (Crowd.Amt_dataset.candidate_pool dataset ~costs ~task_id)
        in
        let mv =
          Jsp.Mvjs.select ~params:config.Config.annealing ~rng
            ~alpha:config.Config.alpha ~budget pool
        in
        let opt =
          Optjs.select_jury ~config:(optjs_config config) ~rng
            ~alpha:config.Config.alpha ~budget pool
        in
        (mv.Jsp.Solver.score, opt.Jsp.Solver.score))
      questions
  in
  (mean_of (List.map fst scores), mean_of (List.map snd scores))

let fig10 ~id ~title ~xlabel ~xs ~fmt_x ~instantiate config =
  let dataset = amt_dataset config in
  let rng = Config.rng config in
  let reps = max 1 (config.Config.reps / 10) in
  let rows =
    List.map
      (fun x ->
        let budget, n_candidates, cost_sigma = instantiate config x in
        let mv, opt =
          mean_pair ~domains:config.Config.domains rng ~reps (fun r ->
              amt_compare config r dataset ~budget ~n_candidates ~cost_sigma)
        in
        [ fmt_x x; pct mv; pct opt ])
      xs
  in
  Report.make ~id ~title ~header:[ xlabel; "MVJS"; "OPTJS" ]
    ~notes:
      [
        Printf.sprintf "questions=%d reps=%d (paper: all 600 questions)"
          config.Config.amt_questions reps;
        "expected shape: same pattern as the synthetic Figure 6 sweeps; \
         OPTJS above MVJS";
      ]
    rows

let fig10a ?(config = Config.default) () =
  fig10 ~id:"fig10a" ~title:"Synthetic-AMT data, varying budget (Figure 10a)"
    ~xlabel:"B" ~xs:(frange 0.2 1.0 0.1)
    ~fmt_x:(Printf.sprintf "%.1f")
    ~instantiate:(fun _ b -> (b, 20, sqrt 0.2))
    config

let fig10b ?(config = Config.default) () =
  fig10 ~id:"fig10b" ~title:"Synthetic-AMT data, varying N (Figure 10b)"
    ~xlabel:"N"
    ~xs:(List.map float_of_int [ 3; 6; 9; 12; 15; 18; 20 ])
    ~fmt_x:(fun x -> string_of_int (int_of_float x))
    ~instantiate:(fun c n -> (c.Config.budget, int_of_float n, sqrt 0.2))
    config

let fig10c ?(config = Config.default) () =
  fig10 ~id:"fig10c"
    ~title:"Synthetic-AMT data, varying cost deviation (Figure 10c)"
    ~xlabel:"cost_sigma" ~xs:(frange 0.1 1.0 0.1)
    ~fmt_x:(Printf.sprintf "%.1f")
    ~instantiate:(fun c s -> (c.Config.budget, 20, s))
    config

let fig10d ?(config = Config.default) () =
  let dataset = amt_dataset config in
  let rows =
    List.map
      (fun z ->
        let grade =
          Crowd.Evaluate.strategy_on_dataset ~num_buckets:config.num_buckets
            ~strategy:Voting.Bayesian.strategy ~z dataset
        in
        [ string_of_int z; pct grade.accuracy; pct grade.average_jq ])
      (irange 3 20 1)
  in
  Report.make ~id:"fig10d"
    ~title:"Is JQ a good prediction? First-z-votes accuracy vs JQ (Figure 10d)"
    ~header:[ "z"; "accuracy"; "average JQ" ]
    ~notes:[ "expected shape: the two columns track each other closely" ]
    rows

(* ------------------------------------------------------------------ *)
(* Index                                                               *)
(* ------------------------------------------------------------------ *)

let ids =
  [
    "fig1"; "fig2"; "fig6a"; "fig6b"; "fig6c"; "fig6d"; "fig7a"; "tab3";
    "fig7b"; "fig8a"; "fig8b"; "fig9a"; "fig9b"; "fig9c"; "fig9d"; "fig10a";
    "fig10b"; "fig10c"; "fig10d";
  ]

let by_id name =
  match String.lowercase_ascii name with
  | "fig1" -> Some fig1
  | "fig2" -> Some fig2
  | "fig6a" -> Some fig6a
  | "fig6b" -> Some fig6b
  | "fig6c" -> Some fig6c
  | "fig6d" -> Some fig6d
  | "fig7a" -> Some fig7a
  | "tab3" -> Some tab3
  | "fig7b" -> Some fig7b
  | "fig8a" -> Some fig8a
  | "fig8b" -> Some fig8b
  | "fig9a" -> Some fig9a
  | "fig9b" -> Some fig9b
  | "fig9c" -> Some fig9c
  | "fig9d" -> Some fig9d
  | "fig10a" -> Some fig10a
  | "fig10b" -> Some fig10b
  | "fig10c" -> Some fig10c
  | "fig10d" -> Some fig10d
  | _ -> None

let all ?config () =
  let fig7a_t, tab3_t = fig7a_and_tab3 ?config () in
  [
    fig1 ?config (); fig2 ?config (); fig6a ?config (); fig6b ?config ();
    fig6c ?config (); fig6d ?config (); fig7a_t; tab3_t; fig7b ?config ();
    fig8a ?config (); fig8b ?config (); fig9a ?config (); fig9b ?config ();
    fig9c ?config (); fig9d ?config (); fig10a ?config (); fig10b ?config ();
    fig10c ?config (); fig10d ?config ();
  ]
