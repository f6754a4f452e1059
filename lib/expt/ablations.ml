type driver = ?config:Config.t -> unit -> Report.table

let pct = Report.cell_pct
let mean_of xs = Prob.Stats.mean (Array.of_list xs)

(* ---- abl-solver ------------------------------------------------------ *)

let solver_comparison ?(config = Config.default) () =
  let rng = Config.rng config in
  let n = 12 in
  let objective = Engine.Objective.bv_bucket ~num_buckets:config.num_buckets () in
  let task = Engine.Task.binary ~alpha:config.alpha in
  let solvers =
    [
      ( "exact",
        fun ~budget pool _rng -> Jsp.Enumerate.solve objective ~alpha:config.alpha ~budget pool );
      ( "anneal",
        fun ~budget pool rng ->
          Jsp.Solver.map_jury Engine.Pool.to_workers_exn
            (Jsp.Annealing.solve_engine ~params:config.annealing ~objective
               ~rng ~task ~budget (Engine.Pool.of_workers pool)) );
      ( "beam32",
        fun ~budget pool _rng ->
          Jsp.Beam.solve ~width:32 objective ~alpha:config.alpha ~budget pool );
      ( "beam8",
        fun ~budget pool _rng ->
          Jsp.Beam.solve ~width:8 objective ~alpha:config.alpha ~budget pool );
      ( "greedy",
        fun ~budget pool _rng ->
          Jsp.Greedy.best_of_all objective ~alpha:config.alpha ~budget pool );
    ]
  in
  let rows =
    List.map
      (fun budget ->
        (* Every solver sees the same pools (and a private copy of the same
           stream), so the columns are directly comparable. *)
        let per_rep =
          Series.replicate_collect ~domains:config.Config.domains rng ~reps:config.reps (fun r ->
              let pool = Workers.Generator.gaussian_pool r config.generator n in
              List.map
                (fun (_, solve) ->
                  (solve ~budget pool (Prob.Rng.copy r)).Jsp.Solver.score)
                solvers)
        in
        Printf.sprintf "%.2f" budget
        :: List.mapi
             (fun i _ -> pct (mean_of (List.map (fun row -> List.nth row i) per_rep)))
             solvers)
      [ 0.1; 0.2; 0.3; 0.4; 0.5 ]
  in
  Report.make ~id:"abl-solver"
    ~title:"Solver ablation: mean JQ of the selected jury (N = 12)"
    ~header:("B" :: List.map fst solvers)
    ~notes:
      [
        "expected: exact >= anneal ~ beam32 >= beam8 >= greedy, with small gaps";
      ]
    rows

(* ---- abl-buckets ------------------------------------------------------ *)

let bucket_resolution ?(config = Config.default) () =
  let rng = Config.rng config in
  let n = 30 in
  (* Mediocre, heterogeneous juries: high-quality pools saturate JQ at ~1
     where every resolution looks perfect; the interesting regime is
     JQ ~ 0.8-0.95 with spread-out logits.  Exact JQ is out of reach at
     n = 30, so a 5000-bucket run is the reference (its own bound is ~100x
     tighter than the coarsest setting measured). *)
  let generator =
    {
      config.generator with
      Workers.Generator.quality_mu = 0.58;
      quality_sigma = 0.08;
      quality_hi = 0.9;
    }
  in
  let rows =
    List.map
      (fun num_buckets ->
        let samples =
          Series.replicate_collect ~domains:config.Config.domains rng ~reps:config.reps (fun r ->
              let qs =
                Workers.Pool.qualities
                  (Workers.Generator.gaussian_pool r generator n)
              in
              let reference = Jq.Bucket.estimate ~num_buckets:5000 qs in
              let (value, seconds) =
                Series.timed (fun () -> Jq.Bucket.estimate ~num_buckets qs)
              in
              (Float.abs (reference -. value), seconds))
        in
        [
          string_of_int num_buckets;
          Printf.sprintf "%.5f%%" (100. *. mean_of (List.map fst samples));
          Printf.sprintf "%.2f ms" (1000. *. mean_of (List.map snd samples));
        ])
      [ 5; 10; 25; 50; 100; 200; 500 ]
  in
  Report.make ~id:"abl-buckets"
    ~title:"Bucket-resolution ablation: error vs cost (n = 30, mediocre juries)"
    ~header:[ "numBuckets"; "error vs 5000-bucket ref"; "time" ]
    ~notes:[ "expected: error falls fast; 50 buckets already lands near zero" ]
    rows

(* ---- abl-keepbest ------------------------------------------------------ *)

let keep_best ?(config = Config.default) () =
  let rng = Config.rng config in
  let n = 11 in
  let objective = Engine.Objective.bv_bucket ~num_buckets:config.num_buckets () in
  let task = Engine.Task.binary ~alpha:config.alpha in
  let rows =
    List.map
      (fun budget ->
        let gaps =
          Series.replicate_collect ~domains:config.Config.domains rng ~reps:config.reps (fun r ->
              let pool = Workers.Generator.gaussian_pool r config.generator n in
              let star =
                (Jsp.Enumerate.solve objective ~alpha:config.alpha ~budget pool)
                  .Jsp.Solver.score
              in
              let anneal ~keep_best rng =
                (Jsp.Annealing.solve_engine
                   ~params:{ config.annealing with keep_best }
                   ~objective ~rng ~task ~budget (Engine.Pool.of_workers pool))
                  .Jsp.Solver.score
              in
              let with_memory = anneal ~keep_best:true (Prob.Rng.copy r) in
              let without = anneal ~keep_best:false r in
              (star -. with_memory, star -. without))
        in
        [
          Printf.sprintf "%.2f" budget;
          Printf.sprintf "%.4f%%" (100. *. mean_of (List.map fst gaps));
          Printf.sprintf "%.4f%%" (100. *. mean_of (List.map snd gaps));
        ])
      [ 0.1; 0.3; 0.5 ]
  in
  Report.make ~id:"abl-keepbest"
    ~title:"Annealing memory ablation: gap to exhaustive optimum (N = 11)"
    ~header:[ "B"; "gap with keep_best"; "gap without" ]
    ~notes:[ "expected: keep_best never larger; both gaps tiny" ]
    rows

(* ---- abl-ties ----------------------------------------------------------- *)

let tie_breaking ?(config = Config.default) () =
  let rng = Config.rng config in
  let n = 8 in
  let strategies =
    [ Voting.Classic.majority; Voting.Classic.majority_tie_coin;
      Voting.Classic.half ]
  in
  let rows =
    List.concat_map
      (fun alpha ->
        List.map
          (fun size ->
            (* One pool per replication, all three conventions on it. *)
            let per_rep =
              Series.replicate_collect ~domains:config.Config.domains rng ~reps:config.reps (fun r ->
                  let qs =
                    Workers.Pool.qualities
                      (Workers.Generator.gaussian_pool r config.generator size)
                  in
                  List.map (fun s -> Jq.Exact.jq s ~alpha ~qualities:qs) strategies)
            in
            Printf.sprintf "%.1f" alpha :: string_of_int size
            :: List.mapi
                 (fun i _ ->
                   pct (mean_of (List.map (fun row -> List.nth row i) per_rep)))
                 strategies)
          [ 4; n ])
      [ 0.3; 0.5; 0.7 ]
  in
  Report.make ~id:"abl-ties"
    ~title:"Tie-breaking ablation on even juries: MV vs MV-coin vs Half"
    ~header:[ "alpha"; "n"; "MV (tie->1)"; "MV-coin"; "Half (tie->0)" ]
    ~notes:
      [
        "expected: identical at alpha = 0.5; the prior's favourite side wins \
         ties when alpha is skewed";
      ]
    rows

(* ---- abl-estimators ------------------------------------------------------ *)

let estimators ?(config = Config.default) () =
  let rng = Config.rng config in
  let n_workers = 15 in
  let rows =
    List.map
      (fun votes_per_worker ->
        let rmses =
          Series.replicate_collect ~domains:config.Config.domains rng ~reps:config.reps (fun r ->
              let truths =
                Array.init votes_per_worker (fun i -> i mod 2)
              in
              let qualities =
                Array.init n_workers (fun _ ->
                    Prob.Distributions.sample_gaussian_clamped r ~mu:0.75
                      ~sigma:0.1 ~lo:0.55 ~hi:0.95)
              in
              let votes = ref [] in
              let histories =
                Array.init n_workers (fun worker_id ->
                    Workers.History.create ~worker_id ())
              in
              Array.iteri
                (fun task truth ->
                  Array.iteri
                    (fun worker q ->
                      let label =
                        if Prob.Rng.bernoulli r q then truth else 1 - truth
                      in
                      votes := { Workers.Dawid_skene.task; worker; label } :: !votes;
                      Workers.History.record_gold histories.(worker) ~task_id:task
                        ~vote:label ~truth)
                    qualities)
                truths;
              let rmse estimates =
                sqrt
                  (Prob.Stats.mean
                     (Array.mapi
                        (fun i e -> (e -. qualities.(i)) ** 2.)
                        estimates))
              in
              let gold =
                Array.map (fun h -> Workers.Estimator.empirical h) histories
              in
              let ds =
                Workers.Dawid_skene.binary_qualities
                  (Workers.Dawid_skene.run ~n_tasks:votes_per_worker
                     ~n_workers ~n_labels:2 !votes)
              in
              (* EM may converge to the globally flipped solution. *)
              let ds_flipped = Array.map (fun q -> 1. -. q) ds in
              (rmse gold, Float.min (rmse ds) (rmse ds_flipped)))
        in
        [
          string_of_int votes_per_worker;
          Printf.sprintf "%.4f" (mean_of (List.map fst rmses));
          Printf.sprintf "%.4f" (mean_of (List.map snd rmses));
        ])
      [ 10; 20; 50; 100; 200 ]
  in
  Report.make ~id:"abl-estimators"
    ~title:"Quality-estimation ablation: gold-question empirical vs Dawid-Skene EM"
    ~header:[ "answers/worker"; "RMSE gold-empirical"; "RMSE Dawid-Skene" ]
    ~notes:
      [
        "gold-empirical sees the truth (upper bound); Dawid-Skene needs none \
         and should trail it only slightly once answers accumulate";
      ]
    rows

(* ---- abl-online ------------------------------------------------------------ *)

let online_vs_static ?(config = Config.default) () =
  let rng = Config.rng config in
  let n = 20 in
  let tasks = 200 in
  let confidence = 0.95 in
  let rows =
    List.map
      (fun budget ->
        let per_rep =
          Series.replicate_collect rng
            ~reps:(max 1 (config.reps / 4))
            (fun r ->
              let pool = Workers.Generator.gaussian_pool r config.generator n in
              (* Static: pick the jury once, pay it every task. *)
              let static =
                Optjs.select_jury
                  ~config:
                    {
                      Optjs.annealing = config.annealing;
                      num_buckets = config.num_buckets;
                    }
                  ~rng:r ~alpha:config.alpha ~budget pool
              in
              let static_cost = Jsp.Budget.jury_cost static.Jsp.Solver.jury in
              let adaptive policy =
                Crowd.Online.simulate_many r ~policy ~confidence ~budget
                  ~alpha:config.alpha ~tasks pool
              in
              let gain = adaptive Crowd.Online.By_information_gain in
              let qual = adaptive Crowd.Online.By_quality in
              ( static.Jsp.Solver.score,
                static_cost,
                gain.Crowd.Online.accuracy,
                gain.Crowd.Online.mean_cost,
                qual.Crowd.Online.accuracy,
                qual.Crowd.Online.mean_cost ))
        in
        let nth f = mean_of (List.map f per_rep) in
        [
          Printf.sprintf "%.2f" budget;
          pct (nth (fun (a, _, _, _, _, _) -> a));
          Printf.sprintf "%.3f" (nth (fun (_, b, _, _, _, _) -> b));
          pct (nth (fun (_, _, c, _, _, _) -> c));
          Printf.sprintf "%.3f" (nth (fun (_, _, _, d, _, _) -> d));
          pct (nth (fun (_, _, _, _, e, _) -> e));
          Printf.sprintf "%.3f" (nth (fun (_, _, _, _, _, f) -> f));
        ])
      [ 0.2; 0.4; 0.6 ]
  in
  Report.make ~id:"abl-online"
    ~title:
      "Static JSP vs adaptive collection (confidence 0.95, equal budget cap)"
    ~header:
      [
        "B"; "static JQ"; "static cost"; "adaptive(gain) acc"; "cost";
        "adaptive(quality) acc"; "cost";
      ]
    ~notes:
      [
        "expected: adaptive reaches comparable accuracy while spending less \
         on easy tasks; static has zero latency overhead";
      ]
    rows

(* ---- abl-multiclass ---------------------------------------------------------- *)

let random_confusion rng ~labels ~id =
  (* Diagonally-dominant random worker: diagonal weight drawn, off-diagonal
     mass split by a Dirichlet-ish draw. *)
  let diag = Prob.Distributions.sample_uniform rng ~lo:0.45 ~hi:0.9 in
  let matrix =
    Array.init labels (fun j ->
        Array.init labels (fun k ->
            if j = k then diag else (1. -. diag) /. float_of_int (labels - 1)))
  in
  let cost = Prob.Distributions.sample_uniform rng ~lo:0.02 ~hi:0.2 in
  Workers.Confusion.make ~id ~matrix ~cost ()

let multiclass_solvers ?(config = Config.default) () =
  let rng = Config.rng config in
  let labels = 3 in
  let n = 10 in
  let prior = Array.make labels (1. /. float_of_int labels) in
  let rows =
    List.map
      (fun budget ->
        let per_rep =
          Series.replicate_collect rng
            ~reps:(max 1 (config.reps / 4))
            (fun r ->
              let candidates =
                Array.init n (fun id -> random_confusion r ~labels ~id)
              in
              let exact =
                Jsp.Multi_jsp.exhaustive ~num_buckets:config.num_buckets ~prior
                  ~budget candidates
              in
              let annealed =
                Jsp.Multi_jsp.anneal ~params:config.annealing
                  ~num_buckets:config.num_buckets ~rng:r ~prior ~budget candidates
              in
              let greedy =
                Jsp.Multi_jsp.greedy ~num_buckets:config.num_buckets ~prior
                  ~budget candidates
              in
              ( exact.Jsp.Solver.score,
                annealed.Jsp.Solver.score,
                greedy.Jsp.Solver.score ))
        in
        [
          Printf.sprintf "%.2f" budget;
          pct (mean_of (List.map (fun (a, _, _) -> a) per_rep));
          pct (mean_of (List.map (fun (_, b, _) -> b) per_rep));
          pct (mean_of (List.map (fun (_, _, c) -> c) per_rep));
        ])
      [ 0.15; 0.3; 0.6 ]
  in
  Report.make ~id:"abl-multiclass"
    ~title:"Multi-class JSP solvers (3 labels, N = 10 matrix workers)"
    ~header:[ "B"; "exhaustive"; "anneal"; "greedy (spammer-score)" ]
    ~notes:[ "expected: anneal tracks exhaustive; greedy close behind" ]
    rows

(* ---- abl-difficulty -------------------------------------------------------------- *)

let difficulty_robustness ?(config = Config.default) () =
  let rng = Config.rng config in
  let tasks = 2_000 in
  let rows =
    List.map
      (fun spread ->
        let per_rep =
          Series.replicate_collect rng
            ~reps:(max 2 (config.reps / 4))
            (fun r ->
              let pool = Workers.Generator.gaussian_pool r config.generator 30 in
              let jury =
                (Optjs.select_jury
                   ~config:
                     {
                       Optjs.annealing = config.annealing;
                       num_buckets = config.num_buckets;
                     }
                   ~rng:r ~alpha:config.alpha ~budget:config.budget pool)
                  .Jsp.Solver.jury
              in
              let o =
                Crowd.Difficulty.campaign r ~jury ~alpha:config.alpha ~spread
                  ~tasks
              in
              (o.Crowd.Difficulty.predicted_jq, o.Crowd.Difficulty.realized_accuracy))
        in
        let predicted = mean_of (List.map fst per_rep) in
        let realized = mean_of (List.map snd per_rep) in
        [
          Printf.sprintf "%.2f" spread;
          pct predicted;
          pct realized;
          Printf.sprintf "%.2f%%" (100. *. (predicted -. realized));
        ])
      [ 0.0; 0.2; 0.4; 0.6; 0.8 ]
  in
  Report.make ~id:"abl-difficulty"
    ~title:
      "Model-violation robustness: JQ prediction vs realized accuracy under \
       task difficulty (GLAD-style)"
    ~header:[ "difficulty spread"; "predicted JQ"; "realized accuracy"; "gap" ]
    ~notes:
      [
        "spread = 0 is the paper's constant-quality model (gap ~ 0); the gap \
         grows with the spread, quantifying how much the model assumption \
         matters";
      ]
    rows

(* ---- abl-noise -------------------------------------------------------------------- *)

let estimation_noise ?(config = Config.default) () =
  let rng = Config.rng config in
  let rows =
    List.map
      (fun sigma ->
        let per_rep =
          Series.replicate_collect ~domains:config.Config.domains rng
            ~reps:(max 2 (config.reps / 4))
            (fun r ->
              let pool = Workers.Generator.gaussian_pool r config.generator 10 in
              let o =
                Jsp.Sensitivity.measure r ~samples:10 ~alpha:config.alpha
                  ~budget:0.3 ~sigma pool
              in
              (o.Jsp.Sensitivity.evaluation_error, o.Jsp.Sensitivity.selection_regret))
        in
        [
          Printf.sprintf "%.2f" sigma;
          Printf.sprintf "%.3f%%" (100. *. mean_of (List.map fst per_rep));
          Printf.sprintf "%.3f%%" (100. *. mean_of (List.map snd per_rep));
        ])
      [ 0.0; 0.02; 0.05; 0.10; 0.15 ]
  in
  Report.make ~id:"abl-noise"
    ~title:
      "Quality-estimation noise: JQ evaluation error and selection regret \
       (exhaustive JSP, N = 10, B = 0.3)"
    ~header:[ "noise sigma"; "evaluation error"; "selection regret" ]
    ~notes:
      [
        "both are zero when qualities are known exactly and grow with the \
         estimation noise; regret stays well below the evaluation error \
         (selection is more robust than prediction)";
      ]
    rows

(* ---- Index --------------------------------------------------------------------- *)

let ids =
  [
    "abl-solver"; "abl-buckets"; "abl-keepbest"; "abl-ties"; "abl-estimators";
    "abl-online"; "abl-multiclass"; "abl-difficulty"; "abl-noise";
  ]

let by_id name =
  match String.lowercase_ascii name with
  | "abl-solver" -> Some solver_comparison
  | "abl-buckets" -> Some bucket_resolution
  | "abl-keepbest" -> Some keep_best
  | "abl-ties" -> Some tie_breaking
  | "abl-estimators" -> Some estimators
  | "abl-online" -> Some online_vs_static
  | "abl-multiclass" -> Some multiclass_solvers
  | "abl-difficulty" -> Some difficulty_robustness
  | "abl-noise" -> Some estimation_noise
  | _ -> None

let all ?config () =
  [
    solver_comparison ?config (); bucket_resolution ?config ();
    keep_best ?config (); tie_breaking ?config (); estimators ?config ();
    online_vs_static ?config (); multiclass_solvers ?config ();
    difficulty_robustness ?config (); estimation_noise ?config ();
  ]
