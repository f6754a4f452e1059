(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 6) and times the core computations with Bechamel.

   Phase 1 prints the rows/series of each artifact (fig1, fig2, fig6a-d,
   fig7a, tab3, fig7b, fig8a-b, fig9a-d, fig10a-d) via Expt.Experiments —
   the same drivers `optjs_cli expt` exposes.

   Phase 2 runs one Bechamel micro-benchmark per artifact, timing the
   computational kernel behind that figure (JQ estimation, exhaustive or
   annealed JSP, system comparison, per-question selection on the
   synthetic AMT data).

   Flags:
     --fast           smoke-test configuration (tiny reps; used by CI)
     --reps N         replications per plotted point (default 20)
     --questions N    synthetic-AMT questions for the fig10 sweeps
     --seed N         master seed
     --only ID        only the artifact ID (phase 1), e.g. --only fig6a
     --skip-rows      skip phase 1
     --skip-timing    skip phase 2
     --csv-dir DIR    also write each phase-1 table as CSV
     --smoke          one timed seed-vs-incremental comparison, written as
                      BENCH_jsp.json (CI smoke; combine with a positional
                      artifact id, e.g. `fig7b --reps 1 --smoke`)
     --multiclass     engine jq throughput and select latency at l = 2, 3, 5,
                      written as BENCH_multiclass.json; asserts the l = 2 row
                      stays within 5% of the binary solver (exits nonzero)

   A bare positional argument is shorthand for --only ID. *)

open Bechamel
open Toolkit

(* ---- Argument parsing ------------------------------------------------ *)

type options = {
  mutable config : Expt.Config.t;
  mutable only : string option;
  mutable skip_rows : bool;
  mutable skip_timing : bool;
  mutable skip_ablations : bool;
  mutable charts : bool;
  mutable csv_dir : string option;
  mutable smoke : bool;
  mutable multiclass : bool;
}

let parse_options () =
  let o =
    {
      config = Expt.Config.default;
      only = None;
      skip_rows = false;
      skip_timing = false;
      skip_ablations = false;
      charts = false;
      csv_dir = None;
      smoke = false;
      multiclass = false;
    }
  in
  let rec go = function
    | [] -> ()
    | "--fast" :: rest ->
        o.config <- { Expt.Config.fast with seed = o.config.Expt.Config.seed };
        go rest
    | "--reps" :: n :: rest ->
        o.config <- Expt.Config.with_reps (int_of_string n) o.config;
        go rest
    | "--questions" :: n :: rest ->
        o.config <- Expt.Config.with_questions (int_of_string n) o.config;
        go rest
    | "--seed" :: n :: rest ->
        o.config <- Expt.Config.with_seed (int_of_string n) o.config;
        go rest
    | "--domains" :: n :: rest ->
        o.config <- Expt.Config.with_domains (int_of_string n) o.config;
        go rest
    | "--only" :: id :: rest ->
        o.only <- Some id;
        go rest
    | "--skip-rows" :: rest ->
        o.skip_rows <- true;
        go rest
    | "--skip-timing" :: rest ->
        o.skip_timing <- true;
        go rest
    | "--skip-ablations" :: rest ->
        o.skip_ablations <- true;
        go rest
    | "--charts" :: rest ->
        o.charts <- true;
        go rest
    | "--csv-dir" :: dir :: rest ->
        o.csv_dir <- Some dir;
        go rest
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | "--multiclass" :: rest ->
        o.multiclass <- true;
        go rest
    | arg :: rest when String.length arg > 0 && arg.[0] <> '-' ->
        o.only <- Some arg;
        go rest
    | arg :: _ -> failwith (Printf.sprintf "unknown argument %S" arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  o

(* ---- Phase 1: experiment rows ----------------------------------------- *)

let print_rows o =
  let emit table =
    Expt.Report.print table;
    if o.charts then
      Option.iter print_string (Expt.Chart.render table);
    match o.csv_dir with
    | Some dir -> ignore (Expt.Report.save_csv ~dir table)
    | None -> ()
  in
  let lookup id =
    match Expt.Experiments.by_id id with
    | Some _ as d -> d
    | None -> Expt.Ablations.by_id id
  in
  match o.only with
  | Some id -> (
      match lookup id with
      | Some driver -> emit (driver ~config:o.config ())
      | None -> failwith (Printf.sprintf "unknown experiment %S" id))
  | None ->
      List.iter emit (Expt.Experiments.all ~config:o.config ());
      if not o.skip_ablations then
        List.iter emit (Expt.Ablations.all ~config:o.config ())

(* ---- Smoke: seed solver vs cached incremental --------------------------- *)

(* One timed comparison on the fig7b workload (annealed JSP at N = 500,
   B = 0.5) between the seed solver and the cached + incremental engine,
   dumped as BENCH_jsp.json so CI can assert on the speedup without parsing
   report tables. *)
let run_smoke o =
  (match o.only with
  | Some id when id <> "fig7b" ->
      failwith (Printf.sprintf "--smoke supports fig7b, not %S" id)
  | _ -> ());
  let config = o.config in
  let n = 500 in
  let budget = 0.5 in
  let pool =
    Engine.Pool.of_workers
      (Workers.Generator.gaussian_pool
         (Prob.Rng.create config.Expt.Config.seed)
         config.Expt.Config.generator n)
  in
  let num_buckets = config.Expt.Config.num_buckets in
  let solve ?objective ?cache () =
    Jsp.Annealing.solve_engine ~params:config.Expt.Config.annealing ?objective
      ~num_buckets ?cache ~rng:(Prob.Rng.create 7)
      ~task:(Engine.Task.binary ~alpha:config.Expt.Config.alpha)
      ~budget pool
  in
  let _, seed_s =
    Expt.Series.timed (fun () ->
        solve ~objective:(Engine.Objective.bv_bucket ~num_buckets ())
          ~cache:false ())
  in
  let inc, inc_s = Expt.Series.timed (fun () -> solve ()) in
  let hits, misses =
    match inc.Jsp.Solver.cache with
    | Some s -> (s.Jsp.Objective_cache.hits, s.Jsp.Objective_cache.misses)
    | None -> (0, 0)
  in
  let speedup = if inc_s > 0. then seed_s /. inc_s else Float.infinity in
  let json =
    Printf.sprintf
      "{\"bench\": \"fig7b\", \"n\": %d, \"budget\": %.2f, \
       \"seed_solver_s\": %.6f, \"cached_incremental_s\": %.6f, \
       \"speedup\": %.2f, \"cache_hits\": %d, \"cache_misses\": %d, \
       \"evaluations\": %d}\n"
      n budget seed_s inc_s speedup hits misses inc.Jsp.Solver.evaluations
  in
  let oc = open_out "BENCH_jsp.json" in
  output_string oc json;
  close_out oc;
  print_string json

(* ---- Multiclass: engine throughput at l = 2, 3, 5 ----------------------- *)

(* JQ throughput and select latency through the task-model engine, dumped
   as BENCH_multiclass.json.  The l = 2 row is the fig7b workload (N = 500,
   B = 0.5) given as symmetric 2x2 confusion matrices, which
   [Engine.Pool.of_confusions] lowers to scalar workers; it must stay
   within 5% of the same pool given as scalars — a larger gap means l = 2
   matrix pools fell off the binary fast path, and the run exits
   nonzero. *)
let run_multiclass o =
  let config = o.config in
  let seed = config.Expt.Config.seed in
  let params = config.Expt.Config.annealing in
  let num_buckets = config.Expt.Config.num_buckets in
  let best_of k f =
    let best = ref infinity in
    for _ = 1 to k do
      let _, s = Expt.Series.timed f in
      if s < !best then best := s
    done;
    !best
  in
  let jq_per_s ~reps epool task =
    let objective = Engine.Objective.bv_bucket ~num_buckets () in
    let _, s =
      Expt.Series.timed (fun () ->
          for _ = 1 to reps do
            ignore (Engine.Objective.score objective ~task epool)
          done)
    in
    if s > 0. then float_of_int reps /. s else Float.infinity
  in
  let matrix_pool ~labels n =
    let rng = Prob.Rng.create (seed + labels) in
    let scalar =
      Workers.Generator.gaussian_pool rng config.Expt.Config.generator n
    in
    Engine.Pool.of_confusions
      (Array.of_list
         (List.mapi
            (fun id w ->
              let d = Workers.Worker.quality w in
              let off = (1. -. d) /. float_of_int (labels - 1) in
              let matrix =
                Array.init labels (fun j ->
                    Array.init labels (fun v -> if j = v then d else off))
              in
              Workers.Confusion.make ~id ~matrix
                ~cost:(Workers.Worker.cost w)
                ())
            (Workers.Pool.to_list scalar)))
  in
  (* l = 2: the fig7b cell as symmetric matrices vs as scalars. *)
  let n2 = 500 and budget2 = 0.5 in
  let pool2 =
    Workers.Generator.gaussian_pool (Prob.Rng.create seed)
      config.Expt.Config.generator n2
  in
  let scalar2 = Engine.Pool.of_workers pool2 in
  let epool2 =
    Engine.Pool.of_confusions
      (Array.map Workers.Confusion.of_binary (Workers.Pool.to_array pool2))
  in
  let task2 = Engine.Task.binary ~alpha:config.Expt.Config.alpha in
  let select_s epool =
    let batch = 8 in
    Gc.full_major ();
    let _, s =
      Expt.Series.timed (fun () ->
          for _ = 1 to batch do
            ignore
              (Jsp.Annealing.solve_engine ~params ~num_buckets
                 ~rng:(Prob.Rng.create 7) ~task:task2 ~budget:budget2 epool)
          done)
    in
    s /. float_of_int batch
  in
  (* The two pools run the same code, so the ratio is timing noise unless
     the lowering broke.  A solve takes ~2 ms, so each sample times a batch
     of eight from a collected heap; the two pools alternate so host drift
     hits both alike, and each keeps its best of fifteen samples. *)
  let baseline_s = ref infinity and select2_s = ref infinity in
  for _ = 1 to 15 do
    baseline_s := Float.min !baseline_s (select_s scalar2);
    select2_s := Float.min !select2_s (select_s epool2)
  done;
  let baseline_s = !baseline_s and select2_s = !select2_s in
  let ratio = select2_s /. baseline_s in
  let jq2 = jq_per_s ~reps:20 epool2 task2 in
  (* Matrix pools: smaller n — every move rescoring is l-tuple work. *)
  let matrix_row ~labels ~n ~reps =
    let epool = matrix_pool ~labels n in
    let task =
      Engine.Task.make
        ~prior:(Array.make labels (1. /. float_of_int labels))
    in
    let budget = 0.5 *. Engine.Pool.total_cost epool in
    let jq = jq_per_s ~reps epool task in
    let select_s =
      best_of 3 (fun () ->
          Jsp.Annealing.solve_engine ~params ~num_buckets
            ~rng:(Prob.Rng.create 7)
            ~task ~budget epool)
    in
    Printf.sprintf
      "{\"labels\": %d, \"n\": %d, \"jq_per_s\": %.1f, \"select_s\": %.6f}"
      labels n jq select_s
  in
  (* Full-pool tuple-key evals grow steeply in l and n (~0.2 s at l=3
     n=12, ~2 s at l=5 n=8); these sizes keep the smoke under a minute. *)
  let row3 = matrix_row ~labels:3 ~n:12 ~reps:5 in
  let row5 = matrix_row ~labels:5 ~n:6 ~reps:5 in
  let json =
    Printf.sprintf
      "{\"bench\": \"multiclass\", \"rows\": [\n\
      \  {\"labels\": 2, \"n\": %d, \"jq_per_s\": %.1f, \"select_s\": %.6f, \
       \"baseline_scalar_s\": %.6f, \"ratio\": %.3f},\n\
      \  %s,\n\
      \  %s\n\
       ]}\n"
      n2 jq2 select2_s baseline_s ratio row3 row5
  in
  let oc = open_out "BENCH_multiclass.json" in
  output_string oc json;
  close_out oc;
  print_string json;
  if ratio > 1.05 then begin
    Printf.eprintf
      "FAIL: l=2 matrix-pool select is %.1f%% slower than the scalar pool \
       (limit 5%%)\n"
      ((ratio -. 1.) *. 100.);
    exit 1
  end

(* ---- Phase 2: Bechamel timing ------------------------------------------ *)

(* Fixed inputs shared by the timing kernels, prepared once outside the
   timed region. *)
let bench_tests config =
  let gen = Workers.Generator.default in
  let rng = Prob.Rng.create 987 in
  let pool7 = Workers.Generator.figure1_pool () in
  let pool11 = Workers.Generator.gaussian_pool rng gen 11 in
  let pool50 = Workers.Generator.gaussian_pool rng gen 50 in
  let epool100 =
    Engine.Pool.of_workers (Workers.Generator.gaussian_pool rng gen 100)
  in
  let binary_half = Engine.Task.binary ~alpha:0.5 in
  let q11 = Workers.Pool.qualities pool11 in
  let q200 =
    Workers.Pool.qualities (Workers.Generator.gaussian_pool rng gen 200)
  in
  let annealing = config.Expt.Config.annealing in
  let dataset = Crowd.Amt_dataset.generate (Prob.Rng.create 4242) in
  let costs = Array.make 128 0.05 in
  let amt_pool = Crowd.Amt_dataset.candidate_pool dataset ~costs ~task_id:0 in
  let solve_rng = Prob.Rng.create 31337 in
  let test name f = Test.make ~name (Staged.stage f) in
  [
    test "fig1/budget-quality-table (exact, N=7)" (fun () ->
        Jsp.Table.build ~budgets:[ 5.; 10.; 15.; 20. ] pool7
          ~solve:(fun ~budget pool ->
            Jsp.Enumerate.solve Engine.Objective.bv_exact ~alpha:0.5 ~budget pool));
    test "fig2/exact-jq-enumeration (n=3)" (fun () ->
        Jq.Exact.jq Voting.Bayesian.strategy ~alpha:0.5
          ~qualities:Workers.Generator.example2_qualities);
    test "fig6/system-comparison-point (N=50)" (fun () ->
        let mv =
          Jsp.Mvjs.select ~params:annealing ~rng:solve_rng ~alpha:0.5 ~budget:0.5
            pool50
        in
        let opt =
          Optjs.select_jury ~rng:solve_rng ~alpha:0.5 ~budget:0.5 pool50
        in
        (mv.Jsp.Solver.score, opt.Jsp.Solver.score));
    test "fig7a+tab3/exhaustive-jsp (N=11)" (fun () ->
        Jsp.Enumerate.solve_bv ~alpha:0.5 ~budget:0.3 pool11);
    test "fig7b/annealed-jsp (N=100)" (fun () ->
        Jsp.Annealing.solve_engine ~params:annealing
          ~objective:(Engine.Objective.bv_bucket ()) ~cache:false
          ~rng:solve_rng ~task:binary_half ~budget:0.5 epool100);
    test "fig8/four-strategy-exact-jq (n=11)" (fun () ->
        List.map
          (fun s -> Jq.Exact.jq s ~alpha:0.5 ~qualities:q11)
          Voting.Registry.comparison_set);
    test "fig9a/bucket-estimate (n=11, buckets=50)" (fun () ->
        Jq.Bucket.estimate ~num_buckets:50 q11);
    test "fig9b+c/bucket-estimate (n=11, buckets=200)" (fun () ->
        Jq.Bucket.estimate ~num_buckets:200 q11);
    test "fig9d/bucket-estimate-pruned (n=200)" (fun () ->
        Jq.Bucket.estimate ~pruning:true q200);
    test "fig9d/bucket-estimate-unpruned (n=200)" (fun () ->
        Jq.Bucket.estimate ~pruning:false q200);
    test "fig10/per-question-jsp (synthetic AMT, N=20)" (fun () ->
        let mv =
          Jsp.Mvjs.select ~params:annealing ~rng:solve_rng ~alpha:0.5 ~budget:0.5
            amt_pool
        in
        let opt =
          Optjs.select_jury ~rng:solve_rng ~alpha:0.5 ~budget:0.5 amt_pool
        in
        (mv.Jsp.Solver.score, opt.Jsp.Solver.score));
    test "fig10d/first-z-grading (z=9, 600 questions)" (fun () ->
        Crowd.Evaluate.strategy_on_dataset ~strategy:Voting.Bayesian.strategy ~z:9
          dataset);
  ]

let run_timing config =
  let tests = bench_tests config in
  let grouped = Test.make_grouped ~name:"optjs" tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let ns =
          match Analyze.OLS.estimates result with
          | Some (x :: _) -> x
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
  in
  let rows = List.sort compare rows in
  Printf.printf "== timing: Bechamel (monotonic clock, ns/run) ==\n";
  Printf.printf "%-55s  %s\n" "benchmark" "time/run";
  Printf.printf "%s  %s\n" (String.make 55 '-') (String.make 12 '-');
  List.iter
    (fun (name, ns) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns >= 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Printf.printf "%-55s  %s\n" name human)
    rows;
  print_newline ()

let () =
  let o = parse_options () in
  if o.multiclass then run_multiclass o
  else if o.smoke then run_smoke o
  else begin
    if not o.skip_rows then print_rows o;
    if not o.skip_timing then run_timing o.config
  end
