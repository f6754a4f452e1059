(* Tests for the experiment harness: configuration, replication plumbing,
   reporting, and the per-figure drivers (run in smoke-test mode). *)

let check_close eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Tiny configuration so driver smoke tests stay fast. *)
let tiny =
  {
    Expt.Config.fast with
    reps = 2;
    n_workers = 12;
    amt_questions = 5;
  }

(* ---- Config ----------------------------------------------------------- *)

let test_config_defaults () =
  let c = Expt.Config.default in
  check_int "N" 50 c.Expt.Config.n_workers;
  check_close 1e-12 "B" 0.5 c.Expt.Config.budget;
  check_close 1e-12 "alpha" 0.5 c.Expt.Config.alpha;
  check_int "numBuckets" 50 c.Expt.Config.num_buckets

let test_config_updates () =
  let c = Expt.Config.default |> Expt.Config.with_reps 7 |> Expt.Config.with_seed 3 in
  check_int "reps" 7 c.Expt.Config.reps;
  check_int "seed" 3 c.Expt.Config.seed;
  let c = Expt.Config.with_questions 42 c in
  check_int "questions" 42 c.Expt.Config.amt_questions

(* ---- Series ------------------------------------------------------------ *)

let test_replicate () =
  let rng = Prob.Rng.create 1 in
  let s = Expt.Series.replicate rng ~reps:10 (fun r -> Prob.Rng.unit_float r) in
  check_int "count" 10 s.Prob.Stats.count;
  check_bool "mean in range" true (s.Prob.Stats.mean > 0. && s.Prob.Stats.mean < 1.)

let test_replicate_streams_independent () =
  (* Replications with private streams must not all be equal. *)
  let rng = Prob.Rng.create 2 in
  let xs = Expt.Series.replicate_collect rng ~reps:5 (fun r -> Prob.Rng.unit_float r) in
  check_bool "values differ" true (List.length (List.sort_uniq compare xs) > 1)

let test_timed () =
  let x, seconds = Expt.Series.timed (fun () -> 42) in
  check_int "result" 42 x;
  check_bool "time nonnegative" true (seconds >= 0.)

(* ---- Parallel -------------------------------------------------------------- *)

let test_parallel_matches_sequential () =
  let xs = List.init 37 Fun.id in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int)) "order preserved" (List.map f xs)
    (Expt.Parallel.map ~domains:4 f xs);
  Alcotest.(check (list int)) "domains > length" (List.map f xs)
    (Expt.Parallel.map ~domains:64 f xs);
  Alcotest.(check (list int)) "empty" [] (Expt.Parallel.map ~domains:4 f [])

let test_parallel_replication_deterministic () =
  let run domains =
    let rng = Prob.Rng.create 9 in
    Expt.Series.replicate_collect ~domains rng ~reps:16 (fun r -> Prob.Rng.unit_float r)
  in
  Alcotest.(check (list (float 0.))) "identical across domain counts" (run 1) (run 4)

let test_parallel_propagates_exception () =
  Alcotest.check_raises "exception surfaces" (Failure "boom") (fun () ->
      ignore (Expt.Parallel.map ~domains:3 (fun _ -> failwith "boom") [ 1; 2; 3; 4 ]))

let test_parallel_validation () =
  Alcotest.check_raises "domains" (Invalid_argument "Parallel.map: domains <= 0")
    (fun () -> ignore (Expt.Parallel.map ~domains:0 Fun.id [ 1 ]));
  Alcotest.check_raises "map_array domains"
    (Invalid_argument "Parallel.map_array: domains <= 0") (fun () ->
      ignore (Expt.Parallel.map_array ~domains:0 Fun.id [| 1 |]));
  Alcotest.check_raises "map_array chunk"
    (Invalid_argument "Parallel.map_array: chunk <= 0") (fun () ->
      ignore (Expt.Parallel.map_array ~domains:2 ~chunk:0 Fun.id [| 1 |]))

let test_map_array_matches_sequential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"map_array = Array.map at any domain/chunk split"
       QCheck2.Gen.(
         triple
           (array_size (int_range 0 64) (int_range (-1000) 1000))
           (int_range 1 8) (int_range 1 16))
       (fun (xs, domains, chunk) ->
         let f x = (x * 31) lxor 9 in
         Expt.Parallel.map_array ~domains ~chunk f xs = Array.map f xs
         && Expt.Parallel.map_array ~domains f xs = Array.map f xs))

let test_map_array_guided_matches_sequential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"guided self-scheduling = Array.map, skewed costs included"
       QCheck2.Gen.(
         pair
           (array_size (int_range 0 64) (int_range 0 1000))
           (int_range 1 8))
       (fun (xs, domains) ->
         (* Skew the per-element cost so guided claims actually shrink:
            a few elements spin, most are trivial. *)
         let f x =
           if x mod 17 = 0 then (
             let acc = ref x in
             for _ = 1 to 500 do
               acc := (!acc * 31) lxor 9
             done;
             !acc)
           else (x * 31) lxor 9
         in
         Expt.Parallel.map_array ~domains ~sched:`Guided f xs
         = Array.map f xs))

let test_map_array_uses_workspaces () =
  (* A JQ sweep through map_array: each domain picks up its own default
     workspace, and the numbers must match the sequential sweep exactly. *)
  let pools =
    Array.init 12 (fun i ->
        Workers.Pool.qualities
          (Workers.Generator.gaussian_pool (Prob.Rng.create i)
             Workers.Generator.default (8 + i)))
  in
  let f qs = Jq.Bucket.estimate qs in
  Alcotest.(check (array (float 0.)))
    "parallel sweep bit-identical" (Array.map f pools)
    (Expt.Parallel.map_array ~domains:4 ~chunk:2 f pools)

let test_parallel_solves_identical () =
  (* Each annealing solve owns its RNG, accumulator and score cache, so
     fanning solves out over domains — as Fleet.Allocator's restarts do
     through Parallel.map_array — must not change anything: same seeds,
     same juries, bit for bit, for binary and matrix pools alike. *)
  let params = { Jsp.Annealing.default_params with epsilon = 1e-4 } in
  let seeds = List.init 6 (fun i -> 100 + i) in
  let check_pool what ~task ~budget pool =
    let solve seed =
      Jsp.Annealing.solve_engine ~params ~rng:(Prob.Rng.create seed) ~task
        ~budget pool
    in
    let seq = Expt.Parallel.map ~domains:1 solve seeds
    and par = Expt.Parallel.map ~domains:3 solve seeds in
    List.iter2
      (fun (a : _ Jsp.Solver.result) (b : _ Jsp.Solver.result) ->
        Alcotest.(check (list int))
          (what ^ ": same jury") (Engine.Pool.ids a.jury) (Engine.Pool.ids b.jury);
        check_close 0. (what ^ ": same score") a.score b.score)
      seq par
  in
  check_pool "binary" ~task:(Engine.Task.binary ~alpha:0.5) ~budget:0.4
    (Engine.Pool.of_workers
       (Workers.Generator.gaussian_pool (Prob.Rng.create 41)
          Workers.Generator.default 14));
  let rng = Prob.Rng.create 43 in
  let matrix =
    Array.init 10 (fun id ->
        let d = 0.45 +. Prob.Rng.float rng 0.45 in
        let off = (1. -. d) /. 2. in
        Workers.Confusion.make ~id
          ~matrix:[| [| d; off; off |]; [| off; d; off |]; [| off; off; d |] |]
          ~cost:(0.02 +. Prob.Rng.float rng 0.2)
          ())
  in
  check_pool "3 labels"
    ~task:(Engine.Task.make ~prior:[| 0.2; 0.5; 0.3 |])
    ~budget:0.3
    (Engine.Pool.of_confusions matrix)

(* ---- Report ------------------------------------------------------------- *)

let sample_table =
  Expt.Report.make ~id:"t" ~title:"Sample" ~header:[ "x"; "y" ]
    ~notes:[ "a note" ]
    [ [ "1"; "2.0" ]; [ "3"; "4.0" ] ]

let test_report_cells () =
  check_string "pct" "12.34%" (Expt.Report.cell_pct 0.1234);
  check_string "int" "7" (Expt.Report.cell_int 7);
  check_string "float" "0.5" (Expt.Report.cell_float 0.5)

let test_report_csv () =
  check_string "csv" "x,y\n1,2.0\n3,4.0" (Expt.Report.to_csv sample_table)

let test_report_csv_escaping () =
  let t =
    Expt.Report.make ~id:"e" ~title:"esc" ~header:[ "a" ] [ [ "hello, \"world\"" ] ]
  in
  check_string "escaped" "a\n\"hello, \"\"world\"\"\"" (Expt.Report.to_csv t)

let test_report_pp_contains_rows () =
  let rendered = Format.asprintf "%a" Expt.Report.pp sample_table in
  check_bool "has title" true
    (String.length rendered > 0
    && String.exists (fun _ -> true) rendered
    &&
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    contains rendered "Sample" && contains rendered "a note" && contains rendered "4.0")

let test_report_save_csv () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "optjs_test_csv" in
  let path = Expt.Report.save_csv ~dir sample_table in
  check_bool "file exists" true (Sys.file_exists path);
  let ic = open_in path in
  let first = input_line ic in
  close_in ic;
  check_string "header line" "x,y" first;
  Sys.remove path

(* ---- Experiments --------------------------------------------------------- *)

let test_ids_covered () =
  check_int "19 artifacts" 19 (List.length Expt.Experiments.ids);
  List.iter
    (fun id ->
      check_bool (id ^ " resolvable") true (Expt.Experiments.by_id id <> None))
    Expt.Experiments.ids;
  check_bool "unknown id" true (Expt.Experiments.by_id "fig99" = None)

let run_driver id =
  match Expt.Experiments.by_id id with
  | Some driver -> driver ~config:tiny ()
  | None -> Alcotest.failf "unknown driver %s" id

let test_fig1_rows () =
  let t = run_driver "fig1" in
  check_int "4 budgets" 4 (List.length t.Expt.Report.rows);
  check_string "id" "fig1" t.Expt.Report.id

let test_fig2_rows () =
  let t = run_driver "fig2" in
  check_int "8 votings" 8 (List.length t.Expt.Report.rows)

let test_fig6_shape () =
  let t = run_driver "fig6a" in
  check_int "11 mu points" 11 (List.length t.Expt.Report.rows);
  check_int "3 columns" 3 (List.length t.Expt.Report.header)

let test_fig7_and_tab3 () =
  let fig, tab = Expt.Experiments.fig7a_and_tab3 ~config:tiny () in
  check_int "10 budgets" 10 (List.length fig.Expt.Report.rows);
  check_int "5 ranges" 5 (List.length tab.Expt.Report.rows);
  (* Total counted runs = budgets x reps. *)
  let total =
    List.fold_left
      (fun acc row -> acc + int_of_string (List.nth row 1))
      0 tab.Expt.Report.rows
  in
  check_int "all runs counted" (10 * tiny.Expt.Config.reps) total

let test_fig8_shape () =
  let t = run_driver "fig8b" in
  check_int "11 jury sizes" 11 (List.length t.Expt.Report.rows);
  check_int "five columns" 5 (List.length t.Expt.Report.header)

let test_fig9_shapes () =
  let b = run_driver "fig9b" in
  check_int "bucket counts" 7 (List.length b.Expt.Report.rows);
  let c = run_driver "fig9c" in
  check_int "histogram buckets" 5 (List.length c.Expt.Report.rows)

let test_fig10d_shape () =
  let t = run_driver "fig10d" in
  check_int "z sweep" 18 (List.length t.Expt.Report.rows);
  (* Accuracy and JQ columns should track within ~15 points everywhere
     (the paper's Figure 10d shows them nearly coinciding). *)
  List.iter
    (fun row ->
      let parse s = float_of_string (String.sub s 0 (String.length s - 1)) in
      let acc = parse (List.nth row 1) and jq = parse (List.nth row 2) in
      check_bool "JQ tracks accuracy" true (Float.abs (acc -. jq) < 15.))
    t.Expt.Report.rows

(* ---- Chart ----------------------------------------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_chart_parse_cell () =
  let check_parse label expected cell =
    match Expt.Chart.parse_cell cell with
    | Some v -> check_close 1e-9 label expected v
    | None -> Alcotest.failf "%s: expected a number" label
  in
  check_parse "percent" 0.845 "84.50%";
  check_parse "seconds" 0.012 "0.012s";
  check_parse "millis" 0.00155 "1.55 ms";
  check_parse "plain" 17. "17";
  check_bool "non-numeric" true (Expt.Chart.parse_cell "{B, C, G}" = None);
  check_bool "empty" true (Expt.Chart.parse_cell "" = None)

let test_chart_renders_series () =
  let table =
    Expt.Report.make ~id:"c" ~title:"chart" ~header:[ "x"; "A"; "B" ]
      [
        [ "1"; "10%"; "90%" ]; [ "2"; "20%"; "80%" ]; [ "3"; "30%"; "70%" ];
        [ "4"; "40%"; "60%" ];
      ]
  in
  match Expt.Chart.render table with
  | Some chart ->
      check_bool "legend names both series" true
        (contains chart "*=A" && contains chart "+=B");
      check_bool "x labels present" true (contains chart "1" && contains chart "4");
      check_bool "plot symbols present" true (contains chart "*" && contains chart "+")
  | None -> Alcotest.fail "expected a chart"

let test_chart_skips_unchartable () =
  let no_numbers =
    Expt.Report.make ~id:"n" ~title:"names" ~header:[ "x"; "jury" ]
      [ [ "1"; "{A}" ]; [ "2"; "{B}" ] ]
  in
  check_bool "no numeric column" true (Expt.Chart.render no_numbers = None);
  let one_row =
    Expt.Report.make ~id:"o" ~title:"one" ~header:[ "x"; "y" ] [ [ "1"; "2" ] ]
  in
  check_bool "single row" true (Expt.Chart.render one_row = None)

let test_chart_fig_tables_chartable () =
  (* Every MVJS-vs-OPTJS sweep should be chartable out of the box. *)
  let t = run_driver "fig10d" in
  check_bool "fig10d chartable" true (Expt.Chart.render t <> None)

(* ---- Ablations ------------------------------------------------------------ *)

let test_ablation_index () =
  check_int "9 ablations" 9 (List.length Expt.Ablations.ids);
  List.iter
    (fun id ->
      check_bool (id ^ " resolvable") true (Expt.Ablations.by_id id <> None))
    Expt.Ablations.ids;
  check_bool "unknown" true (Expt.Ablations.by_id "abl-nope" = None);
  (* Ablation ids must not collide with paper-artifact ids. *)
  List.iter
    (fun id -> check_bool (id ^ " distinct") true (Expt.Experiments.by_id id = None))
    Expt.Ablations.ids

let run_ablation id =
  match Expt.Ablations.by_id id with
  | Some driver -> driver ~config:tiny ()
  | None -> Alcotest.failf "unknown ablation %s" id

let test_ablation_smoke () =
  List.iter
    (fun id ->
      let t = run_ablation id in
      check_bool (id ^ " has rows") true (List.length t.Expt.Report.rows > 0);
      check_bool (id ^ " has header") true (List.length t.Expt.Report.header > 1))
    Expt.Ablations.ids

let test_ablation_ties_equal_at_half () =
  let t = run_ablation "abl-ties" in
  (* The alpha = 0.5 rows must show identical JQ across the three
     conventions (exact computation, same pools). *)
  List.iter
    (fun row ->
      match row with
      | alpha :: _ :: a :: b :: c :: _ when alpha = "0.5" ->
          check_bool "MV = MV-coin at 0.5" true (a = b);
          check_bool "MV = Half at 0.5" true (a = c)
      | _ -> ())
    t.Expt.Report.rows

let () =
  Alcotest.run "expt"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "updates" `Quick test_config_updates;
        ] );
      ( "series",
        [
          Alcotest.test_case "replicate" `Quick test_replicate;
          Alcotest.test_case "independent streams" `Quick test_replicate_streams_independent;
          Alcotest.test_case "timed" `Quick test_timed;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential" `Quick test_parallel_matches_sequential;
          Alcotest.test_case "deterministic replication" `Quick
            test_parallel_replication_deterministic;
          Alcotest.test_case "exceptions" `Quick test_parallel_propagates_exception;
          Alcotest.test_case "validation" `Quick test_parallel_validation;
          test_map_array_matches_sequential;
          test_map_array_guided_matches_sequential;
          Alcotest.test_case "per-domain workspaces" `Quick
            test_map_array_uses_workspaces;
          Alcotest.test_case "annealing solves = sequential" `Quick
            test_parallel_solves_identical;
        ] );
      ( "report",
        [
          Alcotest.test_case "cells" `Quick test_report_cells;
          Alcotest.test_case "csv" `Quick test_report_csv;
          Alcotest.test_case "csv escaping" `Quick test_report_csv_escaping;
          Alcotest.test_case "pp" `Quick test_report_pp_contains_rows;
          Alcotest.test_case "save csv" `Quick test_report_save_csv;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "index" `Quick test_ids_covered;
          Alcotest.test_case "fig1" `Quick test_fig1_rows;
          Alcotest.test_case "fig2" `Quick test_fig2_rows;
          Alcotest.test_case "fig6a smoke" `Slow test_fig6_shape;
          Alcotest.test_case "fig7a + tab3 smoke" `Slow test_fig7_and_tab3;
          Alcotest.test_case "fig8b smoke" `Slow test_fig8_shape;
          Alcotest.test_case "fig9 smoke" `Slow test_fig9_shapes;
          Alcotest.test_case "fig10d smoke" `Slow test_fig10d_shape;
        ] );
      ( "chart",
        [
          Alcotest.test_case "parse cells" `Quick test_chart_parse_cell;
          Alcotest.test_case "renders series" `Quick test_chart_renders_series;
          Alcotest.test_case "skips unchartable" `Quick test_chart_skips_unchartable;
          Alcotest.test_case "figure tables chartable" `Slow
            test_chart_fig_tables_chartable;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "index" `Quick test_ablation_index;
          Alcotest.test_case "smoke" `Slow test_ablation_smoke;
          Alcotest.test_case "ties equal at alpha 0.5" `Slow
            test_ablation_ties_equal_at_half;
        ] );
    ]
