(* End-to-end tests of the Optjs facade: JQ computation, jury selection,
   budget-quality tables, aggregation, and a full pipeline consistency
   check (select -> simulate -> aggregate -> accuracy tracks predicted JQ). *)

open Voting

let check_close eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let fig1 = Workers.Generator.figure1_pool ()

let pool_gen =
  QCheck2.Gen.(
    int_range 1 8 >>= fun n ->
    array_size (return n) (pair (Qgen.float_in 0.5 0.99) (float_range 0.05 2.))
    >>= fun specs ->
    return
      (Workers.Pool.of_list
         (List.mapi
            (fun id (q, c) -> Workers.Worker.make ~id ~quality:q ~cost:c ())
            (Array.to_list specs))))

let test_jury_quality_matches_exact =
  qtest "facade bucket JQ tracks exact JQ" pool_gen (fun pool ->
      let config = { Optjs.default_config with num_buckets = 2000 } in
      Float.abs
        (Optjs.jury_quality ~config ~alpha:0.5 pool
        -. Optjs.jury_quality_exact ~alpha:0.5 pool)
      < 0.01)

let test_jury_quality_empty () =
  let empty = Workers.Pool.of_list [] in
  check_close 1e-12 "empty follows prior" 0.7 (Optjs.jury_quality ~alpha:0.3 empty);
  check_close 1e-12 "exact too" 0.7 (Optjs.jury_quality_exact ~alpha:0.3 empty)

let test_jury_quality_of_strategy () =
  let jury = Workers.Pool.take 3 fig1 in
  let bv = Optjs.jury_quality_of Bayesian.strategy ~alpha:0.5 jury in
  let mv = Optjs.jury_quality_of Classic.majority ~alpha:0.5 jury in
  check_bool "BV >= MV" true (bv >= mv -. 1e-9)

let test_select_feasible =
  qtest ~count:60 "selected jury is feasible"
    QCheck2.Gen.(pair pool_gen (float_range 0. 6.))
    (fun (pool, budget) ->
      let r = Optjs.select_jury ~rng:(Prob.Rng.create 1) ~alpha:0.5 ~budget pool in
      Jsp.Budget.feasible ~budget r.Jsp.Solver.jury)

let test_select_near_exact =
  qtest ~count:30 "facade selection close to exhaustive optimum"
    QCheck2.Gen.(pair pool_gen (float_range 0.5 4.))
    (fun (pool, budget) ->
      let r = Optjs.select_jury ~rng:(Prob.Rng.create 2) ~alpha:0.5 ~budget pool in
      let star = Optjs.select_jury_exact ~alpha:0.5 ~budget pool in
      star.Jsp.Solver.score -. r.Jsp.Solver.score < 0.02)

let test_select_all_affordable_fast_path () =
  let r = Optjs.select_jury ~rng:(Prob.Rng.create 3) ~alpha:0.5 ~budget:37. fig1 in
  check_int "selects everyone" 7 (Workers.Pool.size r.Jsp.Solver.jury)

let test_budget_quality_table () =
  let rows =
    Optjs.budget_quality_table ~rng:(Prob.Rng.create 4) ~alpha:0.5
      ~budgets:[ 5.; 10.; 15.; 20. ] fig1
  in
  check_int "4 rows" 4 (List.length rows);
  List.iter
    (fun (r : Jsp.Table.row) ->
      check_bool "row feasible" true (r.required <= r.budget +. 1e-9))
    rows;
  (* The facade's annealed table should recover the paper's optimal values
     on this tiny pool. *)
  let expected = [ 0.75; 0.80; 0.845; 0.8695 ] in
  List.iter2
    (fun (r : Jsp.Table.row) q -> check_close 1e-6 "paper quality" q r.quality)
    rows expected

let test_aggregate_is_bv () =
  let qualities = [| 0.9; 0.6; 0.6 |] in
  let v = Vote.voting_of_ints [ 0; 1; 1 ] in
  check_bool "aggregate = BV" true
    (Vote.equal (Optjs.aggregate ~alpha:0.5 ~qualities v) Vote.No);
  let p = Optjs.posterior_no ~alpha:0.5 ~qualities v in
  check_bool "posterior consistent" true (p > 0.5)

(* Full pipeline: select a jury, simulate many tasks, aggregate with BV,
   and confirm realized accuracy matches the predicted JQ. *)
let test_pipeline_consistency () =
  let rng = Prob.Rng.create 55 in
  let pool = Workers.Generator.gaussian_pool rng Workers.Generator.default 20 in
  let result = Optjs.select_jury ~rng ~alpha:0.5 ~budget:0.4 pool in
  let jury = result.Jsp.Solver.jury in
  check_bool "nonempty jury" true (Workers.Pool.size jury > 0);
  let qualities = Workers.Pool.qualities jury in
  let trials = 40_000 in
  let correct = ref 0 in
  for _ = 1 to trials do
    let truth = Crowd.Simulate.sample_truth rng ~alpha:0.5 in
    let votes = Crowd.Simulate.voting rng ~truth qualities in
    if Vote.equal (Optjs.aggregate ~alpha:0.5 ~qualities votes) truth then incr correct
  done;
  let accuracy = float_of_int !correct /. float_of_int trials in
  check_close 0.02 "predicted JQ = realized accuracy" result.Jsp.Solver.score accuracy

let test_version () =
  check_bool "semver-ish" true (String.length Optjs.version >= 5)

let () =
  Alcotest.run "optjs"
    [
      ( "jury_quality",
        [
          test_jury_quality_matches_exact;
          Alcotest.test_case "empty" `Quick test_jury_quality_empty;
          Alcotest.test_case "per strategy" `Quick test_jury_quality_of_strategy;
        ] );
      ( "select",
        [
          test_select_feasible;
          test_select_near_exact;
          Alcotest.test_case "all-affordable fast path" `Quick
            test_select_all_affordable_fast_path;
        ] );
      ( "table",
        [ Alcotest.test_case "figure-1 table" `Quick test_budget_quality_table ] );
      ( "aggregate",
        [ Alcotest.test_case "BV decision" `Quick test_aggregate_is_bv ] );
      ( "pipeline",
        [ Alcotest.test_case "select-simulate-aggregate" `Slow test_pipeline_consistency ] );
      ("meta", [ Alcotest.test_case "version" `Quick test_version ]);
    ]
