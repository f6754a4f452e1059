(* Cross-module integration tests: whole-pipeline behaviours that no single
   library can verify alone — the paper's end-to-end claims (OPTJS beats
   MVJS on realized accuracy; predicted JQ forecasts that accuracy), the
   Theorem-2 reduction, and the agreement of four independent JQ
   computations (enumeration, closed form, bucket, Monte Carlo). *)

open Voting

let check_close eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---- Four JQ computations agree ----------------------------------------- *)

let test_four_jq_computations_agree () =
  let rng = Prob.Rng.create 11 in
  for _ = 1 to 10 do
    let qualities =
      Workers.Pool.qualities
        (Workers.Generator.gaussian_pool rng Workers.Generator.default 9)
    in
    let exact = Jq.Exact.jq_optimal ~alpha:0.5 ~qualities in
    let bucket = Jq.Bucket.estimate ~num_buckets:2000 qualities in
    let mc = (Jq.Mc.jq_bv rng ~trials:40_000 ~alpha:0.5 ~qualities).Jq.Mc.value in
    check_close 0.005 "bucket vs exact" exact bucket;
    check_close 0.02 "MC vs exact" exact mc;
    (* And MV closed form vs its own enumeration, on the same jury. *)
    let mv_exact = Jq.Exact.jq Classic.majority ~alpha:0.5 ~qualities in
    check_close 1e-9 "mv closed vs exact" mv_exact (Jq.Mv_closed.jq ~alpha:0.5 ~qualities)
  done

(* ---- End-to-end: OPTJS vs MVJS as full campaigns -------------------------- *)

let test_campaign_optjs_beats_mvjs () =
  let rng = Prob.Rng.create 42 in
  let pool = Workers.Generator.gaussian_pool rng Workers.Generator.default 30 in
  let n_tasks = 3_000 in
  let run system seed =
    Crowd.Campaign.run_uniform (Prob.Rng.create seed) system ~alpha:0.5 ~budget:0.3
      ~pool ~n_tasks
  in
  let opt = run (Optjs.system ()) 7 in
  let mv = run (Optjs.mvjs_system ()) 7 in
  check_int "same task count" opt.Crowd.Campaign.tasks mv.Crowd.Campaign.tasks;
  check_bool "OPTJS at least as accurate (within noise)" true
    (opt.Crowd.Campaign.accuracy >= mv.Crowd.Campaign.accuracy -. 0.015);
  check_bool "both respect the budget" true
    (opt.Crowd.Campaign.mean_jury_cost <= 0.3 +. 1e-6
    && mv.Crowd.Campaign.mean_jury_cost <= 0.3 +. 1e-6)

let test_campaign_accuracy_matches_predicted_jq () =
  let rng = Prob.Rng.create 43 in
  let pool = Workers.Generator.gaussian_pool rng Workers.Generator.default 30 in
  let selection = Optjs.select_jury ~rng ~alpha:0.5 ~budget:0.3 pool in
  let fixed_jury_system =
    {
      Crowd.Campaign.name = "fixed";
      select = (fun _ ~alpha:_ ~budget:_ _ -> selection.Jsp.Solver.jury);
      aggregate =
        (fun _ ~alpha ~qualities voting ->
          Voting.Bayesian.decide_exact ~alpha ~qualities voting);
    }
  in
  let result =
    Crowd.Campaign.run_uniform (Prob.Rng.create 44) fixed_jury_system ~alpha:0.5
      ~budget:0.3 ~pool ~n_tasks:20_000
  in
  check_close 0.01 "predicted JQ forecasts realized accuracy"
    selection.Jsp.Solver.score result.Crowd.Campaign.accuracy

let test_campaign_on_amt_dataset () =
  (* Candidate pools straight from the synthetic AMT dataset; the campaign
     re-simulates votes from estimated qualities, closing the loop between
     the dataset substrate and the selection stack. *)
  let dataset = Crowd.Amt_dataset.generate (Prob.Rng.create 77) in
  let costs = Array.make 128 0.05 in
  let tasks = Array.sub dataset.Crowd.Amt_dataset.tasks 0 50 in
  let result =
    Crowd.Campaign.run (Prob.Rng.create 78) (Optjs.system ()) ~alpha:0.5
      ~budget:0.4
      ~candidates:(fun task_id -> Crowd.Amt_dataset.candidate_pool dataset ~costs ~task_id)
      ~tasks
  in
  check_bool "high accuracy with 8-worker budget" true
    (result.Crowd.Campaign.accuracy > 0.85);
  check_bool "juries bounded by budget" true
    (result.Crowd.Campaign.mean_jury_cost <= 0.4 +. 1e-9)

(* ---- Theorem-2 reduction ---------------------------------------------------- *)

let instance_gen =
  QCheck2.Gen.(list_size (int_range 1 10) (int_range 1 20))

let test_hardness_reduction_agrees =
  qtest ~count:300 "tie mass > 0 iff instance partitions" instance_gen (fun instance ->
      Jq.Hardness.partitionable_via_jq instance
      = Jq.Hardness.partitionable_direct instance)

let test_hardness_known_instances () =
  check_bool "1+2=3 partitions" true (Jq.Hardness.partitionable_via_jq [ 1; 2; 3 ]);
  check_bool "odd total cannot" false (Jq.Hardness.partitionable_via_jq [ 1; 1; 1 ]);
  check_bool "equal pair" true (Jq.Hardness.partitionable_via_jq [ 5; 5 ]);
  check_bool "singleton cannot" false (Jq.Hardness.partitionable_via_jq [ 4 ])

let test_hardness_signed_sums_mass () =
  let sums = Jq.Hardness.signed_sums [ 1; 2 ] in
  check_int "four signed sums" 4 (List.length sums);
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0. sums in
  check_close 1e-9 "mass sums to 1" 1. total;
  (* Symmetric keys: -3, -1, 1, 3. *)
  Alcotest.(check (list int)) "keys" [ -3; -1; 1; 3 ] (List.map fst sums)

let test_hardness_jury_qualities () =
  let jury = Jq.Hardness.jury_of_instance [ 1; 2; 3 ] in
  Array.iter (fun q -> check_bool "above 1/2" true (q > 0.5 && q < 1.)) jury;
  check_bool "monotone in a_i" true (jury.(0) < jury.(1) && jury.(1) < jury.(2));
  Alcotest.check_raises "positivity" (Invalid_argument "Hardness: integers must be positive")
    (fun () -> ignore (Jq.Hardness.jury_of_instance [ 0 ]))

(* ---- Online vs static consistency ------------------------------------------- *)

let test_online_with_full_pool_matches_bv_jq () =
  (* With an unbounded budget and confidence 1-epsilon unreachable, the
     adaptive collector asks everyone — and BV over everyone realizes the
     pool's full-jury JQ. *)
  let rng = Prob.Rng.create 99 in
  let pool =
    Workers.Pool.of_list
      (List.init 9 (fun id ->
           Workers.Worker.make ~id ~quality:(0.55 +. (0.04 *. float_of_int id)) ~cost:0.01 ()))
  in
  let predicted = Optjs.jury_quality_exact ~alpha:0.5 pool in
  let s =
    Crowd.Online.simulate_many rng ~policy:Crowd.Online.By_quality ~confidence:1.0
      ~budget:10. ~alpha:0.5 ~tasks:20_000 pool
  in
  check_close 0.012 "exhaustive adaptive = full-jury BV" predicted
    s.Crowd.Online.accuracy;
  check_close 1e-9 "asked everyone" 9. s.Crowd.Online.mean_votes

(* ---- CSV pools through the whole stack ---------------------------------------- *)

let test_csv_pool_through_jsp () =
  let csv = Workers.Pool_io.to_csv_string (Workers.Generator.figure1_pool ()) in
  let pool = Workers.Pool_io.of_csv_string csv in
  let r = Optjs.select_jury_exact ~alpha:0.5 ~budget:15. pool in
  check_close 1e-6 "figure-1 answer from CSV" 0.845 r.Jsp.Solver.score

(* ---- The command line refuses bad input on one line ------------------------ *)

(* Runs the built CLI, a dependency of this test, and returns its exit code
   and what it wrote to stderr. *)
let run_cli args =
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process "../bin/optjs_cli.exe"
      (Array.of_list ("optjs" :: args))
      Unix.stdin null err_w
  in
  Unix.close err_w;
  Unix.close null;
  let ic = Unix.in_channel_of_descr err_r in
  let err = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> (code, err)
  | _ -> Alcotest.fail "optjs_cli did not exit"

let test_cli_input_errors () =
  List.iter
    (fun (args, message) ->
      let code, err = run_cli args in
      Alcotest.(check string) (String.concat " " args) ("optjs: " ^ message ^ "\n") err;
      check_int "exit code (cmdliner's cli_error)" 124 code)
    [
      ( [ "select"; "-b"; "3"; "-q"; "0.7,0.8"; "-c"; "1" ],
        "qualities and costs must have the same length" );
      ([ "jq"; "-q"; "0.7,1.8" ], "Bucket.estimate: quality outside [0, 1]");
    ]

let () =
  Alcotest.run "integration"
    [
      ( "jq-consistency",
        [ Alcotest.test_case "four computations agree" `Slow test_four_jq_computations_agree ] );
      ( "campaigns",
        [
          Alcotest.test_case "OPTJS vs MVJS end-to-end" `Slow test_campaign_optjs_beats_mvjs;
          Alcotest.test_case "JQ forecasts accuracy" `Slow
            test_campaign_accuracy_matches_predicted_jq;
          Alcotest.test_case "AMT dataset pipeline" `Slow test_campaign_on_amt_dataset;
        ] );
      ( "hardness",
        [
          test_hardness_reduction_agrees;
          Alcotest.test_case "known instances" `Quick test_hardness_known_instances;
          Alcotest.test_case "signed sums" `Quick test_hardness_signed_sums_mass;
          Alcotest.test_case "constructed jury" `Quick test_hardness_jury_qualities;
        ] );
      ( "online",
        [
          Alcotest.test_case "exhaustive adaptive = BV JQ" `Slow
            test_online_with_full_pool_matches_bv_jq;
        ] );
      ( "io",
        [
          Alcotest.test_case "CSV pool through JSP" `Quick test_csv_pool_through_jsp;
          Alcotest.test_case "CLI input errors exit 124" `Quick test_cli_input_errors;
        ] );
    ]
