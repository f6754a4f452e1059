(* Quickstart: the paper's Figure-1 walkthrough.

   Seven candidate workers A-G answer the decision-making task
   "Is Bill Gates now the CEO of Microsoft?".  We compute jury qualities,
   build the budget-quality table, pick the budget-15 jury, collect
   (simulated) votes, and aggregate them with Bayesian Voting.

   Run with: dune exec examples/quickstart.exe *)

let () =
  let pool = Workers.Generator.figure1_pool () in
  Format.printf "Candidate workers:@.  %a@.@." Workers.Pool.pp pool;

  (* 1. Jury quality of a hand-picked jury, exactly and approximately. *)
  let jury = Workers.Pool.sub pool [ 1; 2; 6 ] (* B, C, G *) in
  let exact = Optjs.jury_quality_exact ~alpha:0.5 jury in
  let approx = Optjs.jury_quality ~alpha:0.5 jury in
  Format.printf "JQ of {B, C, G} under Bayesian Voting: exact %.4f, bucket %.4f@."
    exact approx;
  Format.printf "JQ of the same jury under Majority Voting: %.4f@.@."
    (Jq.Mv_closed.jq ~alpha:0.5 ~qualities:(Workers.Pool.qualities jury));

  (* 2. The budget-quality table (Figure 1, right). *)
  let table =
    Jsp.Table.build ~budgets:[ 5.; 10.; 15.; 20. ] pool ~solve:(fun ~budget pool ->
        Jsp.Enumerate.solve Engine.Objective.bv_exact ~alpha:0.5 ~budget pool)
  in
  Format.printf "Budget-quality table:@.%a@." Jsp.Table.pp table;

  (* 3. The task provider picks budget 15; collect votes and aggregate. *)
  let chosen =
    (Jsp.Enumerate.solve Engine.Objective.bv_exact ~alpha:0.5 ~budget:15. pool)
      .Jsp.Solver.jury
  in
  Format.printf "Chosen jury at budget 15: %a (cost %g)@.@." Workers.Pool.pp chosen
    (Workers.Pool.total_cost chosen);

  let rng = Prob.Rng.create 193 in
  let truth = Voting.Vote.No (* ground truth: he is not the CEO anymore *) in
  let qualities = Workers.Pool.qualities chosen in
  let votes = Crowd.Simulate.voting rng ~truth qualities in
  Format.printf "Collected votes: %a@." Voting.Vote.pp_voting votes;
  let answer = Optjs.aggregate ~alpha:0.5 ~qualities votes in
  let confidence = Optjs.posterior_no ~alpha:0.5 ~qualities votes in
  Format.printf "Bayesian Voting answers: %d (posterior for 'no': %.3f)@."
    (Voting.Vote.to_int answer) confidence;
  Format.printf "Ground truth was:        %d@." (Voting.Vote.to_int truth)
