(* Tests for Jury Quality computation: exact enumeration, MV closed form,
   Algorithm 1 (bucket approximation) + Algorithm 2 (pruning), error bounds
   (section 4.4), prior folding (Theorem 3), monotonicity (Lemmas 1-2), BV
   optimality (Theorem 1 / Corollary 1), and the multi-class extension. *)

open Voting

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let quality_gen = QCheck2.Gen.float_range 0.01 0.99
let reliable_gen = Qgen.float_in 0.5 0.99
let alpha_gen = QCheck2.Gen.float_range 0. 1.

let jury_gen ?(min = 1) ?(max = 8) g =
  QCheck2.Gen.(int_range min max >>= fun n -> array_size (return n) g)

let fig2_qualities = [| 0.9; 0.6; 0.6 |]

(* ---- Exact ------------------------------------------------------------- *)

let test_exact_likelihoods () =
  let p0, p1 = Jq.Exact.likelihoods ~qualities:fig2_qualities (Vote.voting_of_ints [ 1; 0; 0 ]) in
  check_close 1e-12 "P(V|t=0)" (0.1 *. 0.6 *. 0.6) p0;
  check_close 1e-12 "P(V|t=1)" (0.9 *. 0.4 *. 0.4) p1

let test_exact_fig2 () =
  check_close 1e-12 "MV 79.2%" 0.792
    (Jq.Exact.jq Classic.majority ~alpha:0.5 ~qualities:fig2_qualities);
  check_close 1e-12 "BV 90%" 0.9
    (Jq.Exact.jq Bayesian.strategy ~alpha:0.5 ~qualities:fig2_qualities)

let test_exact_constant () =
  (* CONST-0 is right exactly when t = 0, i.e. with probability alpha. *)
  check_close 1e-12 "constant no" 0.3
    (Jq.Exact.jq (Classic.constant Vote.No) ~alpha:0.3 ~qualities:fig2_qualities);
  check_close 1e-12 "coin" 0.5
    (Jq.Exact.jq Randomized.coin_flip ~alpha:0.3 ~qualities:fig2_qualities)

let test_exact_optimal_equals_bv =
  qtest "jq_optimal = jq(BV)" QCheck2.Gen.(pair (jury_gen quality_gen) alpha_gen)
    (fun (qs, alpha) ->
      Float.abs
        (Jq.Exact.jq_optimal ~alpha ~qualities:qs
        -. Jq.Exact.jq Bayesian.strategy ~alpha ~qualities:qs)
      < 1e-9)

let test_exact_bounds =
  qtest "JQ lies in [max(alpha,1-alpha), 1] for BV"
    QCheck2.Gen.(pair (jury_gen quality_gen) alpha_gen)
    (fun (qs, alpha) ->
      let jq = Jq.Exact.jq_optimal ~alpha ~qualities:qs in
      jq >= Float.max alpha (1. -. alpha) -. 1e-9 && jq <= 1. +. 1e-9)

let test_exact_too_large () =
  Alcotest.check_raises "jury cap"
    (Invalid_argument "Exact.jq: jury too large for exact enumeration") (fun () ->
      ignore (Jq.Exact.jq_optimal ~alpha:0.5 ~qualities:(Array.make 21 0.7)))

let test_exact_table_totals () =
  let rows = Jq.Exact.jq_table Classic.majority ~alpha:0.5 ~qualities:fig2_qualities in
  check_int "8 votings" 8 (List.length rows);
  let total = List.fold_left (fun acc (_, _, _, c) -> acc +. c) 0. rows in
  check_close 1e-12 "contributions sum to JQ" 0.792 total;
  let mass = List.fold_left (fun acc (_, p0, p1, _) -> acc +. p0 +. p1) 0. rows in
  check_close 1e-12 "probability mass 1" 1. mass

(* ---- Theorem 1: BV optimality ------------------------------------------ *)

let all_fixed_strategies =
  Registry.all
  @ [
      Classic.constant Vote.No;
      Classic.constant Vote.Yes;
      Randomized.mixture 0.3 Classic.majority Randomized.randomized_majority;
    ]

let test_bv_optimality =
  qtest ~count:300 "BV beats every strategy (Theorem 1)"
    QCheck2.Gen.(pair (jury_gen quality_gen) alpha_gen)
    (fun (qs, alpha) ->
      let bv = Jq.Exact.jq_optimal ~alpha ~qualities:qs in
      List.for_all
        (fun s -> Jq.Exact.jq s ~alpha ~qualities:qs <= bv +. 1e-9)
        all_fixed_strategies)

let test_bv_beats_random_weighted =
  qtest ~count:200 "BV beats random weighted strategies"
    QCheck2.Gen.(
      jury_gen quality_gen >>= fun qs ->
      pair (return qs)
        (array_size (return (Array.length qs)) (float_range 0. 5.)))
    (fun (qs, weights) ->
      let bv = Jq.Exact.jq_optimal ~alpha:0.5 ~qualities:qs in
      Jq.Exact.jq (Classic.weighted_majority ~weights) ~alpha:0.5 ~qualities:qs
      <= bv +. 1e-9
      && Jq.Exact.jq
           (Randomized.randomized_weighted_majority ~weights)
           ~alpha:0.5 ~qualities:qs
         <= bv +. 1e-9)

(* ---- MV closed form ----------------------------------------------------- *)

let test_mv_closed_matches_exact =
  qtest ~count:300 "closed-form MV JQ = enumeration"
    QCheck2.Gen.(pair (jury_gen quality_gen) alpha_gen)
    (fun (qs, alpha) ->
      Float.abs
        (Jq.Mv_closed.jq ~alpha ~qualities:qs
        -. Jq.Exact.jq Classic.majority ~alpha ~qualities:qs)
      < 1e-9)

let test_half_closed_matches_exact =
  qtest "closed-form Half JQ = enumeration"
    QCheck2.Gen.(pair (jury_gen quality_gen) alpha_gen)
    (fun (qs, alpha) ->
      Float.abs
        (Jq.Mv_closed.jq_half ~alpha ~qualities:qs
        -. Jq.Exact.jq Classic.half ~alpha ~qualities:qs)
      < 1e-9)

let test_tie_coin_matches_exact =
  qtest "coin-tie MV JQ = enumeration" (jury_gen quality_gen) (fun qs ->
      Float.abs
        (Jq.Mv_closed.jq_tie_coin qs
        -. Jq.Exact.jq Classic.majority_tie_coin ~alpha:0.5 ~qualities:qs)
      < 1e-9)

let test_mv_closed_fig2 () =
  check_close 1e-12 "fig2 MV" 0.792 (Jq.Mv_closed.jq ~alpha:0.5 ~qualities:fig2_qualities)

let test_mv_closed_empty () =
  check_close 1e-12 "empty jury answers 1" 0.7 (Jq.Mv_closed.jq ~alpha:0.3 ~qualities:[||]);
  check_close 1e-12 "half empty answers 0" 0.3 (Jq.Mv_closed.jq_half ~alpha:0.3 ~qualities:[||])

(* ---- Bucket approximation (Algorithm 1) ---------------------------------- *)

let test_bucket_fig2 () =
  check_close 1e-9 "fig2 estimate" 0.9 (Jq.Bucket.estimate fig2_qualities)

let test_bucket_never_exceeds_exact =
  qtest ~count:300 "estimate <= exact JQ" (jury_gen reliable_gen) (fun qs ->
      Jq.Bucket.estimate ~num_buckets:17 qs
      <= Jq.Exact.jq_optimal ~alpha:0.5 ~qualities:qs +. 1e-9)

let test_bucket_error_bound =
  qtest ~count:300 "error within the section-4.4 bound" (jury_gen reliable_gen)
    (fun qs ->
      let stats = Jq.Bucket.estimate_stats ~num_buckets:25 qs in
      let exact = Jq.Exact.jq_optimal ~alpha:0.5 ~qualities:qs in
      exact -. stats.Jq.Bucket.value <= stats.Jq.Bucket.error_bound +. 1e-9)

let test_bucket_converges =
  qtest ~count:100 "many buckets converge to exact" (jury_gen reliable_gen) (fun qs ->
      let est = Jq.Bucket.estimate ~num_buckets:(200 * Array.length qs) qs in
      let exact = Jq.Exact.jq_optimal ~alpha:0.5 ~qualities:qs in
      exact -. est < 0.01)

let test_bucket_pruning_invariant =
  qtest ~count:300 "pruning does not change the estimate" (jury_gen reliable_gen)
    (fun qs ->
      Float.abs
        (Jq.Bucket.estimate ~pruning:true qs -. Jq.Bucket.estimate ~pruning:false qs)
      < 1e-9)

let test_bucket_pruning_invariant_large () =
  let rng = Prob.Rng.create 77 in
  let qs =
    Workers.Pool.qualities
      (Workers.Generator.gaussian_pool rng Workers.Generator.default 120)
  in
  check_close 1e-9 "large jury pruning invariant"
    (Jq.Bucket.estimate ~pruning:false qs)
    (Jq.Bucket.estimate ~pruning:true qs)

let test_bucket_low_quality_reinterpretation =
  (* Workers below 0.5 are flipped internally; the estimate must still track
     the exact JQ, which handles them natively. *)
  qtest ~count:200 "q < 0.5 workers handled" (jury_gen quality_gen) (fun qs ->
      let stats = Jq.Bucket.estimate_stats ~num_buckets:400 qs in
      let exact = Jq.Exact.jq_optimal ~alpha:0.5 ~qualities:qs in
      exact -. stats.Jq.Bucket.value <= stats.Jq.Bucket.error_bound +. 1e-9
      && stats.Jq.Bucket.value <= exact +. 1e-9)

let test_bucket_alpha_matches_exact =
  qtest ~count:200 "estimate with prior tracks exact"
    QCheck2.Gen.(pair (jury_gen reliable_gen) (float_range 0.05 0.95))
    (fun (qs, alpha) ->
      let est = Jq.Bucket.estimate ~num_buckets:800 ~alpha qs in
      let exact = Jq.Exact.jq_optimal ~alpha ~qualities:qs in
      Float.abs (exact -. est) < 0.02)

let test_bucket_all_coins () =
  check_close 1e-9 "all 0.5 -> 0.5" 0.5 (Jq.Bucket.estimate [| 0.5; 0.5; 0.5 |])

let test_bucket_certain_worker () =
  check_float "q = 1 -> 1" 1. (Jq.Bucket.estimate [| 1.0; 0.7 |]);
  check_float "alpha = 1 -> 1" 1. (Jq.Bucket.estimate ~alpha:1. [| 0.7 |]);
  check_float "alpha = 0 -> 1" 1. (Jq.Bucket.estimate ~alpha:0. [| 0.7 |])

let test_bucket_shortcut () =
  let stats = Jq.Bucket.estimate_stats [| 0.995; 0.7 |] in
  check_float "returns top quality" 0.995 stats.Jq.Bucket.value;
  (* With the shortcut disabled the estimate must not be worse than the
     shortcut's lower bound. *)
  let full = Jq.Bucket.estimate ~high_quality_shortcut:false [| 0.995; 0.7 |] in
  check_bool "full run at least as high" true (full >= 0.995 -. 1e-9)

let test_bucket_stats_instrumentation () =
  let rng = Prob.Rng.create 123 in
  let qs =
    Workers.Pool.qualities
      (Workers.Generator.gaussian_pool rng Workers.Generator.default 40)
  in
  let pruned = Jq.Bucket.estimate_stats ~pruning:true qs in
  let unpruned = Jq.Bucket.estimate_stats ~pruning:false qs in
  check_bool "pruning settles pairs" true (pruned.Jq.Bucket.pruned_pairs > 0);
  check_int "no pruning, no settled pairs" 0 unpruned.Jq.Bucket.pruned_pairs;
  check_bool "pruned map never larger" true
    (pruned.Jq.Bucket.max_map_size <= unpruned.Jq.Bucket.max_map_size);
  check_bool "same value" true
    (Float.abs (pruned.Jq.Bucket.value -. unpruned.Jq.Bucket.value) < 1e-9);
  check_bool "delta positive" true (pruned.Jq.Bucket.delta > 0.);
  check_bool "upper is max logit" true
    (Float.abs
       (pruned.Jq.Bucket.upper
       -. Array.fold_left
            (fun acc q -> Float.max acc (Prob.Log_space.logit q))
            0. qs)
    < 1e-9)

let test_bucket_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Bucket.estimate: empty jury")
    (fun () -> ignore (Jq.Bucket.estimate [||]));
  Alcotest.check_raises "buckets" (Invalid_argument "Bucket.estimate: num_buckets <= 0")
    (fun () -> ignore (Jq.Bucket.estimate ~num_buckets:0 [| 0.7 |]));
  Alcotest.check_raises "quality" (Invalid_argument "Bucket.estimate: quality outside [0, 1]")
    (fun () -> ignore (Jq.Bucket.estimate [| 1.5 |]))

let test_bucketize_nearest =
  qtest "bucketize snaps to the nearest bucket"
    (jury_gen ~min:1 ~max:10 (Qgen.float_in 0.5 0.99))
    (fun qs ->
      let logits = Array.map Prob.Log_space.logit qs in
      let buckets, delta = Jq.Bucket.bucketize ~num_buckets:50 logits in
      if delta = 0. then Array.for_all (fun b -> b = 0) buckets
      else
        Array.for_all2
          (fun phi b -> Float.abs (phi -. (float_of_int b *. delta)) <= (delta /. 2.) +. 1e-12)
          logits buckets)

(* What §4.4 certifies: each estimate lies within its own bound
   e^(nδ/4) − 1 of the exact JQ, and that bound shrinks with the bucket
   width.  (A finer estimate need not land closer than a coarser one.) *)
let test_bucket_finer_bound =
  qtest ~count:100 "finer buckets tighten the bound" (jury_gen reliable_gen)
    (fun qs ->
      let exact = Jq.Exact.jq_optimal ~alpha:0.5 ~qualities:qs in
      let within (s : Jq.Bucket.stats) =
        Float.abs (exact -. s.value) <= s.error_bound +. 1e-9
      in
      let coarse = Jq.Bucket.estimate_stats ~num_buckets:10 qs in
      let fine = Jq.Bucket.estimate_stats ~num_buckets:1000 qs in
      within coarse && within fine
      && fine.Jq.Bucket.error_bound <= coarse.Jq.Bucket.error_bound)

(* ---- Flat dense kernel vs hashtable baseline ------------------------------- *)

let test_flat_matches_hashtbl =
  qtest ~count:300 "flat and hashtbl kernels agree (value + pruned accounting)"
    QCheck2.Gen.(triple (jury_gen ~max:20 quality_gen) alpha_gen bool)
    (fun (qs, alpha, pruning) ->
      let run impl =
        Jq.Bucket.estimate_stats ~impl ~pruning ~alpha
          ~high_quality_shortcut:false qs
      in
      let flat = run Jq.Bucket.Flat and ht = run Jq.Bucket.Hashtbl in
      Float.abs (flat.Jq.Bucket.value -. ht.Jq.Bucket.value) < 1e-9
      && flat.Jq.Bucket.pruned_pairs = ht.Jq.Bucket.pruned_pairs
      && (pruning || flat.Jq.Bucket.pruned_pairs = 0)
      && flat.Jq.Bucket.error_bound = ht.Jq.Bucket.error_bound)

let test_flat_hashtbl_underestimate =
  qtest ~count:200 "both kernels underestimate exact JQ within the bound"
    QCheck2.Gen.(pair (jury_gen quality_gen) alpha_gen)
    (fun (qs, alpha) ->
      let exact = Jq.Exact.jq_optimal ~alpha ~qualities:qs in
      List.for_all
        (fun impl ->
          let s =
            Jq.Bucket.estimate_stats ~impl ~num_buckets:400 ~alpha
              ~high_quality_shortcut:false qs
          in
          s.Jq.Bucket.value <= exact +. 1e-9
          && exact -. s.Jq.Bucket.value <= s.Jq.Bucket.error_bound +. 1e-9)
        [ Jq.Bucket.Flat; Jq.Bucket.Hashtbl ])

let test_flat_pruning_agreement =
  qtest ~count:200 "flat kernel: pruning on/off agree within the error bound"
    QCheck2.Gen.(pair (jury_gen ~max:20 quality_gen) alpha_gen)
    (fun (qs, alpha) ->
      let run pruning =
        Jq.Bucket.estimate_stats ~pruning ~alpha ~high_quality_shortcut:false qs
      in
      let on = run true and off = run false in
      Float.abs (on.Jq.Bucket.value -. off.Jq.Bucket.value)
      <= on.Jq.Bucket.error_bound +. 1e-9)

let test_workspace_reuse_deterministic =
  (* Byte-identical replies at any cache warmth: a workspace warmed by
     differently-sized problems must return bit-equal values. *)
  qtest ~count:100 "reused workspace is bit-identical to a fresh one"
    QCheck2.Gen.(pair (jury_gen ~max:16 quality_gen) alpha_gen)
    (fun (qs, alpha) ->
      let ws = Jq.Workspace.create () in
      let v1 = Jq.Bucket.estimate ~workspace:ws ~alpha qs in
      ignore (Jq.Bucket.estimate ~workspace:ws (Array.make 33 0.77));
      ignore (Jq.Bucket.estimate ~workspace:ws ~pruning:false [| 0.9; 0.51 |]);
      let v2 = Jq.Bucket.estimate ~workspace:ws ~alpha qs in
      let fresh = Jq.Bucket.estimate ~workspace:(Jq.Workspace.create ()) ~alpha qs in
      v1 = v2 && v1 = fresh)

(* ---- Monotonicity (Lemmas 1 and 2) ---------------------------------------- *)

let test_lemma1_jury_size =
  qtest ~count:300 "adding a worker never lowers BV JQ (Lemma 1)"
    QCheck2.Gen.(triple (jury_gen ~max:7 quality_gen) quality_gen alpha_gen)
    (fun (qs, extra, alpha) ->
      let before = Jq.Exact.jq_optimal ~alpha ~qualities:qs in
      let after = Jq.Exact.jq_optimal ~alpha ~qualities:(Array.append qs [| extra |]) in
      after >= before -. 1e-9)

let test_lemma2_quality =
  qtest ~count:300 "raising a reliable worker's quality never lowers BV JQ (Lemma 2)"
    QCheck2.Gen.(
      jury_gen reliable_gen >>= fun qs ->
      triple (return qs) (int_range 0 (Array.length qs - 1)) (float_range 0. 0.49))
    (fun (qs, idx, boost) ->
      let before = Jq.Exact.jq_optimal ~alpha:0.5 ~qualities:qs in
      let improved = Array.copy qs in
      improved.(idx) <- Float.min 0.999 (qs.(idx) +. boost);
      let after = Jq.Exact.jq_optimal ~alpha:0.5 ~qualities:improved in
      after >= before -. 1e-9)

(* ---- Theorem 3: prior folding ---------------------------------------------- *)

let test_theorem3_exact =
  qtest ~count:300 "JQ(J,BV,alpha) = JQ(J + alpha-worker, BV, 0.5)"
    QCheck2.Gen.(pair (jury_gen ~max:7 quality_gen) alpha_gen)
    (fun (qs, alpha) ->
      let lhs = Jq.Exact.jq_optimal ~alpha ~qualities:qs in
      let rhs =
        Jq.Exact.jq_optimal ~alpha:0.5 ~qualities:(Array.append qs [| alpha |])
      in
      Float.abs (lhs -. rhs) < 1e-9)

let test_prior_fold () =
  Alcotest.(check (array (float 1e-12)))
    "alpha 0.5 unchanged" [| 0.7; 0.8 |]
    (Jq.Prior.fold ~alpha:0.5 [| 0.7; 0.8 |]);
  Alcotest.(check (array (float 1e-12)))
    "alpha folded" [| 0.7; 0.8; 0.3 |]
    (Jq.Prior.fold ~alpha:0.3 [| 0.7; 0.8 |]);
  check_bool "degenerate" true (Jq.Prior.is_degenerate 0. && Jq.Prior.is_degenerate 1.);
  check_bool "not degenerate" false (Jq.Prior.is_degenerate 0.5)

let test_coin_worker_harmless =
  qtest "a coin worker never changes BV JQ" (jury_gen ~max:7 quality_gen) (fun qs ->
      Float.abs
        (Jq.Exact.jq_optimal ~alpha:0.5 ~qualities:qs
        -. Jq.Exact.jq_optimal ~alpha:0.5 ~qualities:(Array.append qs [| 0.5 |]))
      < 1e-9)

(* ---- Reinterpretation (section 3.3) ------------------------------------------ *)

let test_reinterpret_canonicalize () =
  let canonical, flipped = Jq.Reinterpret.canonicalize [| 0.3; 0.7; 0.5 |] in
  Alcotest.(check (array (float 1e-12))) "canonical" [| 0.7; 0.7; 0.5 |] canonical;
  Alcotest.(check (array bool)) "flips" [| true; false; false |] flipped

let test_reinterpret_preserves_bv_jq =
  qtest ~count:300 "flipping sub-0.5 workers preserves BV JQ" (jury_gen quality_gen)
    (fun qs ->
      let canonical = Jq.Reinterpret.canonical_qualities qs in
      Float.abs
        (Jq.Exact.jq_optimal ~alpha:0.5 ~qualities:qs
        -. Jq.Exact.jq_optimal ~alpha:0.5 ~qualities:canonical)
      < 1e-9)

let test_reinterpret_helps_mv =
  qtest ~count:200 "flip-corrected MV at least as good as raw MV"
    (jury_gen quality_gen) (fun qs ->
      let _, flipped = Jq.Reinterpret.canonicalize qs in
      let raw = Jq.Exact.jq Classic.majority ~alpha:0.5 ~qualities:qs in
      let corrected =
        Jq.Exact.jq (Jq.Reinterpret.flipping_majority flipped) ~alpha:0.5 ~qualities:qs
      in
      corrected >= raw -. 1e-9)

let test_apply_flips () =
  let v =
    Jq.Reinterpret.apply_flips [| true; false |] (Vote.voting_of_ints [ 0; 0 ])
  in
  check_int "first flipped" 1 (Vote.to_int v.(0));
  check_int "second kept" 0 (Vote.to_int v.(1))

(* ---- Pruning (Algorithm 2) ----------------------------------------------------- *)

let test_aggregate_buckets () =
  Alcotest.(check (array int)) "suffix sums" [| 19; 16; 9; 5; 2 |]
    (Jq.Prune.aggregate_buckets [| 3; 7; 4; 3; 2 |])

let test_prune_rule () =
  check_bool "settled positive" true
    (Jq.Prune.prune ~key:10 ~remaining_swing:9 = Jq.Prune.Settled 1.);
  check_bool "settled negative" true
    (Jq.Prune.prune ~key:(-10) ~remaining_swing:9 = Jq.Prune.Settled 0.);
  check_bool "keep undecided" true (Jq.Prune.prune ~key:5 ~remaining_swing:9 = Jq.Prune.Keep);
  check_bool "keep zero" true (Jq.Prune.prune ~key:0 ~remaining_swing:0 = Jq.Prune.Keep)

(* ---- Bounds ---------------------------------------------------------------------- *)

let test_bounds_formula () =
  check_close 1e-12 "explicit" (exp (11. *. 0.1 /. 4.) -. 1.)
    (Jq.Bounds.additive_bound ~upper:5. ~num_buckets:50 ~n:11);
  check_close 1e-12 "paper guarantee" (exp (5. /. 800.) -. 1.) Jq.Bounds.paper_guarantee;
  check_bool "under 1%" true (Jq.Bounds.paper_guarantee < 0.01)

let test_bounds_inverse =
  qtest "buckets_for_error achieves the target"
    QCheck2.Gen.(pair (int_range 1 200) (float_range 0.001 0.1))
    (fun (n, epsilon) ->
      let buckets = Jq.Bounds.buckets_for_error ~upper:5. ~n ~epsilon in
      Jq.Bounds.additive_bound ~upper:5. ~num_buckets:buckets ~n <= epsilon +. 1e-9)

let test_bounds_validation () =
  Alcotest.check_raises "epsilon" (Invalid_argument "Bounds.buckets_for_error: epsilon <= 0")
    (fun () -> ignore (Jq.Bounds.buckets_for_error ~upper:5. ~n:3 ~epsilon:0.))

(* ---- Multi-class (section 7) ------------------------------------------------------ *)

let sym3 q id =
  Workers.Confusion.make ~id
    ~matrix:
      [|
        [| q; (1. -. q) /. 2.; (1. -. q) /. 2. |];
        [| (1. -. q) /. 2.; q; (1. -. q) /. 2. |];
        [| (1. -. q) /. 2.; (1. -. q) /. 2.; q |];
      |]
    ~cost:1. ()

let uniform3 = [| 1. /. 3.; 1. /. 3.; 1. /. 3. |]

let mc_jury_gen =
  QCheck2.Gen.(
    int_range 1 4 >>= fun n ->
    array_size (return n) (float_range 0.34 0.95))

let test_mc_exact_bounds =
  qtest ~count:50 "multi-class JQ in [1/3, 1]" mc_jury_gen (fun qs ->
      let jury = Array.mapi (fun id q -> sym3 q id) qs in
      let jq = Jq.Multiclass_jq.jq_exact Multiclass.bayesian ~prior:uniform3 ~jury in
      jq >= (1. /. 3.) -. 1e-9 && jq <= 1. +. 1e-9)

let test_mc_bv_optimal =
  qtest ~count:50 "multi-class BV beats plurality and random ballot" mc_jury_gen
    (fun qs ->
      let jury = Array.mapi (fun id q -> sym3 q id) qs in
      let bv = Jq.Multiclass_jq.jq_exact Multiclass.bayesian ~prior:uniform3 ~jury in
      Jq.Multiclass_jq.jq_exact Multiclass.plurality ~prior:uniform3 ~jury <= bv +. 1e-9
      && Jq.Multiclass_jq.jq_exact Multiclass.random_ballot ~prior:uniform3 ~jury
         <= bv +. 1e-9)

let test_mc_binary_consistency =
  qtest ~count:100 "2-label exact JQ = binary exact JQ"
    (jury_gen ~max:6 (QCheck2.Gen.float_range 0.05 0.95))
    (fun qs ->
      let jury =
        Array.mapi
          (fun id q -> Workers.Confusion.symmetric_binary ~quality:q ~id ~cost:0.)
          qs
      in
      let mc = Jq.Multiclass_jq.jq_exact Multiclass.bayesian ~prior:[| 0.5; 0.5 |] ~jury in
      let bin = Jq.Exact.jq_optimal ~alpha:0.5 ~qualities:qs in
      Float.abs (mc -. bin) < 1e-9)

let test_mc_estimate_tracks_exact =
  qtest ~count:50 "tuple-key estimate close to exact" mc_jury_gen (fun qs ->
      let jury = Array.mapi (fun id q -> sym3 q id) qs in
      let exact = Jq.Multiclass_jq.jq_exact Multiclass.bayesian ~prior:uniform3 ~jury in
      let est = Jq.Multiclass_jq.estimate_bv ~num_buckets:400 ~prior:uniform3 jury in
      Float.abs (exact -. est) < 0.02)

let test_mc_flat_matches_hashtbl =
  (* Zero prior components drive the per-label log-ratio keys to +inf,
     exercising the flat kernel's saturating dimension bounds against the
     hashtable's max_int saturation. *)
  qtest ~count:100 "multiclass flat and hashtbl kernels agree"
    QCheck2.Gen.(
      pair mc_jury_gen
        (oneofl [ uniform3; [| 0.5; 0.5; 0. |]; [| 0.; 0.3; 0.7 |] ]))
    (fun (qs, prior) ->
      let jury = Array.mapi (fun id q -> sym3 q id) qs in
      let run impl = Jq.Multiclass_jq.estimate_bv ~impl ~prior jury in
      Float.abs (run Jq.Bucket.Flat -. run Jq.Bucket.Hashtbl) < 1e-9)

let test_mc_flat_binary_matches_hashtbl =
  qtest ~count:100 "2-label flat and hashtbl kernels agree"
    (jury_gen ~max:8 (QCheck2.Gen.float_range 0.05 0.95))
    (fun qs ->
      let jury =
        Array.mapi
          (fun id q -> Workers.Confusion.symmetric_binary ~quality:q ~id ~cost:0.)
          qs
      in
      let run impl =
        Jq.Multiclass_jq.estimate_bv ~impl ~prior:[| 0.5; 0.5 |] jury
      in
      Float.abs (run Jq.Bucket.Flat -. run Jq.Bucket.Hashtbl) < 1e-9)

let test_mc_h_decomposition () =
  let jury = [| sym3 0.8 0; sym3 0.7 1 |] in
  let jq = Jq.Multiclass_jq.jq_exact Multiclass.bayesian ~prior:uniform3 ~jury in
  let sum =
    List.fold_left
      (fun acc t ->
        acc
        +. (uniform3.(t)
           *. Jq.Multiclass_jq.h_exact Multiclass.bayesian ~truth:t ~prior:uniform3 ~jury))
      0. [ 0; 1; 2 ]
  in
  check_close 1e-12 "JQ = sum alpha_t H(t)" jq sum

let test_mc_degenerate_prior () =
  let jury = [| sym3 0.8 0 |] in
  let prior = [| 1.; 0.; 0. |] in
  (* Truth is certainly 0: BV always answers 0, so JQ = 1. *)
  check_close 1e-9 "certain prior" 1.
    (Jq.Multiclass_jq.jq_exact Multiclass.bayesian ~prior ~jury);
  check_close 1e-9 "estimate too" 1. (Jq.Multiclass_jq.estimate_bv ~prior jury)

let test_mc_h_validation () =
  Alcotest.check_raises "truth range" (Invalid_argument "Multiclass_jq.h_estimate: truth")
    (fun () ->
      ignore (Jq.Multiclass_jq.h_estimate ~truth:5 ~prior:uniform3 [| sym3 0.8 0 |]))

(* ---- Pruned/truncated flat kernel ------------------------------------- *)

let mc_prior_gen =
  QCheck2.Gen.oneofl [ uniform3; [| 0.5; 0.3; 0.2 |]; [| 0.1; 0.1; 0.8 |] ]

let test_mc_truncation_underestimates =
  (* A deliberately coarse mass floor: the truncated estimate may only
     lose mass relative to the untruncated oracle, and no more than the
     tracked truncation error. *)
  qtest ~count:100 "truncated flat kernel only loses tracked mass"
    QCheck2.Gen.(pair mc_jury_gen mc_prior_gen)
    (fun (qs, prior) ->
      let jury = Array.mapi (fun id q -> sym3 q id) qs in
      let stats =
        Jq.Multiclass_jq.estimate_bv_stats ~trunc_mass:1e-3 ~prior jury
      in
      let oracle =
        Jq.Multiclass_jq.estimate_bv ~impl:Jq.Bucket.Hashtbl ~prior jury
      in
      stats.Jq.Multiclass_jq.value <= oracle +. 1e-9
      && oracle -. stats.Jq.Multiclass_jq.value
         <= stats.Jq.Multiclass_jq.trunc_error +. 1e-9)

let test_mc_error_bound =
  qtest ~count:60 "estimate within the certified bound of exact"
    QCheck2.Gen.(triple mc_jury_gen mc_prior_gen (int_range 25 400))
    (fun (qs, prior, num_buckets) ->
      let jury = Array.mapi (fun id q -> sym3 q id) qs in
      let stats =
        Jq.Multiclass_jq.estimate_bv_stats ~num_buckets ~prior jury
      in
      let exact = Jq.Multiclass_jq.jq_exact Multiclass.bayesian ~prior ~jury in
      Float.abs (exact -. stats.Jq.Multiclass_jq.value)
      <= stats.Jq.Multiclass_jq.error_bound +. 1e-9)

let test_mc_workspace_reuse_deterministic =
  qtest ~count:50 "multiclass workspace warmth does not change results"
    QCheck2.Gen.(pair mc_jury_gen mc_prior_gen)
    (fun (qs, prior) ->
      let jury = Array.mapi (fun id q -> sym3 q id) qs in
      let ws = Jq.Workspace.create () in
      let a = Jq.Multiclass_jq.estimate_bv ~workspace:ws ~prior jury in
      let b = Jq.Multiclass_jq.estimate_bv ~workspace:ws ~prior jury in
      let fresh =
        Jq.Multiclass_jq.estimate_bv ~workspace:(Jq.Workspace.create ()) ~prior
          jury
      in
      Float.equal a b && Float.equal a fresh)

let test_mc_warm_eval_allocation () =
  (* The sparse-frontier DP must run entirely on workspace buffers: after
     two warming evaluations (buffers at their high-water mark), each
     further evaluation may allocate only the fixed stats/accumulator
     scaffolding — a budget far below one DP frontier's worth. *)
  let jury =
    Array.init 12 (fun id -> sym3 (0.45 +. (0.04 *. float_of_int id)) id)
  in
  let prior = [| 0.2; 0.5; 0.3 |] in
  let ws = Jq.Workspace.create () in
  let eval () =
    ignore (Jq.Multiclass_jq.estimate_bv ~workspace:ws ~prior jury)
  in
  eval ();
  eval ();
  let reps = 50 in
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    eval ()
  done;
  let per_eval = (Gc.minor_words () -. before) /. float_of_int reps in
  if per_eval > 1024. then
    Alcotest.failf "warm multiclass eval allocates %.0f minor words" per_eval

let test_mc_nan_prior () =
  Alcotest.check_raises "NaN log-ratio rejected"
    (Invalid_argument "Multiclass_jq.bucketize_value: NaN log-ratio")
    (fun () ->
      ignore
        (Jq.Multiclass_jq.estimate_bv
           ~prior:[| 0.5; Float.nan; 0.5 |]
           [| sym3 0.8 0 |]))

let test_tuple_ranges_degenerate () =
  (* n = 0: the range collapses to the clamped initial digit and the
     verdict is decided by it alone. *)
  let sat = 1000 in
  let lo = Array.make 2 99 and hi = Array.make 2 99 in
  let live =
    Jq.Prune.tuple_ranges ~sat ~nd:2 ~n:0 ~labels:3 ~floors:[| 1; 0 |]
      ~binit:[| 2; 0 |] ~masses:[||] ~binc:[||] ~lo ~hi
  in
  check_bool "live" true live;
  Alcotest.(check (array int)) "lo = floors" [| 1; 0 |] (Array.sub lo 0 2);
  Alcotest.(check (array int)) "hi = floors" [| 1; 0 |] (Array.sub hi 0 2);
  check_bool "settled reject" false
    (Jq.Prune.tuple_ranges ~sat ~nd:2 ~n:0 ~labels:3 ~floors:[| 1; 0 |]
       ~binit:[| 0; 5 |] ~masses:[||] ~binc:[||] ~lo ~hi)

let test_tuple_ranges_single_worker () =
  (* One worker with increments ±1 from digit 0 against floor 0: every
     state's range must pin to the floor (the +1 branch is settled
     accepted and collapses, the −1 branch is settled rejected). *)
  let sat = 1000 in
  let lo = Array.make 2 99 and hi = Array.make 2 99 in
  let live =
    Jq.Prune.tuple_ranges ~sat ~nd:1 ~n:1 ~labels:2 ~floors:[| 0 |]
      ~binit:[| 0 |] ~masses:[| 0.5; 0.5 |] ~binc:[| 1; -1 |] ~lo ~hi
  in
  check_bool "live" true live;
  check_int "state0 lo" 0 lo.(0);
  check_int "state0 hi" 0 hi.(0);
  check_int "state1 lo" 0 lo.(1);
  check_int "state1 hi" 0 hi.(1)

let test_multiclass_bound () =
  check_close 1e-12 "explicit"
    (2. *. (exp (6. *. (2.5 /. 50.) /. 2.) -. 1.))
    (Jq.Bounds.multiclass_bound ~upper:2.5 ~num_buckets:50 ~n:5 ~labels:3);
  check_bool "clamped to 1" true
    (Jq.Bounds.multiclass_bound ~upper:100. ~num_buckets:1 ~n:50 ~labels:5 = 1.);
  Alcotest.check_raises "labels"
    (Invalid_argument "Bounds.multiclass_bound: labels") (fun () ->
      ignore (Jq.Bounds.multiclass_bound ~upper:1. ~num_buckets:10 ~n:3 ~labels:1))

(* ---- Symmetries ------------------------------------------------------------ *)

let test_jq_label_symmetry =
  (* Relabeling yes <-> no swaps alpha for 1 - alpha and leaves BV's JQ
     unchanged. *)
  qtest "JQ(J, BV, alpha) = JQ(J, BV, 1 - alpha)"
    QCheck2.Gen.(pair (jury_gen quality_gen) alpha_gen)
    (fun (qs, alpha) ->
      Float.abs
        (Jq.Exact.jq_optimal ~alpha ~qualities:qs
        -. Jq.Exact.jq_optimal ~alpha:(1. -. alpha) ~qualities:qs)
      < 1e-9)

let test_bucket_permutation_invariance =
  qtest "bucket estimate is invariant under jury permutation"
    (jury_gen ~max:10 reliable_gen) (fun qs ->
      let reversed = Array.of_list (List.rev (Array.to_list qs)) in
      Float.abs (Jq.Bucket.estimate qs -. Jq.Bucket.estimate reversed) < 1e-9)

let test_exact_permutation_invariance =
  qtest "exact JQ is invariant under jury permutation"
    (jury_gen ~max:8 quality_gen) (fun qs ->
      let reversed = Array.of_list (List.rev (Array.to_list qs)) in
      Float.abs
        (Jq.Exact.jq_optimal ~alpha:0.4 ~qualities:qs
        -. Jq.Exact.jq_optimal ~alpha:0.4 ~qualities:reversed)
      < 1e-9)

(* ---- Incremental (anytime) JQ --------------------------------------------- *)

let test_incremental_tracks_exact =
  qtest ~count:200 "anytime estimate within both error bounds of exact"
    (jury_gen ~max:8 quality_gen) (fun qs ->
      let t = Jq.Incremental.create ~num_buckets:400 () in
      Array.iter (Jq.Incremental.add_worker t) qs;
      let exact = Jq.Exact.jq_optimal ~alpha:0.5 ~qualities:qs in
      let est = Jq.Incremental.value t in
      est <= exact +. 1e-9 && exact -. est <= Jq.Incremental.error_bound t +. 1e-9)

let test_incremental_matches_batch_on_fig2 () =
  let t = Jq.Incremental.create ~num_buckets:2000 () in
  Array.iter (Jq.Incremental.add_worker t) fig2_qualities;
  check_close 1e-3 "figure-2 value" 0.9 (Jq.Incremental.value t);
  check_int "size" 3 (Jq.Incremental.size t)

let test_incremental_order_invariant =
  qtest ~count:100 "arrival order does not change the estimate"
    (jury_gen ~max:7 quality_gen) (fun qs ->
      let run order =
        let t = Jq.Incremental.create () in
        Array.iter (Jq.Incremental.add_worker t) order;
        Jq.Incremental.value t
      in
      let reversed = Array.of_list (List.rev (Array.to_list qs)) in
      Float.abs (run qs -. run reversed) < 1e-9)

let test_incremental_monotone_in_size =
  (* Lemma 1 makes the *true* JQ monotone in jury size; the anytime
     estimate may dip by at most its bucketization error bound. *)
  qtest ~count:100 "anytime JQ monotone up to the error bound"
    (jury_gen ~max:8 reliable_gen) (fun qs ->
      let t = Jq.Incremental.create () in
      let ok = ref true in
      let previous = ref (Jq.Incremental.value t) in
      Array.iter
        (fun q ->
          Jq.Incremental.add_worker t q;
          let v = Jq.Incremental.value t in
          if v < !previous -. Jq.Incremental.error_bound t -. 1e-9 then ok := false;
          previous := v)
        qs;
      !ok)

let test_incremental_edges () =
  let t = Jq.Incremental.create ~alpha:0.3 () in
  check_close 1e-12 "empty follows prior" 0.7 (Jq.Incremental.value t);
  Jq.Incremental.add_worker t 1.0;
  check_close 1e-12 "certain worker" 1. (Jq.Incremental.value t);
  Jq.Incremental.add_worker t 0.6;
  check_close 1e-12 "stays certain" 1. (Jq.Incremental.value t);
  let coins = Jq.Incremental.create () in
  Jq.Incremental.add_worker coins 0.5;
  Jq.Incremental.add_worker coins 0.5;
  check_close 1e-12 "all coins" 0.5 (Jq.Incremental.value coins);
  Alcotest.check_raises "quality" (Invalid_argument "Incremental.add_worker: quality outside [0, 1]")
    (fun () -> Jq.Incremental.add_worker coins 1.5)

(* ---- Incremental removal --------------------------------------------------- *)

(* A random interleaving of adds and removes, ending with the [kept] subset:
   add everything, then (in a data-dependent order) remove the rest. *)
let interleave t qs ~keep =
  Array.iteri
    (fun i q ->
      Jq.Incremental.add_worker t q;
      (* Remove an earlier non-kept worker every other step, so removals
         happen mid-stream rather than only at the end. *)
      if i mod 2 = 1 then
        for j = i - 1 downto max 0 (i - 2) do
          if not keep.(j) && qs.(j) >= 0. then begin
            Jq.Incremental.remove_worker t qs.(j);
            qs.(j) <- -1.
          end
        done)
    qs;
  Array.iteri
    (fun j q -> if (not keep.(j)) && q >= 0. then Jq.Incremental.remove_worker t q)
    (Array.copy qs)

let test_incremental_interleaved_vs_exact =
  qtest ~count:200 "value after add/remove interleaving brackets the exact JQ"
    QCheck2.Gen.(triple (jury_gen ~max:8 quality_gen) (array_size (return 8) bool) alpha_gen)
    (fun (qs, keep_all, alpha) ->
      let n = Array.length qs in
      let keep = Array.sub keep_all 0 n in
      (* Keep at least one worker so the surviving jury is non-empty. *)
      keep.(0) <- true;
      let t = Jq.Incremental.create ~num_buckets:400 ~alpha () in
      let scratch = Array.copy qs in
      interleave t scratch ~keep;
      let survivors =
        Array.of_list
          (List.filteri (fun j _ -> keep.(j)) (Array.to_list qs))
      in
      let exact = Jq.Exact.jq_optimal ~alpha ~qualities:survivors in
      let est = Jq.Incremental.value t in
      Jq.Incremental.size t = Array.length survivors
      && est <= exact +. 1e-9
      && exact -. est <= Jq.Incremental.error_bound t +. 1e-9)

let test_incremental_interleaved_vs_bucket =
  qtest ~count:200 "value after add/remove interleaving near Bucket.estimate"
    QCheck2.Gen.(triple (jury_gen ~max:8 quality_gen) (array_size (return 8) bool) alpha_gen)
    (fun (qs, keep_all, alpha) ->
      let n = Array.length qs in
      let keep = Array.sub keep_all 0 n in
      keep.(0) <- true;
      let t = Jq.Incremental.create ~alpha () in
      let scratch = Array.copy qs in
      interleave t scratch ~keep;
      let survivors =
        Array.of_list
          (List.filteri (fun j _ -> keep.(j)) (Array.to_list qs))
      in
      let stats = Jq.Bucket.estimate_stats ~alpha survivors in
      let est = Jq.Incremental.value t in
      (* Both are lower estimates of the same JQ, so they agree within the
         sum of their §4.4 error bounds. *)
      Float.abs (est -. stats.Jq.Bucket.value)
      <= Jq.Incremental.error_bound t +. stats.Jq.Bucket.error_bound +. 1e-9)

let test_incremental_add_remove_reverts =
  qtest ~count:200 "adding then removing a worker restores the value"
    QCheck2.Gen.(pair (jury_gen ~max:6 quality_gen) quality_gen)
    (fun (qs, extra) ->
      let t = Jq.Incremental.create () in
      Array.iter (Jq.Incremental.add_worker t) qs;
      let before = Jq.Incremental.value t in
      Jq.Incremental.add_worker t extra;
      Jq.Incremental.remove_worker t extra;
      Float.abs (Jq.Incremental.value t -. before) < 1e-9
      && Jq.Incremental.size t = Array.length qs)

let test_incremental_remove_validation () =
  let t = Jq.Incremental.create () in
  Jq.Incremental.add_worker t 0.8;
  let absent = Invalid_argument "Incremental.remove_worker: worker not in jury" in
  Alcotest.check_raises "never added" absent (fun () ->
      Jq.Incremental.remove_worker t 0.7);
  Alcotest.check_raises "no coin present" absent (fun () ->
      Jq.Incremental.remove_worker t 0.5);
  Alcotest.check_raises "no certain present" absent (fun () ->
      Jq.Incremental.remove_worker t 1.0);
  (* q and 1 − q are the same member after reinterpretation. *)
  Jq.Incremental.remove_worker t 0.2;
  check_int "empty again" 0 (Jq.Incremental.size t);
  Alcotest.check_raises "range" (Invalid_argument "Incremental.remove_worker: quality outside [0, 1]")
    (fun () -> Jq.Incremental.remove_worker t 1.5)

let test_incremental_certain_removal () =
  let t = Jq.Incremental.create () in
  Jq.Incremental.add_worker t 0.8;
  Jq.Incremental.add_worker t 1.0;
  check_close 1e-12 "certain regime" 1. (Jq.Incremental.value t);
  Jq.Incremental.add_worker t 0.7;
  Jq.Incremental.remove_worker t 1.0;
  (* Leaving the certain regime must rebuild to {0.8, 0.7}. *)
  let fresh = Jq.Incremental.create () in
  Jq.Incremental.add_worker fresh 0.8;
  Jq.Incremental.add_worker fresh 0.7;
  check_close 1e-12 "rebuilt after certain removal" (Jq.Incremental.value fresh)
    (Jq.Incremental.value t);
  check_int "size" 2 (Jq.Incremental.size t)

let test_incremental_periodic_rebuild () =
  let t = Jq.Incremental.create () in
  Jq.Incremental.add_worker t 0.8;
  Jq.Incremental.add_worker t 0.65;
  for _ = 1 to 600 do
    Jq.Incremental.add_worker t 0.72;
    Jq.Incremental.remove_worker t 0.72
  done;
  let v = Jq.Incremental.value t in
  check_bool "periodic rebuild triggered" true (Jq.Incremental.rebuilds t >= 1);
  let fresh = Jq.Incremental.create () in
  Jq.Incremental.add_worker fresh 0.8;
  Jq.Incremental.add_worker fresh 0.65;
  check_close 1e-9 "value survives the add/remove storm" (Jq.Incremental.value fresh) v

let test_incremental_error_bound_semantics () =
  (* error_bound must be Bounds.additive_bound over exactly the convolved
     logits: prior pseudo-worker counted, coins and certain-regime members
     not. *)
  let upper = Prob.Log_space.logit 0.99 in
  let num_buckets = Jq.Bucket.default_num_buckets in
  let expect t n =
    check_float "bound = additive_bound over convolved logits"
      (Jq.Bounds.additive_bound ~upper ~num_buckets ~n)
      (Jq.Incremental.error_bound t);
    check_int "convolved" n (Jq.Incremental.convolved t)
  in
  let t = Jq.Incremental.create ~alpha:0.7 () in
  expect t 1;                              (* the prior pseudo-worker *)
  Jq.Incremental.add_worker t 0.5;
  expect t 1;                              (* coins are never convolved *)
  check_int "coins" 1 (Jq.Incremental.coins t);
  Jq.Incremental.add_worker t 0.8;
  expect t 2;
  Jq.Incremental.add_worker t 1.0;         (* certain: bound collapses to 0 *)
  check_float "certain bound" 0. (Jq.Incremental.error_bound t);
  Jq.Incremental.remove_worker t 1.0;
  expect t 2;
  Jq.Incremental.remove_worker t 0.8;
  expect t 1;
  let unprior = Jq.Incremental.create ~alpha:0.5 () in
  expect unprior 0;
  check_float "empty unprior bound" 0. (Jq.Incremental.error_bound unprior)

let test_buckets_for_error_clamp () =
  check_bool "denormal input still yields a usable bucket count" true
    (Jq.Bounds.buckets_for_error ~upper:1e-300 ~n:1 ~epsilon:0.5 >= 1);
  check_int "tiny product clamps to 1" 1
    (Jq.Bounds.buckets_for_error ~upper:4.94e-324 ~n:1 ~epsilon:0.9);
  let b = Jq.Bounds.buckets_for_error ~upper:5. ~n:10 ~epsilon:0.01 in
  check_bool "bound met at the returned count" true
    (Jq.Bounds.additive_bound ~upper:5. ~num_buckets:b ~n:10 <= 0.01)

(* ---- Monte-Carlo JQ ------------------------------------------------------- *)

let test_monte_carlo_converges () =
  let rng = Prob.Rng.create 31337 in
  let est = Jq.Mc.jq_bv rng ~trials:100_000 ~alpha:0.5 ~qualities:fig2_qualities in
  check_close 0.01 "MC JQ near 0.9" 0.9 est.Jq.Mc.value;
  let lo, hi = est.Jq.Mc.confidence_99 in
  check_bool "interval covers truth" true (lo <= 0.9 && 0.9 <= hi);
  check_bool "interval inside [0,1]" true (lo >= 0. && hi <= 1.)

let test_monte_carlo_matches_exact =
  qtest ~count:20 "MC estimate within its 99% interval of the exact JQ"
    (jury_gen ~max:6 reliable_gen) (fun qs ->
      let rng = Prob.Rng.create (Hashtbl.hash qs) in
      let exact = Jq.Exact.jq_optimal ~alpha:0.5 ~qualities:qs in
      let est = Jq.Mc.jq_bv rng ~trials:20_000 ~alpha:0.5 ~qualities:qs in
      let lo, hi = est.Jq.Mc.confidence_99 in
      lo <= exact && exact <= hi)

let test_monte_carlo_any_strategy () =
  let rng = Prob.Rng.create 7 in
  let est =
    Jq.Mc.jq rng ~trials:100_000 ~strategy:Randomized.coin_flip ~alpha:0.5
      ~qualities:fig2_qualities
  in
  check_close 0.01 "coin JQ 0.5" 0.5 est.Jq.Mc.value

let test_monte_carlo_validation () =
  let rng = Prob.Rng.create 0 in
  Alcotest.check_raises "trials" (Invalid_argument "Mc.jq: trials <= 0") (fun () ->
      ignore (Jq.Mc.jq_bv rng ~trials:0 ~alpha:0.5 ~qualities:[| 0.7 |]));
  Alcotest.check_raises "quality" (Invalid_argument "Mc.jq: quality outside [0, 1]")
    (fun () -> ignore (Jq.Mc.jq_bv rng ~trials:10 ~alpha:0.5 ~qualities:[| 1.5 |]))

let test_monte_carlo_trials_for_halfwidth () =
  let trials = Jq.Mc.trials_for_halfwidth 0.01 in
  check_bool "enough trials" true
    (sqrt (log (2. /. 0.01) /. (2. *. float_of_int trials)) <= 0.01 +. 1e-12);
  Alcotest.check_raises "h" (Invalid_argument "Mc.trials_for_halfwidth: h <= 0")
    (fun () -> ignore (Jq.Mc.trials_for_halfwidth 0.))

let () =
  Alcotest.run "jq"
    [
      ( "exact",
        [
          Alcotest.test_case "likelihoods" `Quick test_exact_likelihoods;
          Alcotest.test_case "figure 2 values" `Quick test_exact_fig2;
          Alcotest.test_case "constant and coin" `Quick test_exact_constant;
          test_exact_optimal_equals_bv;
          test_exact_bounds;
          Alcotest.test_case "jury cap" `Quick test_exact_too_large;
          Alcotest.test_case "table totals" `Quick test_exact_table_totals;
        ] );
      ( "optimality",
        [ test_bv_optimality; test_bv_beats_random_weighted ] );
      ( "mv_closed",
        [
          test_mv_closed_matches_exact;
          test_half_closed_matches_exact;
          test_tie_coin_matches_exact;
          Alcotest.test_case "figure 2" `Quick test_mv_closed_fig2;
          Alcotest.test_case "empty juries" `Quick test_mv_closed_empty;
        ] );
      ( "bucket",
        [
          Alcotest.test_case "figure 2 estimate" `Quick test_bucket_fig2;
          test_bucket_never_exceeds_exact;
          test_bucket_error_bound;
          test_bucket_converges;
          test_bucket_pruning_invariant;
          Alcotest.test_case "pruning invariant (large)" `Quick
            test_bucket_pruning_invariant_large;
          test_bucket_low_quality_reinterpretation;
          test_bucket_alpha_matches_exact;
          Alcotest.test_case "all coins" `Quick test_bucket_all_coins;
          Alcotest.test_case "certain cases" `Quick test_bucket_certain_worker;
          Alcotest.test_case "high-quality shortcut" `Quick test_bucket_shortcut;
          Alcotest.test_case "stats instrumentation" `Quick
            test_bucket_stats_instrumentation;
          Alcotest.test_case "validation" `Quick test_bucket_validation;
          test_bucketize_nearest;
          test_bucket_finer_bound;
        ] );
      ( "kernels",
        [
          test_flat_matches_hashtbl;
          test_flat_hashtbl_underestimate;
          test_flat_pruning_agreement;
          test_workspace_reuse_deterministic;
          test_mc_flat_matches_hashtbl;
          test_mc_flat_binary_matches_hashtbl;
        ] );
      ( "monotonicity",
        [ test_lemma1_jury_size; test_lemma2_quality ] );
      ( "prior",
        [
          test_theorem3_exact;
          Alcotest.test_case "fold" `Quick test_prior_fold;
          test_coin_worker_harmless;
        ] );
      ( "reinterpret",
        [
          Alcotest.test_case "canonicalize" `Quick test_reinterpret_canonicalize;
          test_reinterpret_preserves_bv_jq;
          test_reinterpret_helps_mv;
          Alcotest.test_case "apply flips" `Quick test_apply_flips;
        ] );
      ( "prune",
        [
          Alcotest.test_case "aggregate" `Quick test_aggregate_buckets;
          Alcotest.test_case "rule" `Quick test_prune_rule;
          Alcotest.test_case "tuple ranges (degenerate)" `Quick
            test_tuple_ranges_degenerate;
          Alcotest.test_case "tuple ranges (single worker)" `Quick
            test_tuple_ranges_single_worker;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "formula" `Quick test_bounds_formula;
          test_bounds_inverse;
          Alcotest.test_case "validation" `Quick test_bounds_validation;
          Alcotest.test_case "multiclass bound" `Quick test_multiclass_bound;
        ] );
      ( "multiclass",
        [
          test_mc_exact_bounds;
          test_mc_bv_optimal;
          test_mc_binary_consistency;
          test_mc_estimate_tracks_exact;
          Alcotest.test_case "H decomposition" `Quick test_mc_h_decomposition;
          Alcotest.test_case "degenerate prior" `Quick test_mc_degenerate_prior;
          Alcotest.test_case "validation" `Quick test_mc_h_validation;
          test_mc_truncation_underestimates;
          test_mc_error_bound;
          test_mc_workspace_reuse_deterministic;
          Alcotest.test_case "warm eval allocation" `Quick
            test_mc_warm_eval_allocation;
          Alcotest.test_case "NaN prior rejected" `Quick test_mc_nan_prior;
        ] );
      ( "symmetries",
        [
          test_jq_label_symmetry;
          test_bucket_permutation_invariance;
          test_exact_permutation_invariance;
        ] );
      ( "incremental",
        [
          test_incremental_tracks_exact;
          Alcotest.test_case "figure-2 value" `Quick test_incremental_matches_batch_on_fig2;
          test_incremental_order_invariant;
          test_incremental_monotone_in_size;
          Alcotest.test_case "edges" `Quick test_incremental_edges;
          test_incremental_interleaved_vs_exact;
          test_incremental_interleaved_vs_bucket;
          test_incremental_add_remove_reverts;
          Alcotest.test_case "remove validation" `Quick test_incremental_remove_validation;
          Alcotest.test_case "certain removal" `Quick test_incremental_certain_removal;
          Alcotest.test_case "periodic rebuild" `Quick test_incremental_periodic_rebuild;
          Alcotest.test_case "error-bound semantics" `Quick
            test_incremental_error_bound_semantics;
          Alcotest.test_case "buckets_for_error clamp" `Quick test_buckets_for_error_clamp;
        ] );
      ( "monte_carlo",
        [
          Alcotest.test_case "converges" `Slow test_monte_carlo_converges;
          test_monte_carlo_matches_exact;
          Alcotest.test_case "any strategy" `Slow test_monte_carlo_any_strategy;
          Alcotest.test_case "validation" `Quick test_monte_carlo_validation;
          Alcotest.test_case "trials for halfwidth" `Quick
            test_monte_carlo_trials_for_halfwidth;
        ] );
    ]
