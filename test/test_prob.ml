(* Tests for the numeric substrate: RNG, log-space arithmetic, compensated
   summation, distributions, Poisson-binomial DP, statistics, histograms. *)

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---- Rng ----------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Prob.Rng.create 42 and b = Prob.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prob.Rng.bits64 a) (Prob.Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Prob.Rng.create 1 and b = Prob.Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Prob.Rng.bits64 a) (Prob.Rng.bits64 b)) then differs := true
  done;
  check_bool "streams differ" true !differs

let test_rng_copy () =
  let a = Prob.Rng.create 7 in
  ignore (Prob.Rng.bits64 a);
  let b = Prob.Rng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copy tracks" (Prob.Rng.bits64 a) (Prob.Rng.bits64 b)
  done

let test_rng_split_decorrelates () =
  let parent = Prob.Rng.create 13 in
  let child = Prob.Rng.split parent in
  (* The child stream must not be a shifted copy of the parent's. *)
  let equal_count = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prob.Rng.bits64 parent) (Prob.Rng.bits64 child) then
      incr equal_count
  done;
  check_bool "no collisions" true (!equal_count = 0)

let test_rng_int_bounds =
  qtest "Rng.int stays within bounds"
    QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 0 10_000))
    (fun (bound, seed) ->
      let g = Prob.Rng.create seed in
      let v = Prob.Rng.int g bound in
      v >= 0 && v < bound)

let test_rng_int_invalid () =
  let g = Prob.Rng.create 0 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Prob.Rng.int g 0))

(* The generator state is an unboxed buffer: drawing an int allocates
   nothing on the minor heap. *)
let test_rng_int_allocation_free () =
  let g = Prob.Rng.create 11 in
  let draws = 100_000 in
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    sum := !sum + Prob.Rng.int g 1000
  done;
  let words = Gc.minor_words () -. before in
  if words >= float_of_int draws then
    Alcotest.failf "%d Rng.int draws allocated %.0f minor words (sum %d)" draws
      words !sum

let test_rng_unit_float_range () =
  let g = Prob.Rng.create 5 in
  for _ = 1 to 10_000 do
    let u = Prob.Rng.unit_float g in
    if u < 0. || u >= 1. then Alcotest.failf "unit_float out of range: %f" u
  done

let test_rng_int_uniform () =
  (* Coarse uniformity: all 10 cells close to expectation. *)
  let g = Prob.Rng.create 99 in
  let cells = Array.make 10 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let i = Prob.Rng.int g 10 in
    cells.(i) <- cells.(i) + 1
  done;
  Array.iter
    (fun c ->
      check_bool "cell within bounds" true (c > (n / 10) - 700 && c < (n / 10) + 700))
    cells

let test_rng_bernoulli_frequency () =
  let g = Prob.Rng.create 17 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Prob.Rng.bernoulli g 0.3 then incr hits
  done;
  check_close 0.02 "p=0.3" 0.3 (float_of_int !hits /. float_of_int n)

let test_rng_gaussian_moments () =
  let g = Prob.Rng.create 23 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Prob.Rng.gaussian g ~mu:2. ~sigma:3.) in
  check_close 0.1 "mean" 2. (Prob.Stats.mean xs);
  check_close 0.1 "stddev" 3. (Prob.Stats.stddev xs)

let test_rng_shuffle_multiset () =
  let g = Prob.Rng.create 3 in
  let arr = Array.init 100 Fun.id in
  Prob.Rng.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "multiset preserved" (Array.init 100 Fun.id) sorted

let test_rng_shuffle_moves () =
  let g = Prob.Rng.create 3 in
  let arr = Array.init 100 Fun.id in
  Prob.Rng.shuffle g arr;
  check_bool "some element moved" true
    (Array.exists (fun i -> arr.(i) <> i) (Array.init 100 Fun.id))

let test_rng_sample_without_replacement () =
  let g = Prob.Rng.create 11 in
  let arr = Array.init 30 Fun.id in
  let sample = Prob.Rng.sample_without_replacement g 10 arr in
  check_int "size" 10 (Array.length sample);
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun x ->
      check_bool "member" true (x >= 0 && x < 30);
      check_bool "distinct" false (Hashtbl.mem seen x);
      Hashtbl.add seen x ())
    sample

let test_rng_sample_full () =
  let g = Prob.Rng.create 11 in
  let arr = [| 1; 2; 3 |] in
  let s = Prob.Rng.sample_without_replacement g 3 arr in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "whole array" [| 1; 2; 3 |] sorted

let test_rng_choose () =
  let g = Prob.Rng.create 1 in
  check_int "singleton" 9 (Prob.Rng.choose g [| 9 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Prob.Rng.choose g ([||] : int array)))

(* ---- Log_space ------------------------------------------------------ *)

let test_logit_known () =
  check_float "logit 0.5" 0. (Prob.Log_space.logit 0.5);
  check_close 1e-12 "logit 0.9" (log 9.) (Prob.Log_space.logit 0.9);
  check_close 1e-12 "logit symmetric" (-.Prob.Log_space.logit 0.9)
    (Prob.Log_space.logit 0.1)

let test_logit_invalid () =
  List.iter
    (fun q ->
      Alcotest.check_raises "logit domain"
        (Invalid_argument "Log_space.logit: q must lie in (0, 1)") (fun () ->
          ignore (Prob.Log_space.logit q)))
    [ 0.; 1.; -0.5; 1.5 ]

let test_log_add =
  qtest "log-sum-exp of two matches direct"
    QCheck2.Gen.(pair (float_range 1e-6 1.) (float_range 1e-6 1.))
    (fun (a, b) ->
      let l = Prob.Log_space.add (log a) (log b) in
      Float.abs (exp l -. (a +. b)) < 1e-9)

let test_log_add_neg_infinity () =
  check_float "add neg_inf left" 1.5 (Prob.Log_space.add neg_infinity 1.5);
  check_float "add neg_inf right" 1.5 (Prob.Log_space.add 1.5 neg_infinity);
  check_bool "both neg_inf" true
    (Prob.Log_space.add neg_infinity neg_infinity = neg_infinity)

let test_log_sum () =
  let probs = [ 0.1; 0.2; 0.3; 0.05 ] in
  let l = Prob.Log_space.sum (List.map log probs) in
  check_close 1e-12 "sum" 0.65 (exp l);
  check_bool "empty" true (Prob.Log_space.sum [] = neg_infinity);
  let a = Prob.Log_space.sum_array (Array.of_list (List.map log probs)) in
  check_close 1e-12 "sum_array" 0.65 (exp a)

let test_log_extreme () =
  (* Values that would underflow in linear space. *)
  let l = Prob.Log_space.add (-800.) (-800.) in
  check_close 1e-9 "underflow-free" (-800. +. log 2.) l

let test_of_to_prob () =
  check_float "roundtrip" 0.25 (Prob.Log_space.to_prob (Prob.Log_space.of_prob 0.25));
  check_bool "zero" true (Prob.Log_space.of_prob 0. = neg_infinity)

(* ---- Kahan ---------------------------------------------------------- *)

let test_kahan_simple () =
  check_float "sum_list" 6. (Prob.Kahan.sum_list [ 1.; 2.; 3. ]);
  check_float "sum_array" 6. (Prob.Kahan.sum_array [| 1.; 2.; 3. |])

let test_kahan_pathological () =
  (* Naive summation loses the ones entirely. *)
  check_float "compensated" 2. (Prob.Kahan.sum_list [ 1.; 1e100; 1.; -1e100 ])

let test_kahan_many_small () =
  let n = 1_000_000 in
  let total = Prob.Kahan.sum_array (Array.make n 0.1) in
  check_close 1e-6 "1e6 x 0.1" (float_of_int n *. 0.1) total

let test_kahan_incremental () =
  let acc = Prob.Kahan.create () in
  for _ = 1 to 10 do
    Prob.Kahan.add acc 0.1
  done;
  check_close 1e-12 "incremental" 1.0 (Prob.Kahan.total acc)

(* ---- Distributions -------------------------------------------------- *)

let test_erf_known () =
  check_float "erf 0" 0. (Prob.Distributions.erf 0.);
  check_close 1e-6 "erf 1" 0.8427008 (Prob.Distributions.erf 1.);
  check_close 1e-6 "erf -1" (-0.8427008) (Prob.Distributions.erf (-1.));
  check_close 1e-6 "erf 2" 0.9953223 (Prob.Distributions.erf 2.)

let test_gaussian_cdf () =
  check_close 1e-7 "cdf at mean" 0.5 (Prob.Distributions.gaussian_cdf ~mu:3. ~sigma:2. 3.);
  check_close 1e-4 "cdf one sigma" 0.8413
    (Prob.Distributions.gaussian_cdf ~mu:0. ~sigma:1. 1.)

let test_gaussian_pdf () =
  check_close 1e-9 "pdf peak" (1. /. sqrt (2. *. Float.pi))
    (Prob.Distributions.gaussian_pdf ~mu:0. ~sigma:1. 0.)

let test_clamped_range =
  qtest "clamped draws stay in range" QCheck2.Gen.(int_range 0 5000) (fun seed ->
      let g = Prob.Rng.create seed in
      let x =
        Prob.Distributions.sample_gaussian_clamped g ~mu:0.7 ~sigma:0.5 ~lo:0.5
          ~hi:0.99
      in
      x >= 0.5 && x <= 0.99)

let test_truncated_range =
  qtest "truncated draws stay in range" QCheck2.Gen.(int_range 0 5000) (fun seed ->
      let g = Prob.Rng.create seed in
      let x =
        Prob.Distributions.sample_gaussian_truncated g ~mu:0.05 ~sigma:0.45
          ~lo:0.01 ~hi:infinity
      in
      x >= 0.01)

let test_truncated_invalid () =
  let g = Prob.Rng.create 0 in
  Alcotest.check_raises "lo >= hi"
    (Invalid_argument "Distributions.sample_gaussian_truncated") (fun () ->
      ignore (Prob.Distributions.sample_gaussian_truncated g ~mu:0. ~sigma:1. ~lo:1. ~hi:1.))

let test_beta_moments () =
  let g = Prob.Rng.create 31 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Prob.Distributions.sample_beta g ~a:2. ~b:5.) in
  Array.iter (fun x -> if x < 0. || x > 1. then Alcotest.fail "beta out of range") xs;
  check_close 0.01 "beta mean" (2. /. 7.) (Prob.Stats.mean xs)

let test_categorical () =
  let g = Prob.Rng.create 41 in
  check_int "point mass" 2 (Prob.Distributions.sample_categorical g [| 0.; 0.; 1.; 0. |]);
  let counts = Array.make 3 0 in
  let n = 30_000 in
  for _ = 1 to n do
    let i = Prob.Distributions.sample_categorical g [| 1.; 2.; 1. |] in
    counts.(i) <- counts.(i) + 1
  done;
  check_close 0.02 "weight 2 of 4" 0.5 (float_of_int counts.(1) /. float_of_int n)

let test_categorical_invalid () =
  let g = Prob.Rng.create 0 in
  Alcotest.check_raises "empty" (Invalid_argument "Distributions.sample_categorical: empty")
    (fun () -> ignore (Prob.Distributions.sample_categorical g [||]));
  Alcotest.check_raises "zero mass"
    (Invalid_argument "Distributions.sample_categorical: zero mass") (fun () ->
      ignore (Prob.Distributions.sample_categorical g [| 0.; 0. |]))

(* ---- Poisson_binomial ------------------------------------------------ *)

let prob_gen = QCheck2.Gen.float_range 0. 1.

let test_pb_sums_to_one =
  qtest "pmf sums to 1" QCheck2.Gen.(list_size (int_range 0 30) prob_gen) (fun ps ->
      let ps = Array.of_list ps in
      Float.abs (Prob.Kahan.sum_array (Prob.Poisson_binomial.pmf ps) -. 1.) < 1e-9)

let binom n k =
  let rec go acc i =
    if i > k then acc else go (acc *. float_of_int (n - i + 1) /. float_of_int i) (i + 1)
  in
  go 1. 1

let test_pb_matches_binomial () =
  let p = 0.3 and n = 10 in
  let pmf = Prob.Poisson_binomial.pmf (Array.make n p) in
  for k = 0 to n do
    check_close 1e-12
      (Printf.sprintf "k=%d" k)
      (binom n k *. (p ** float_of_int k) *. ((1. -. p) ** float_of_int (n - k)))
      pmf.(k)
  done

(* Brute-force reference: enumerate all outcome vectors. *)
let brute_force_pmf ps =
  let n = Array.length ps in
  let pmf = Array.make (n + 1) 0. in
  for mask = 0 to (1 lsl n) - 1 do
    let prob = ref 1. and successes = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        prob := !prob *. ps.(i);
        incr successes
      end
      else prob := !prob *. (1. -. ps.(i))
    done;
    pmf.(!successes) <- pmf.(!successes) +. !prob
  done;
  pmf

let test_pb_matches_brute_force =
  qtest ~count:100 "pmf matches enumeration"
    QCheck2.Gen.(list_size (int_range 1 8) prob_gen)
    (fun ps ->
      let ps = Array.of_list ps in
      let dp = Prob.Poisson_binomial.pmf ps in
      let bf = brute_force_pmf ps in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) dp bf)

let test_pb_tail_and_cdf () =
  let ps = [| 0.9; 0.6; 0.6 |] in
  check_float "tail 0" 1. (Prob.Poisson_binomial.tail_at_least ps 0);
  check_float "tail beyond" 0. (Prob.Poisson_binomial.tail_at_least ps 4);
  check_close 1e-12 "tail 3" (0.9 *. 0.6 *. 0.6) (Prob.Poisson_binomial.tail_at_least ps 3);
  check_close 1e-12 "cdf complement" 1.
    (Prob.Poisson_binomial.cdf ps 1 +. Prob.Poisson_binomial.tail_at_least ps 2)

let test_pb_moments () =
  let ps = [| 0.2; 0.5; 0.7 |] in
  check_float "expectation" 1.4 (Prob.Poisson_binomial.expectation ps);
  check_close 1e-12 "variance"
    ((0.2 *. 0.8) +. (0.5 *. 0.5) +. (0.7 *. 0.3))
    (Prob.Poisson_binomial.variance ps)

let test_pb_majority () =
  (* Odd jury (0.9, 0.6, 0.6): at least two correct. *)
  let ps = [| 0.9; 0.6; 0.6 |] in
  let expected =
    (0.9 *. 0.6 *. 0.6)
    +. (0.9 *. 0.6 *. 0.4)
    +. (0.9 *. 0.4 *. 0.6)
    +. (0.1 *. 0.6 *. 0.6)
  in
  check_close 1e-12 "odd majority" expected (Prob.Poisson_binomial.majority_correct ps);
  (* Even jury of coins: > half wins, tie = coin. *)
  check_close 1e-12 "even tie coin" 0.5
    (Prob.Poisson_binomial.majority_correct [| 0.5; 0.5 |]);
  check_float "empty" 0.5 (Prob.Poisson_binomial.majority_correct [||])

let test_pb_invalid () =
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Poisson_binomial: probability outside [0, 1]") (fun () ->
      ignore (Prob.Poisson_binomial.pmf [| 1.2 |]))

(* ---- Poisson_binomial.Incremental ------------------------------------ *)

let close_pmf a b = Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) a b

let test_pb_incremental_matches_batch =
  (* A random add/remove interleaving must land on the batch pmf of the
     surviving multiset. *)
  qtest ~count:200 "incremental pmf = batch pmf after add/remove interleaving"
    QCheck2.Gen.(pair (list_size (int_range 1 10) prob_gen) (list_size (int_range 1 10) bool))
    (fun (ps, drops) ->
      let t = Prob.Poisson_binomial.Incremental.create () in
      let survivors = ref [] in
      List.iteri
        (fun i p ->
          Prob.Poisson_binomial.Incremental.add t p;
          let drop = match List.nth_opt drops i with Some d -> d | None -> false in
          if drop then Prob.Poisson_binomial.Incremental.remove t p
          else survivors := p :: !survivors)
        ps;
      let batch = Prob.Poisson_binomial.pmf (Array.of_list (List.rev !survivors)) in
      Prob.Poisson_binomial.Incremental.size t = List.length !survivors
      && close_pmf (Prob.Poisson_binomial.Incremental.pmf t) batch)

let test_pb_incremental_tail =
  qtest ~count:100 "incremental tail = batch tail"
    QCheck2.Gen.(list_size (int_range 1 10) prob_gen)
    (fun ps ->
      let t = Prob.Poisson_binomial.Incremental.create () in
      List.iter (Prob.Poisson_binomial.Incremental.add t) ps;
      let arr = Array.of_list ps in
      let n = Array.length arr in
      let ok = ref true in
      for k = 0 to n + 1 do
        if
          Float.abs
            (Prob.Poisson_binomial.Incremental.tail_at_least t k
            -. Prob.Poisson_binomial.tail_at_least arr k)
          > 1e-9
        then ok := false
      done;
      !ok)

let test_pb_incremental_edges () =
  let t = Prob.Poisson_binomial.Incremental.create () in
  check_float "empty pmf" 1. (Prob.Poisson_binomial.Incremental.pmf t).(0);
  (* Degenerate trials: p = 1 shifts the pmf, p = 0 leaves it; both must
     deconvolve back out. *)
  Prob.Poisson_binomial.Incremental.add t 1.0;
  Prob.Poisson_binomial.Incremental.add t 0.0;
  Prob.Poisson_binomial.Incremental.add t 0.7;
  check_close 1e-12 "certain trial shifts" 0.7
    (Prob.Poisson_binomial.Incremental.tail_at_least t 2);
  Prob.Poisson_binomial.Incremental.remove t 1.0;
  Prob.Poisson_binomial.Incremental.remove t 0.0;
  check_close 1e-12 "back to single trial" 0.7
    (Prob.Poisson_binomial.Incremental.tail_at_least t 1);
  Alcotest.check_raises "absent trial"
    (Invalid_argument "Poisson_binomial.Incremental.remove: trial not present")
    (fun () -> Prob.Poisson_binomial.Incremental.remove t 0.123);
  Alcotest.check_raises "range"
    (Invalid_argument "Poisson_binomial.Incremental.add: probability outside [0, 1]")
    (fun () -> Prob.Poisson_binomial.Incremental.add t 1.5)

let test_pb_incremental_periodic_rebuild () =
  let t = Prob.Poisson_binomial.Incremental.create () in
  Prob.Poisson_binomial.Incremental.add t 0.8;
  Prob.Poisson_binomial.Incremental.add t 0.6;
  for _ = 1 to 600 do
    Prob.Poisson_binomial.Incremental.add t 0.7;
    Prob.Poisson_binomial.Incremental.remove t 0.7
  done;
  check_bool "periodic rebuild triggered" true
    (Prob.Poisson_binomial.Incremental.rebuilds t >= 1);
  check_bool "pmf survives the storm" true
    (close_pmf
       (Prob.Poisson_binomial.Incremental.pmf t)
       (Prob.Poisson_binomial.pmf [| 0.8; 0.6 |]))

(* ---- Stats ----------------------------------------------------------- *)

let test_stats_known () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Prob.Stats.mean xs);
  check_close 1e-12 "variance" (32. /. 7.) (Prob.Stats.variance xs);
  let s = Prob.Stats.summarize xs in
  check_float "min" 2. s.Prob.Stats.min;
  check_float "max" 9. s.Prob.Stats.max;
  check_int "count" 8 s.Prob.Stats.count

let test_stats_empty () =
  check_bool "mean nan" true (Float.is_nan (Prob.Stats.mean [||]));
  check_float "variance 0 for singleton" 0. (Prob.Stats.variance [| 5. |])

let test_quantile () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_float "median interpolated" 2.5 (Prob.Stats.median xs);
  check_float "q0" 1. (Prob.Stats.quantile xs 0.);
  check_float "q1" 4. (Prob.Stats.quantile xs 1.);
  check_float "q25" 1.75 (Prob.Stats.quantile xs 0.25);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.quantile: empty data")
    (fun () -> ignore (Prob.Stats.quantile [||] 0.5));
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.quantile: p outside [0, 1]") (fun () ->
      ignore (Prob.Stats.quantile xs 1.5))

let test_quantile_nan () =
  (* [Float.compare] gives a total order, so NaN cannot scramble the
     sort silently — it lands at index 0 and is rejected outright. *)
  Alcotest.check_raises "NaN in data"
    (Invalid_argument "Stats.quantile: NaN in data") (fun () ->
      ignore (Prob.Stats.quantile [| 3.; nan; 1.; 2. |] 0.5));
  Alcotest.check_raises "all-NaN data"
    (Invalid_argument "Stats.quantile: NaN in data") (fun () ->
      ignore (Prob.Stats.quantile [| nan |] 0.5));
  Alcotest.check_raises "NaN p"
    (Invalid_argument "Stats.quantile: p outside [0, 1]") (fun () ->
      ignore (Prob.Stats.quantile [| 1.; 2. |] nan));
  (* Signed zeros and infinities still sort correctly under the
     monomorphic compare. *)
  check_float "neg-zero median" 0. (Prob.Stats.median [| 0.; -0.; 0. |]);
  check_float "infinities q0" neg_infinity
    (Prob.Stats.quantile [| infinity; 1.; neg_infinity |] 0.);
  check_float "infinities q1" infinity
    (Prob.Stats.quantile [| infinity; 1.; neg_infinity |] 1.)

let test_confidence_interval () =
  let xs = Array.make 100 3. in
  let lo, hi = Prob.Stats.confidence_interval_95 xs in
  check_float "degenerate lo" 3. lo;
  check_float "degenerate hi" 3. hi

(* ---- Histogram ------------------------------------------------------- *)

let test_histogram_basic () =
  let h = Prob.Histogram.create ~lo:0. ~hi:10. ~buckets:5 in
  List.iter (Prob.Histogram.add h) [ 0.5; 1.; 3.; 9.9; 10.5; -1. ];
  let counts = Prob.Histogram.counts h in
  check_int "first bucket (incl. below-lo)" 3 counts.(0);
  check_int "second bucket" 1 counts.(1);
  check_int "last bucket (incl. above-hi)" 2 counts.(4);
  check_int "total" 6 (Prob.Histogram.total h);
  let lo, hi = Prob.Histogram.bucket_bounds h 1 in
  check_float "bounds lo" 2. lo;
  check_float "bounds hi" 4. hi

let test_histogram_invalid () =
  Alcotest.check_raises "buckets" (Invalid_argument "Histogram.create: buckets <= 0")
    (fun () -> ignore (Prob.Histogram.create ~lo:0. ~hi:1. ~buckets:0));
  Alcotest.check_raises "range" (Invalid_argument "Histogram.create: hi <= lo")
    (fun () -> ignore (Prob.Histogram.create ~lo:1. ~hi:1. ~buckets:3))

let test_ranges () =
  let r = Prob.Histogram.Ranges.create [ 0.01; 0.1; 1. ] in
  List.iter (Prob.Histogram.Ranges.add r) [ 0.; 0.01; 0.05; 0.5; 2.; 100. ];
  Alcotest.(check (array int)) "counts" [| 2; 1; 1; 2 |] (Prob.Histogram.Ranges.counts r);
  check_int "labels" 4 (List.length (Prob.Histogram.Ranges.labels r))

let test_ranges_invalid () =
  Alcotest.check_raises "not increasing"
    (Invalid_argument "Histogram.Ranges.create: edges not increasing") (fun () ->
      ignore (Prob.Histogram.Ranges.create [ 1.; 1. ]))

let () =
  Alcotest.run "prob"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split decorrelates" `Quick test_rng_split_decorrelates;
          test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "int draws allocate nothing" `Quick
            test_rng_int_allocation_free;
          Alcotest.test_case "unit_float range" `Quick test_rng_unit_float_range;
          Alcotest.test_case "int uniform" `Slow test_rng_int_uniform;
          Alcotest.test_case "bernoulli frequency" `Slow test_rng_bernoulli_frequency;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "shuffle multiset" `Quick test_rng_shuffle_multiset;
          Alcotest.test_case "shuffle moves" `Quick test_rng_shuffle_moves;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_rng_sample_without_replacement;
          Alcotest.test_case "sample full" `Quick test_rng_sample_full;
          Alcotest.test_case "choose" `Quick test_rng_choose;
        ] );
      ( "log_space",
        [
          Alcotest.test_case "logit known" `Quick test_logit_known;
          Alcotest.test_case "logit invalid" `Quick test_logit_invalid;
          test_log_add;
          Alcotest.test_case "add neg_infinity" `Quick test_log_add_neg_infinity;
          Alcotest.test_case "sum" `Quick test_log_sum;
          Alcotest.test_case "extreme" `Quick test_log_extreme;
          Alcotest.test_case "of/to prob" `Quick test_of_to_prob;
        ] );
      ( "kahan",
        [
          Alcotest.test_case "simple" `Quick test_kahan_simple;
          Alcotest.test_case "pathological" `Quick test_kahan_pathological;
          Alcotest.test_case "many small" `Slow test_kahan_many_small;
          Alcotest.test_case "incremental" `Quick test_kahan_incremental;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "erf known" `Quick test_erf_known;
          Alcotest.test_case "gaussian cdf" `Quick test_gaussian_cdf;
          Alcotest.test_case "gaussian pdf" `Quick test_gaussian_pdf;
          test_clamped_range;
          test_truncated_range;
          Alcotest.test_case "truncated invalid" `Quick test_truncated_invalid;
          Alcotest.test_case "beta moments" `Slow test_beta_moments;
          Alcotest.test_case "categorical" `Slow test_categorical;
          Alcotest.test_case "categorical invalid" `Quick test_categorical_invalid;
        ] );
      ( "poisson_binomial",
        [
          test_pb_sums_to_one;
          Alcotest.test_case "matches binomial" `Quick test_pb_matches_binomial;
          test_pb_matches_brute_force;
          Alcotest.test_case "tail and cdf" `Quick test_pb_tail_and_cdf;
          Alcotest.test_case "moments" `Quick test_pb_moments;
          Alcotest.test_case "majority" `Quick test_pb_majority;
          Alcotest.test_case "invalid" `Quick test_pb_invalid;
          test_pb_incremental_matches_batch;
          test_pb_incremental_tail;
          Alcotest.test_case "incremental edges" `Quick test_pb_incremental_edges;
          Alcotest.test_case "incremental periodic rebuild" `Quick
            test_pb_incremental_periodic_rebuild;
        ] );
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick test_stats_known;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "quantile NaN rejection" `Quick test_quantile_nan;
          Alcotest.test_case "confidence interval" `Quick test_confidence_interval;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basic" `Quick test_histogram_basic;
          Alcotest.test_case "invalid" `Quick test_histogram_invalid;
          Alcotest.test_case "ranges" `Quick test_ranges;
          Alcotest.test_case "ranges invalid" `Quick test_ranges_invalid;
        ] );
    ]
