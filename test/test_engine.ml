(* Tests for the task-model engine: task validation, pool lowering, the
   model-polymorphic objective and its accumulators, and the equivalence
   of ℓ=2 symmetric confusion-matrix pools with the same workers given as
   scalars (scores within one ulp, juries identical across seeds). *)

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let within_one_ulp a b =
  a = b
  || Int64.abs (Int64.sub (Int64.bits_of_float a) (Int64.bits_of_float b))
     <= 1L

let expect_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what

let symmetric_confusion ~id ~quality ~cost =
  Workers.Confusion.make ~id
    ~matrix:
      [| [| quality; 1. -. quality |]; [| 1. -. quality; quality |] |]
    ~cost ()

(* A fixed 3-label pool with diagonal-dominant workers. *)
let confusions3 =
  Array.init 6 (fun i ->
      let d = 0.55 +. (0.05 *. float_of_int i) in
      let off = (1. -. d) /. 2. in
      Workers.Confusion.make ~id:i
        ~matrix:[| [| d; off; off |]; [| off; d; off |]; [| off; off; d |] |]
        ~cost:(1. +. float_of_int (i mod 3))
        ())

(* ---- Task --------------------------------------------------------------- *)

let test_task_validation () =
  expect_invalid "single-entry prior" (fun () ->
      Engine.Task.make ~prior:[| 1. |]);
  expect_invalid "prior not summing to 1" (fun () ->
      Engine.Task.make ~prior:[| 0.4; 0.4 |]);
  expect_invalid "negative entry" (fun () ->
      Engine.Task.make ~prior:[| -0.2; 1.2 |]);
  expect_invalid "alpha out of range" (fun () ->
      Engine.Task.binary ~alpha:1.5);
  let t = Engine.Task.make ~prior:[| 0.2; 0.5; 0.3 |] in
  check_int "labels" 3 (Engine.Task.labels t);
  check_bool "not binary" false (Engine.Task.is_binary t);
  expect_invalid "alpha of a 3-label task" (fun () -> Engine.Task.alpha t)

let test_task_empty_score () =
  List.iter
    (fun alpha ->
      let t = Engine.Task.binary ~alpha in
      check_bool
        (Printf.sprintf "empty score bitwise at alpha=%g" alpha)
        true
        (Engine.Task.empty_score t = Float.max alpha (1. -. alpha)))
    [ 0.5; 0.3; 0.77; 0.05 ];
  let t = Engine.Task.make ~prior:[| 0.2; 0.5; 0.3 |] in
  check_float "3-label empty score is the mode" 0.5 (Engine.Task.empty_score t)

let test_task_fingerprint () =
  let a = Engine.Task.binary ~alpha:0.3
  and b = Engine.Task.make ~prior:[| 0.3; 0.7 |]
  and c = Engine.Task.make ~prior:[| 0.3000000001; 0.6999999999 |] in
  check_bool "equal tasks fingerprint equally" true
    (Engine.Task.fingerprint a = Engine.Task.fingerprint b);
  check_bool "different priors fingerprint differently" false
    (Engine.Task.fingerprint a = Engine.Task.fingerprint c)

(* ---- Pool lowering ------------------------------------------------------ *)

let test_pool_lowering () =
  let confusions =
    Array.init 4 (fun i ->
        symmetric_confusion ~id:i
          ~quality:(0.6 +. (0.08 *. float_of_int i))
          ~cost:(1. +. float_of_int i))
  in
  let epool = Engine.Pool.of_confusions confusions in
  (match Engine.Pool.to_workers epool with
  | None -> Alcotest.fail "symmetric 2x2 pool did not lower to Binary"
  | Some pool ->
      check_int "size preserved" 4 (Workers.Pool.size pool);
      let qs = Workers.Pool.qualities pool in
      Array.iteri
        (fun i q ->
          check_bool
            (Printf.sprintf "quality %d recovered bitwise" i)
            true
            (q = 0.6 +. (0.08 *. float_of_int i)))
        qs);
  check_int "labels" 2 (Engine.Pool.labels epool)

let test_pool_asymmetric_stays_matrix () =
  let c =
    Workers.Confusion.make ~id:0
      ~matrix:[| [| 0.9; 0.1 |]; [| 0.3; 0.7 |] |]
      ~cost:1. ()
  in
  let epool = Engine.Pool.of_confusions [| c |] in
  check_bool "asymmetric 2x2 stays Matrix" true
    (Engine.Pool.to_workers epool = None);
  check_int "labels" 2 (Engine.Pool.labels epool)

let test_pool_mixed_labels () =
  let two = symmetric_confusion ~id:0 ~quality:0.8 ~cost:1. in
  expect_invalid "mixed label counts" (fun () ->
      Engine.Pool.of_confusions [| two; confusions3.(0) |])

let test_pool_sub () =
  let epool = Engine.Pool.of_confusions confusions3 in
  expect_invalid "flag length mismatch" (fun () ->
      Engine.Pool.sub epool [| true; false |]);
  let subset =
    Engine.Pool.sub epool [| true; false; true; false; false; true |]
  in
  check_int "subset size" 3 (Engine.Pool.size subset);
  check_bool "Matrix subset stays Matrix" true
    (Engine.Pool.to_workers subset = None);
  Alcotest.(check (list int)) "ids preserved" [ 0; 2; 5 ]
    (Engine.Pool.ids subset)

(* ---- Objective ---------------------------------------------------------- *)

let test_objective_empty () =
  let empty = Engine.Pool.of_workers (Workers.Pool.of_list []) in
  List.iter
    (fun task ->
      let expected = Engine.Task.empty_score task in
      check_float "bucket empty" expected
        (Engine.Objective.score (Engine.Objective.bv_bucket ()) ~task empty);
      check_float "exact empty" expected
        (Engine.Objective.score Engine.Objective.bv_exact ~task empty))
    [ Engine.Task.binary ~alpha:0.7; Engine.Task.make ~prior:[| 0.2; 0.5; 0.3 |] ]

let test_objective_label_mismatch () =
  let binary_pool =
    Engine.Pool.of_workers
      (Workers.Pool.of_list
         [ Workers.Worker.make ~id:0 ~quality:0.8 ~cost:1. () ])
  in
  let matrix_pool = Engine.Pool.of_confusions confusions3 in
  let three = Engine.Task.make ~prior:[| 0.2; 0.5; 0.3 |] in
  let two = Engine.Task.binary ~alpha:0.5 in
  expect_invalid "3-label task on binary pool" (fun () ->
      Engine.Objective.score (Engine.Objective.bv_bucket ()) ~task:three
        binary_pool);
  expect_invalid "2-label task on 3-label pool" (fun () ->
      Engine.Objective.score (Engine.Objective.bv_bucket ()) ~task:two
        matrix_pool)

let test_objective_exact_vs_bucket_multiclass () =
  (* Small 3-label pool: the bucket estimator should land near the exact
     enumeration (same sanity bound the binary stack is tested with). *)
  let epool = Engine.Pool.sub (Engine.Pool.of_confusions confusions3)
      [| true; true; true; false; false; false |]
  in
  let task = Engine.Task.make ~prior:[| 0.2; 0.5; 0.3 |] in
  let exact = Engine.Objective.score Engine.Objective.bv_exact ~task epool in
  let bucket =
    Engine.Objective.score (Engine.Objective.bv_bucket ()) ~task epool
  in
  Alcotest.(check (float 0.05)) "bucket near exact" exact bucket

let test_objective_accumulators () =
  let workers =
    Workers.Pool.of_list
      (List.mapi
         (fun id q -> Workers.Worker.make ~id ~quality:q ~cost:1. ())
         [ 0.8; 0.65; 0.7 ])
  in
  let binary = Engine.Pool.of_workers workers in
  let task = Engine.Task.binary ~alpha:0.4 in
  let three = Engine.Task.make ~prior:[| 0.2; 0.5; 0.3 |] in
  let matrix = Engine.Pool.of_confusions confusions3 in
  let has objective ~task pool =
    Engine.Objective.accumulator objective ~task pool <> None
  in
  check_bool "from-scratch objective: none" false
    (has (Engine.Objective.bv_bucket ()) ~task binary);
  check_bool "incremental objective, binary pool" true
    (has (Engine.Objective.bv_bucket_incremental ()) ~task binary);
  check_bool "incremental objective, matrix pool: none" false
    (has (Engine.Objective.bv_bucket_incremental ()) ~task:three matrix);
  List.iter
    (fun (what, objective, task, pool) ->
      check_bool (what ^ ": the predicate agrees") (has objective ~task pool)
        (Engine.Objective.incremental objective pool))
    [
      ("from scratch", Engine.Objective.bv_bucket (), task, binary);
      ("incremental", Engine.Objective.bv_bucket_incremental (), task, binary);
      ("incremental on ℓ=3", Engine.Objective.bv_bucket_incremental (), three, matrix);
      ("MV incremental", Engine.Objective.mv_closed_incremental, task, binary);
      ("MV closed", Engine.Objective.mv_closed, task, binary);
    ];
  (match
     Engine.Objective.accumulator Engine.Objective.mv_closed_incremental ~task
       binary
   with
  | None -> Alcotest.fail "MV accumulator expected"
  | Some acc ->
      let closed positions =
        Engine.Objective.score Engine.Objective.mv_closed ~task
          (Engine.Pool.of_workers (Workers.Pool.sub workers positions))
      in
      acc.add 0;
      acc.add 2;
      check_float "accumulator = closed form" (closed [ 0; 2 ]) (acc.value ());
      acc.remove 0;
      check_float "after removal" (closed [ 2 ]) (acc.value ()));
  expect_invalid "mv_closed on a matrix pool" (fun () ->
      Engine.Objective.score Engine.Objective.mv_closed ~task:three matrix)

(* Score keys must tell bucket counts apart: the scores differ. *)
let test_objective_ids () =
  let id = Engine.Objective.id in
  let ids =
    [
      id (Engine.Objective.bv_bucket ~num_buckets:20 ());
      id (Engine.Objective.bv_bucket ~num_buckets:50 ());
      id (Engine.Objective.bv_bucket_incremental ~num_buckets:20 ());
      id (Engine.Objective.bv_bucket_incremental ~num_buckets:50 ());
      id Engine.Objective.mv_closed;
      id Engine.Objective.mv_closed_incremental;
      id Engine.Objective.bv_exact;
    ]
  in
  check_int "all distinct" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  Alcotest.(check string)
    "the default bucket count is spelled out"
    (id (Engine.Objective.bv_bucket_incremental
           ~num_buckets:Jq.Bucket.default_num_buckets ()))
    (id (Engine.Objective.bv_bucket_incremental ()))

(* ---- ℓ=2 equivalence with scalar pools ---------------------------------- *)

let case_gen =
  QCheck2.Gen.(
    int_range 1 12 >>= fun n ->
    array_size (return n)
      (pair (float_range 0.05 0.95) (float_range 0.1 5.))
    >>= fun specs ->
    float_range 0.05 0.95 >>= fun alpha ->
    int_bound 1_000_000 >>= fun seed -> return (specs, alpha, seed))

let equivalence_prop (specs, alpha, seed) =
  let workers =
    Workers.Pool.of_list
      (List.mapi
         (fun id (q, c) -> Workers.Worker.make ~id ~quality:q ~cost:c ())
         (Array.to_list specs))
  in
  let confusions =
    Array.mapi
      (fun id (q, c) -> symmetric_confusion ~id ~quality:q ~cost:c)
      specs
  in
  let epool = Engine.Pool.of_confusions confusions in
  (match Engine.Pool.to_workers epool with
  | None -> Alcotest.fail "did not lower"
  | Some lowered ->
      let qs = Workers.Pool.qualities lowered in
      Array.iteri
        (fun i (q, _) ->
          if not (within_one_ulp q qs.(i)) then
            Alcotest.failf "quality %d drifted: %h vs %h" i q qs.(i))
        specs);
  let task = Engine.Task.binary ~alpha in
  let engine_score =
    Engine.Objective.score (Engine.Objective.bv_bucket ()) ~task epool
  in
  let legacy_score =
    Jq.Bucket.estimate ~alpha (Workers.Pool.qualities workers)
  in
  if not (within_one_ulp engine_score legacy_score) then
    Alcotest.failf "jq scores disagree: %h vs %h" engine_score legacy_score;
  let budget = 0.5 *. Engine.Pool.total_cost epool in
  let engine_result =
    Jsp.Annealing.solve_engine
      ~rng:(Prob.Rng.create seed)
      ~task ~budget epool
  in
  let legacy_result =
    Jsp.Annealing.solve_engine
      ~rng:(Prob.Rng.create seed)
      ~task ~budget (Engine.Pool.of_workers workers)
  in
  let engine_ids = Engine.Pool.ids engine_result.Jsp.Solver.jury in
  let legacy_ids = Engine.Pool.ids legacy_result.Jsp.Solver.jury in
  if engine_ids <> legacy_ids then
    Alcotest.failf "juries disagree: {%s} vs {%s}"
      (String.concat "," (List.map string_of_int engine_ids))
      (String.concat "," (List.map string_of_int legacy_ids));
  within_one_ulp engine_result.Jsp.Solver.score
    legacy_result.Jsp.Solver.score

(* ---- Annealing over the engine ------------------------------------------ *)

let test_engine_matrix_determinism () =
  let epool = Engine.Pool.of_confusions confusions3 in
  let task = Engine.Task.make ~prior:[| 0.2; 0.5; 0.3 |] in
  let budget = 4. in
  let solve () =
    Jsp.Annealing.solve_engine ~rng:(Prob.Rng.create 7) ~task ~budget epool
  in
  let a = solve () and b = solve () in
  Alcotest.(check (list int)) "same jury" (Engine.Pool.ids a.Jsp.Solver.jury)
    (Engine.Pool.ids b.Jsp.Solver.jury);
  check_bool "same score bitwise" true
    (a.Jsp.Solver.score = b.Jsp.Solver.score);
  check_bool "feasible" true
    (Engine.Pool.total_cost a.Jsp.Solver.jury <= budget);
  check_bool "no worse than the empty jury" true
    (a.Jsp.Solver.score >= Engine.Task.empty_score task)

(* One caller-owned memo shared across solves that disagree on alpha,
   budget and seed: salted keys must keep them from observing each other
   (satellite: sharing is safe by construction). *)
let test_memo_sharing_binary () =
  let pool =
    Workers.Pool.of_list
      (List.init 6 (fun id ->
           Workers.Worker.make ~id
             ~quality:(0.55 +. (0.06 *. float_of_int id))
             ~cost:(1. +. float_of_int (id mod 3))
             ()))
  in
  let memo = Jsp.Objective_cache.create ~n:(Workers.Pool.size pool) () in
  let run ?memo ~alpha ~budget ~seed () =
    Jsp.Annealing.solve_engine ?memo ~rng:(Prob.Rng.create seed)
      ~task:(Engine.Task.binary ~alpha) ~budget (Engine.Pool.of_workers pool)
  in
  let check_same what (a : _ Jsp.Solver.result) (b : _ Jsp.Solver.result) =
    Alcotest.(check (list int))
      (what ^ ": jury") (Engine.Pool.ids a.jury) (Engine.Pool.ids b.jury);
    check_bool (what ^ ": score bitwise") true (a.score = b.score)
  in
  let shared1 = run ~memo ~alpha:0.5 ~budget:6. ~seed:1 () in
  let fresh1 = run ~alpha:0.5 ~budget:6. ~seed:1 () in
  check_same "first request" shared1 fresh1;
  let shared2 = run ~memo ~alpha:0.3 ~budget:4. ~seed:2 () in
  let fresh2 = run ~alpha:0.3 ~budget:4. ~seed:2 () in
  check_same "different alpha/budget/seed" shared2 fresh2;
  let shared3 = run ~memo ~alpha:0.5 ~budget:5.5 ~seed:1 () in
  let fresh3 = run ~alpha:0.5 ~budget:5.5 ~seed:1 () in
  check_same "different budget only" shared3 fresh3;
  (* Warm replay of the very first request: byte-identical. *)
  let replay = run ~memo ~alpha:0.5 ~budget:6. ~seed:1 () in
  check_same "warm replay" replay shared1

let test_memo_sharing_matrix () =
  let epool = Engine.Pool.of_confusions confusions3 in
  let memo =
    Jsp.Objective_cache.create ~n:(Engine.Pool.size epool) ()
  in
  let run ?memo ~prior ~budget ~seed () =
    Jsp.Annealing.solve_engine ?memo
      ~rng:(Prob.Rng.create seed)
      ~task:(Engine.Task.make ~prior)
      ~budget epool
  in
  let check_same what (a : _ Jsp.Solver.result) (b : _ Jsp.Solver.result) =
    Alcotest.(check (list int))
      (what ^ ": jury")
      (Engine.Pool.ids a.jury)
      (Engine.Pool.ids b.jury);
    check_bool (what ^ ": score bitwise") true (a.score = b.score)
  in
  let p1 = [| 0.2; 0.5; 0.3 |] and p2 = [| 0.4; 0.4; 0.2 |] in
  let shared1 = run ~memo ~prior:p1 ~budget:4. ~seed:3 () in
  let fresh1 = run ~prior:p1 ~budget:4. ~seed:3 () in
  check_same "first request" shared1 fresh1;
  let shared2 = run ~memo ~prior:p2 ~budget:5. ~seed:4 () in
  let fresh2 = run ~prior:p2 ~budget:5. ~seed:4 () in
  check_same "different prior/budget/seed" shared2 fresh2;
  let replay = run ~memo ~prior:p1 ~budget:4. ~seed:3 () in
  check_same "warm replay" replay shared1

(* One memo serving the same solve at two bucket counts: the second must
   not read the first's scores.  Same budget and seed, so only the
   objective's identity keeps the two apart. *)
let test_memo_bucket_counts () =
  let check what pool task =
    let memo = Jsp.Objective_cache.create ~n:(Engine.Pool.size pool) () in
    let run ?memo num_buckets =
      Jsp.Annealing.solve_engine ?memo ~num_buckets ~rng:(Prob.Rng.create 5)
        ~task ~budget:8. pool
    in
    ignore (run ~memo 20);
    let shared = run ~memo 50 and fresh = run 50 in
    Alcotest.(check (list int))
      (what ^ ": jury") (Engine.Pool.ids fresh.Jsp.Solver.jury)
      (Engine.Pool.ids shared.Jsp.Solver.jury);
    check_bool (what ^ ": score bitwise") true
      (shared.Jsp.Solver.score = fresh.Jsp.Solver.score);
    check_int (what ^ ": no score read across bucket counts")
      fresh.Jsp.Solver.evaluations shared.Jsp.Solver.evaluations
  in
  check "matrix"
    (Engine.Pool.of_confusions confusions3)
    (Engine.Task.make ~prior:[| 0.2; 0.5; 0.3 |]);
  check "binary"
    (Engine.Pool.of_workers
       (Workers.Pool.of_list
          (List.init 8 (fun id ->
               Workers.Worker.make ~id
                 ~quality:(0.55 +. (0.05 *. float_of_int id))
                 ~cost:(1. +. float_of_int (id mod 3))
                 ()))))
    (Engine.Task.binary ~alpha:0.4)

(* A row-stochastic ℓ×ℓ matrix with row j's diagonal [diagonal.(j)] and
   the rest of each row split by [weights]; distinct diagonals keep a
   2×2 matrix asymmetric, so its pool is not lowered to scalars. *)
let random_confusion ~labels ~id (diagonal, weights, cost) =
  let diagonal = Array.of_list diagonal in
  Workers.Confusion.make ~id
    ~matrix:
      (Array.init labels (fun j ->
           let d = diagonal.(j) in
           let others = Array.of_list (List.filteri (fun k _ -> k <> j) weights) in
           let total = Array.fold_left ( +. ) 0. others in
           let k = ref 0 in
           Array.init labels (fun v ->
               if v = j then d
               else begin
                 let w = others.(!k) in
                 incr k;
                 (1. -. d) *. w /. total
               end)))
    ~cost ()

let solve_params_gen =
  QCheck2.Gen.(
    oneofl [ 1e-2; 1e-3 ] >>= fun epsilon ->
    oneofl [ 1.5; 2.; 3. ] >>= fun cooling ->
    oneofl [ None; Some 3; Some 9 ] >>= fun moves_per_temp ->
    bool >>= fun keep_best ->
    float_range 0.05 0.9 >>= fun share ->
    int_bound 1_000_000 >>= fun seed ->
    return
      ( { Jsp.Annealing.default_params with
          epsilon;
          cooling;
          moves_per_temp;
          keep_best;
        },
        share,
        seed ))

(* A pool scored from scratch with its objective and task: [bv_bucket] on
   a binary pool, or the default objective on a 2- or 3-label matrix
   pool. *)
let pure_case_gen =
  QCheck2.Gen.(
    int_range 1 8 >>= fun n ->
    int_range 1 3 >>= fun kind ->
    let worker labels =
      triple
        (list_size (return labels) (float_range 0.3 0.95))
        (list_size (return labels) (float_range 0.1 1.))
        (float_range 0.5 3.)
    in
    (if kind = 1 then
       array_size (return n) (pair (float_range 0.3 0.95) (float_range 0.5 3.))
       >>= fun specs ->
       float_range 0.1 0.9 >>= fun alpha ->
       return
         ( Engine.Pool.of_workers
             (Workers.Pool.of_list
                (Array.to_list
                   (Array.mapi
                      (fun id (quality, cost) ->
                        Workers.Worker.make ~id ~quality ~cost ())
                      specs))),
           Some (Engine.Objective.bv_bucket ()),
           Engine.Task.binary ~alpha )
     else
       let labels = kind in
       array_size (return n) (worker labels) >>= fun specs ->
       list_size (return labels) (float_range 0.1 1.) >>= fun weights ->
       let total = List.fold_left ( +. ) 0. weights in
       return
         ( Engine.Pool.of_confusions
             (Array.mapi (fun id spec -> random_confusion ~labels ~id spec) specs),
           None,
           Engine.Task.make
             ~prior:(Array.of_list (List.map (fun w -> w /. total) weights)) ))
    >>= fun case ->
    list_size (int_range 0 5) solve_params_gen >>= fun warmers ->
    solve_params_gen >>= fun target -> return (case, warmers, target))

(* Pure scores shared across solves change nothing a solve returns: on a
   table warmed by other solves of the same pool and task, the jury and
   the score are bit-identical to a fresh table's, and no more kernel
   evaluations run.  The solve's cache counters are its own: each of its
   evaluations is one of its misses, whatever the table saw before. *)
let shared_table_prop ((pool, objective, task), warmers, target) =
  let total = Engine.Pool.total_cost pool in
  let solve ?memo (params, share, seed) =
    Jsp.Annealing.solve_engine ~params ?objective ?memo
      ~rng:(Prob.Rng.create seed) ~task ~budget:(share *. total) pool
  in
  let memo = Jsp.Objective_cache.create ~n:(Engine.Pool.size pool) () in
  List.iter (fun w -> ignore (solve ~memo w)) warmers;
  let warm = solve ~memo target and fresh = solve target in
  let objective =
    Option.value objective ~default:(Engine.Objective.bv_bucket_incremental ())
  in
  (not (Engine.Objective.incremental objective pool))
  && Engine.Pool.ids warm.Jsp.Solver.jury = Engine.Pool.ids fresh.Jsp.Solver.jury
  && Int64.bits_of_float warm.Jsp.Solver.score
     = Int64.bits_of_float fresh.Jsp.Solver.score
  && warm.Jsp.Solver.evaluations <= fresh.Jsp.Solver.evaluations
  &&
  match warm.Jsp.Solver.cache with
  | Some c -> c.Jsp.Objective_cache.misses = warm.Jsp.Solver.evaluations
  | None -> false

(* [Multi_jsp.select]'s restarts share one table; the result must be the
   one fresh per-restart tables give: the same runs, in the same order,
   floored by the same greedy scan. *)
let test_multi_jsp_shared_restarts () =
  let prior = [| 0.2; 0.5; 0.3 |] and budget = 5. in
  List.iter
    (fun seed ->
      let shared =
        Jsp.Multi_jsp.select ~restarts:4 ~rng:(Prob.Rng.create seed) ~prior
          ~budget confusions3
      in
      let rng = Prob.Rng.create seed in
      let anneal rng = Jsp.Multi_jsp.anneal ~rng ~prior ~budget confusions3 in
      let first = anneal rng in
      let runs = first :: List.init 3 (fun _ -> anneal (Prob.Rng.split rng)) in
      let best =
        List.fold_left
          (fun best r -> if r.Jsp.Solver.score > best.Jsp.Solver.score then r else best)
          first (List.tl runs)
      in
      let greedy = Jsp.Multi_jsp.greedy ~prior ~budget confusions3 in
      let fresh = if greedy.Jsp.Solver.score > best.Jsp.Solver.score then greedy else best in
      let ids r = Array.to_list (Array.map Workers.Confusion.id r.Jsp.Solver.jury) in
      Alcotest.(check (list int)) "same jury" (ids fresh) (ids shared);
      check_bool "same score bitwise" true
        (shared.Jsp.Solver.score = fresh.Jsp.Solver.score);
      let evaluations =
        List.fold_left (fun n r -> n + r.Jsp.Solver.evaluations)
          greedy.Jsp.Solver.evaluations runs
      in
      check_bool "no more evaluations" true
        (shared.Jsp.Solver.evaluations <= evaluations))
    [ 1; 2; 3; 17 ]

let test_multi_jsp_restarts () =
  Alcotest.check_raises "restarts < 1"
    (Invalid_argument "Multi_jsp.select: restarts < 1") (fun () ->
      ignore
        (Jsp.Multi_jsp.select ~restarts:0
           ~rng:(Prob.Rng.create 1)
           ~prior:[| 0.2; 0.5; 0.3 |]
           ~budget:3. confusions3))

let () =
  Alcotest.run "engine"
    [
      ( "task",
        [
          Alcotest.test_case "validation" `Quick test_task_validation;
          Alcotest.test_case "empty score" `Quick test_task_empty_score;
          Alcotest.test_case "fingerprint" `Quick test_task_fingerprint;
        ] );
      ( "pool",
        [
          Alcotest.test_case "symmetric 2x2 lowers to Binary" `Quick
            test_pool_lowering;
          Alcotest.test_case "asymmetric stays Matrix" `Quick
            test_pool_asymmetric_stays_matrix;
          Alcotest.test_case "mixed labels rejected" `Quick
            test_pool_mixed_labels;
          Alcotest.test_case "sub" `Quick test_pool_sub;
        ] );
      ( "objective",
        [
          Alcotest.test_case "empty pool scores the prior mode" `Quick
            test_objective_empty;
          Alcotest.test_case "label mismatch rejected" `Quick
            test_objective_label_mismatch;
          Alcotest.test_case "bucket near exact (3 labels)" `Quick
            test_objective_exact_vs_bucket_multiclass;
          Alcotest.test_case "accumulators only for binary pools" `Quick
            test_objective_accumulators;
          Alcotest.test_case "ids carry the bucket count" `Quick
            test_objective_ids;
        ] );
      ( "equivalence",
        [
          qtest ~count:60 "l=2 symmetric matrix pools match the binary stack"
            case_gen equivalence_prop;
        ] );
      ( "annealing",
        [
          Alcotest.test_case "matrix solve is deterministic" `Quick
            test_engine_matrix_determinism;
          Alcotest.test_case "shared memo is safe (binary)" `Quick
            test_memo_sharing_binary;
          Alcotest.test_case "shared memo is safe (matrix)" `Quick
            test_memo_sharing_matrix;
          Alcotest.test_case "shared memo keeps bucket counts apart" `Quick
            test_memo_bucket_counts;
          qtest ~count:60 "a warmed score table changes no pure solve"
            pure_case_gen shared_table_prop;
          Alcotest.test_case "select restarts share one table exactly" `Quick
            test_multi_jsp_shared_restarts;
          Alcotest.test_case "select rejects restarts < 1" `Quick
            test_multi_jsp_restarts;
        ] );
    ]
