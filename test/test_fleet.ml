(* Tests for lib/fleet: the price-based shared-pool allocator.

   The load-bearing properties are the allocator's hard guarantees — no
   worker on two juries, budgets charged true costs, the price-based
   result never below the independent-greedy baseline on a full
   re-allocation — plus exact optimality on instances small enough to
   enumerate.  Randomized submit/release interleavings check that the
   delta path preserves the same invariants the full path establishes. *)

let qtest ?(count = 50) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* Light solver settings: tests exercise structure, not anneal quality. *)
let test_config =
  { Fleet.Allocator.default_config with restarts = 1; max_rounds = 3 }

let pool_of rows =
  Engine.Pool.of_workers
    (Workers.Pool.of_list
       (List.mapi
          (fun id (q, c) -> Workers.Worker.make ~id ~quality:q ~cost:c ())
          rows))

let spec ?(tier = 0) ?(target = 0.) ~id ~alpha ~budget () =
  Fleet.Spec.make ~tier ~target ~id ~prior:[| alpha; 1. -. alpha |] ~budget ()

(* ---- generators ----------------------------------------------------- *)

let rows_gen lo hi =
  QCheck2.Gen.(
    int_range lo hi >>= fun n ->
    list_size (return n) (pair (Qgen.float_in 0.55 0.95) (float_range 0.5 3.)))

let spec_params_gen =
  QCheck2.Gen.(
    float_range 0.2 0.8 >>= fun alpha ->
    float_range 0. 8. >>= fun budget ->
    int_range 0 2 >>= fun tier ->
    oneofl [ 0.; 0.7; 0.9 ] >>= fun target ->
    return (alpha, budget, tier, target))

let specs_of params =
  List.mapi
    (fun i (alpha, budget, tier, target) ->
      Fleet.Spec.make ~tier ~target
        ~id:(Printf.sprintf "t%d" i)
        ~prior:[| alpha; 1. -. alpha |]
        ~budget ())
    params

let instance_gen ~workers:(wlo, whi) ~tasks:(tlo, thi) =
  QCheck2.Gen.(
    rows_gen wlo whi >>= fun rows ->
    int_range tlo thi >>= fun k ->
    list_size (return k) spec_params_gen >>= fun params ->
    return (rows, params))

(* Submit everything, then release a random subset in a random-ish order
   (drop every [step]-th resident) — the delta-path interleaving. *)
let ops_gen =
  QCheck2.Gen.(
    instance_gen ~workers:(4, 10) ~tasks:(2, 8) >>= fun inst ->
    int_range 2 4 >>= fun step ->
    bool >>= fun decided ->
    return (inst, step, decided))

(* ---- invariants ------------------------------------------------------ *)

let assert_invariants t =
  let pool = Fleet.Allocator.pool t in
  let n = Engine.Pool.size pool in
  let seen = Array.make (Int.max n 1) false in
  if Fleet.Allocator.violations t <> 0 then failwith "violations <> 0";
  List.iter
    (fun (a : Fleet.Allocator.assignment) ->
      let cost = ref 0. in
      let last = ref (-1) in
      List.iter
        (fun p ->
          if p < 0 || p >= n then failwith "position out of range";
          if p <= !last then failwith "jury not ascending";
          last := p;
          if seen.(p) then failwith "worker on two juries";
          seen.(p) <- true;
          cost := !cost +. Engine.Pool.cost pool p)
        a.jury;
      if Float.abs (!cost -. a.cost) > 1e-9 then failwith "cost mismatch";
      (match Fleet.Allocator.find t ~id:a.id with
      | Some b when b = a -> ()
      | _ -> failwith "find disagrees with assignments"))
    (Fleet.Allocator.assignments t);
  true

let budgets_respected t specs =
  List.for_all
    (fun s ->
      match Fleet.Allocator.find t ~id:(Fleet.Spec.id s) with
      | None -> false
      | Some a -> a.cost <= Fleet.Spec.budget s +. 1e-9)
    specs

(* ---- unit tests ------------------------------------------------------ *)

let test_spec_validation () =
  let ok = spec ~id:"a" ~alpha:0.3 ~budget:4. () in
  check_int "tier default" 0 (Fleet.Spec.tier ok);
  List.iter
    (fun f -> expect_invalid "rejected" (fun () -> ignore (f ())))
    [
      (fun () -> spec ~id:"" ~alpha:0.3 ~budget:4. ());
      (fun () -> spec ~id:"a b" ~alpha:0.3 ~budget:4. ());
      (fun () -> spec ~id:"a=b" ~alpha:0.3 ~budget:4. ());
      (fun () -> spec ~id:"a" ~alpha:0.3 ~budget:(-1.) ());
      (fun () -> spec ~id:"a" ~alpha:0.3 ~budget:Float.infinity ());
      (fun () -> spec ~id:"a" ~alpha:0.3 ~budget:4. ~tier:(-1) ());
      (fun () -> spec ~id:"a" ~alpha:0.3 ~budget:4. ~target:1.5 ());
      (fun () ->
        Fleet.Spec.make ~id:"a" ~prior:[| 0.6; 0.6 |] ~budget:4. ());
    ]

let test_spec_signature () =
  let a = spec ~id:"a" ~alpha:0.3 ~budget:4. () in
  let b = spec ~id:"b" ~alpha:0.3 ~budget:4. () in
  let c = spec ~id:"c" ~alpha:0.3 ~budget:5. () in
  check_bool "id excluded" true
    (Fleet.Spec.signature a = Fleet.Spec.signature b);
  check_bool "budget included" false
    (Fleet.Spec.signature a = Fleet.Spec.signature c);
  let t1 = spec ~id:"z" ~alpha:0.3 ~budget:4. ~tier:1 () in
  check_bool "tier included" false
    (Fleet.Spec.signature a = Fleet.Spec.signature t1);
  check_bool "priority: tier before id" true
    (Fleet.Spec.compare_priority a t1 < 0
    && Fleet.Spec.compare_priority a b < 0)

let test_lifecycle () =
  let pool = pool_of [ (0.9, 1.); (0.8, 1.); (0.7, 1.); (0.6, 1.) ] in
  let t = Fleet.Allocator.create ~config:test_config ~pool ~version:1 () in
  let a = Fleet.Allocator.submit t (spec ~id:"a" ~alpha:0.5 ~budget:2. ()) in
  check_bool "a got a jury" true (a.jury <> []);
  check_int "resident" 1 (Fleet.Allocator.task_count t);
  expect_invalid "duplicate id" (fun () ->
      ignore (Fleet.Allocator.submit t (spec ~id:"a" ~alpha:0.5 ~budget:2. ())));
  expect_invalid "label mismatch" (fun () ->
      ignore
        (Fleet.Allocator.submit t
           (Fleet.Spec.make ~id:"m" ~prior:[| 0.2; 0.3; 0.5 |] ~budget:2. ())));
  check_bool "still consistent after raises" true (assert_invariants t);
  (match Fleet.Allocator.release t ~id:"a" ~decided:true with
  | Some final -> check_bool "final jury returned" true (final.jury = a.jury)
  | None -> Alcotest.fail "release lost the task");
  check_int "gone" 0 (Fleet.Allocator.task_count t);
  check_bool "unknown release" true
    (Fleet.Allocator.release t ~id:"a" ~decided:false = None);
  let st = Fleet.Allocator.stats t in
  check_int "submits" 1 st.submits;
  check_int "releases" 1 st.releases;
  check_int "decides" 1 st.decides

let test_submit_all_order () =
  let pool = pool_of (List.init 6 (fun i -> (0.8, 1. +. float_of_int i))) in
  let t = Fleet.Allocator.create ~config:test_config ~pool ~version:1 () in
  let specs =
    List.init 5 (fun i ->
        spec ~tier:(i mod 2)
          ~id:(Printf.sprintf "s%d" i)
          ~alpha:0.4 ~budget:3. ())
  in
  let out = Fleet.Allocator.submit_all t specs in
  Alcotest.(check (list string))
    "input order preserved"
    (List.map Fleet.Spec.id specs)
    (List.map (fun (a : Fleet.Allocator.assignment) -> a.id) out);
  check_bool "consistent" true (assert_invariants t)

let test_tier_priority () =
  (* One good worker, two tasks that both want it: the tier-0 task must
     hold it — the commit pass (and the exact route) break contention in
     priority order, and tier weights are geometric. *)
  let pool = pool_of [ (0.9, 1.) ] in
  let t = Fleet.Allocator.create ~config:test_config ~pool ~version:1 () in
  ignore
    (Fleet.Allocator.submit_all t
       [
         spec ~id:"low" ~alpha:0.5 ~budget:2. ~tier:2 ();
         spec ~id:"high" ~alpha:0.5 ~budget:2. ~tier:0 ();
       ]);
  (match Fleet.Allocator.find t ~id:"high" with
  | Some a -> check_bool "tier 0 holds the worker" true (a.jury = [ 0 ])
  | None -> Alcotest.fail "high missing");
  match Fleet.Allocator.find t ~id:"low" with
  | Some a -> check_bool "tier 2 starved" true (a.jury = [])
  | None -> Alcotest.fail "low missing"

let test_release_reallocates () =
  (* A tier-0 hog whose budget covers the whole pool: the commit pass
     grants it everything, so the tier-2 task is starved (7 workers,
     above the exact-route cap, so no exhaustive redistribution).
     Releasing the hog must hand workers to the starved survivor via
     the delta path. *)
  let pool = pool_of (List.init 7 (fun _ -> (0.8, 1.))) in
  let t = Fleet.Allocator.create ~config:test_config ~pool ~version:1 () in
  ignore
    (Fleet.Allocator.submit t
       (spec ~id:"hog" ~alpha:0.5 ~budget:20. ~tier:0 ()));
  let starved =
    Fleet.Allocator.submit t
      (spec ~id:"later" ~alpha:0.5 ~budget:20. ~tier:2 ())
  in
  check_bool "pool exhausted" true (starved.jury = []);
  ignore (Fleet.Allocator.release t ~id:"hog" ~decided:true);
  (match Fleet.Allocator.find t ~id:"later" with
  | Some a -> check_bool "freed workers reassigned" true (a.jury <> [])
  | None -> Alcotest.fail "later missing");
  check_bool "consistent" true (assert_invariants t)

let test_set_pool_resync () =
  let pool2 = pool_of [ (0.9, 1.); (0.8, 1.) ] in
  let t = Fleet.Allocator.create ~config:test_config ~pool:pool2 ~version:1 () in
  ignore (Fleet.Allocator.submit t (spec ~id:"a" ~alpha:0.5 ~budget:4. ()));
  (* Same version: no-op. *)
  Fleet.Allocator.set_pool t ~pool:pool2 ~version:1;
  check_int "no resync on same version" 0 (Fleet.Allocator.stats t).resyncs;
  (* New version, 3-label pool: the binary task no longer fits and is
     dropped; the allocator survives and counts the resync. *)
  let pool3 =
    Engine.Pool.of_confusions
      [|
        Workers.Confusion.make ~id:0
          ~matrix:
            [|
              [| 0.8; 0.1; 0.1 |]; [| 0.1; 0.8; 0.1 |]; [| 0.1; 0.1; 0.8 |];
            |]
          ~cost:1. ();
      |]
  in
  Fleet.Allocator.set_pool t ~pool:pool3 ~version:2;
  check_int "resynced" 1 (Fleet.Allocator.stats t).resyncs;
  check_int "mismatched task dropped" 0 (Fleet.Allocator.task_count t);
  check_int "version adopted" 2 (Fleet.Allocator.pool_version t);
  check_bool "consistent" true (assert_invariants t)

(* ---- properties ------------------------------------------------------ *)

let print_instance (rows, params) =
  Printf.sprintf "%d workers %s / %d tasks %s" (List.length rows)
    (String.concat ";"
       (List.map (fun (q, c) -> Printf.sprintf "(%.2f,%.2f)" q c) rows))
    (List.length params)
    (String.concat ";"
       (List.map
          (fun (a, b, t, g) -> Printf.sprintf "(%.2f,%.2f,%d,%.1f)" a b t g)
          params))

let fleet_props =
  [
    qtest ~count:60 ~print:print_instance
      "submit_all: non-overlap, budgets, exact costs"
      (instance_gen ~workers:(4, 12) ~tasks:(2, 10))
      (fun (rows, params) ->
        let specs = specs_of params in
        let t =
          Fleet.Allocator.create ~config:test_config ~pool:(pool_of rows)
            ~version:1 ()
        in
        ignore (Fleet.Allocator.submit_all t specs);
        assert_invariants t && budgets_respected t specs);
    qtest ~count:40
      ~print:(fun ((inst, step, decided)) ->
        Printf.sprintf "%s step=%d decided=%b" (print_instance inst) step
          decided)
      "submit/release interleaving keeps every invariant" ops_gen
      (fun ((rows, params), step, decided) ->
        let specs = specs_of params in
        let t =
          Fleet.Allocator.create ~config:test_config ~pool:(pool_of rows)
            ~version:1 ()
        in
        List.iter (fun s -> ignore (Fleet.Allocator.submit t s)) specs;
        let ok = ref (assert_invariants t) in
        List.iteri
          (fun i s ->
            if i mod step = 0 then begin
              (match
                 Fleet.Allocator.release t ~id:(Fleet.Spec.id s) ~decided
               with
              | Some _ -> ()
              | None -> ok := false);
              ok := !ok && assert_invariants t
            end)
          specs;
        let survivors =
          List.filteri (fun i _ -> i mod step <> 0) specs
        in
        !ok && budgets_respected t survivors);
    qtest ~count:40 ~print:print_instance
      "reallocate: price-based >= independent greedy baseline"
      (instance_gen ~workers:(4, 12) ~tasks:(2, 8))
      (fun (rows, params) ->
        let t =
          Fleet.Allocator.create ~config:test_config ~pool:(pool_of rows)
            ~version:1 ()
        in
        ignore (Fleet.Allocator.submit_all t (specs_of params));
        Fleet.Allocator.reallocate t;
        Fleet.Allocator.aggregate t
        >= Fleet.Allocator.baseline_aggregate t -. 1e-9
        && assert_invariants t);
    qtest ~count:30 ~print:print_instance
      "tiny instances solved exactly (= exhaustive enumeration)"
      (instance_gen ~workers:(2, 6) ~tasks:(1, 3))
      (fun (rows, params) ->
        let pool = pool_of rows in
        let specs = specs_of params in
        let t =
          Fleet.Allocator.create ~config:test_config ~pool ~version:1 ()
        in
        ignore (Fleet.Allocator.submit_all t specs);
        let ctx =
          Fleet.Inner.make_ctx ~num_buckets:test_config.num_buckets pool
        in
        let best =
          Fleet.Inner.aggregate ~dev_weight:test_config.dev_weight
            (Fleet.Exhaustive.allocate ~ctx
               ~dev_weight:test_config.dev_weight specs)
        in
        Float.abs (Fleet.Allocator.aggregate t -. best) <= 1e-9);
    qtest ~count:30 ~print:print_instance
      "baseline itself respects non-overlap and budgets"
      (instance_gen ~workers:(4, 10) ~tasks:(2, 8))
      (fun (rows, params) ->
        let pool = pool_of rows in
        let specs = specs_of params in
        let ctx = Fleet.Inner.make_ctx pool in
        let out =
          Fleet.Baseline.allocate ~ctx ~dev_weight:0.5 specs
        in
        let n = Engine.Pool.size pool in
        let seen = Array.make n false in
        List.for_all
          (fun (a : Fleet.Inner.assignment) ->
            List.for_all
              (fun p ->
                let fresh = not seen.(p) in
                seen.(p) <- true;
                fresh)
              a.jury
            && Fleet.Inner.jury_cost ctx a.jury
               <= Fleet.Spec.budget a.spec +. 1e-9)
          out);
  ]

(* ---- shared-signature economy ---------------------------------------- *)

let test_signature_sharing () =
  (* 40 identical tasks: the batch solve must run far fewer inner solves
     than tasks — one per distinct signature per round, the rest served
     by the proposal cache. *)
  let pool = pool_of (List.init 12 (fun i -> (0.85, 1. +. (0.1 *. float_of_int i)))) in
  let t = Fleet.Allocator.create ~config:test_config ~pool ~version:1 () in
  let specs =
    List.init 40 (fun i ->
        spec ~id:(Printf.sprintf "cl%d" i) ~alpha:0.5 ~budget:3. ())
  in
  ignore (Fleet.Allocator.submit_all t specs);
  let st = Fleet.Allocator.stats t in
  check_bool "inner solves shared across the clone batch" true
    (st.inner_solves < 40);
  check_bool "consistent" true (assert_invariants t)

let () =
  Alcotest.run "fleet"
    [
      ( "spec",
        [
          Alcotest.test_case "validation" `Quick test_spec_validation;
          Alcotest.test_case "signature" `Quick test_spec_signature;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "submit_all order" `Quick test_submit_all_order;
          Alcotest.test_case "tier priority" `Quick test_tier_priority;
          Alcotest.test_case "release reallocates" `Quick
            test_release_reallocates;
          Alcotest.test_case "set_pool resync" `Quick test_set_pool_resync;
          Alcotest.test_case "signature sharing" `Quick
            test_signature_sharing;
        ] );
      ("properties", fleet_props);
    ]
