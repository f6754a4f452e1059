(* Tests for lib/serve: wire codec round-trips, registry versioning, the
   bounded queue, and the service end to end over a real TCP socket. *)

let qtest ?(count = 200) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

module Wire = Serve.Wire

(* ---- generators ---------------------------------------------------- *)

let prob_gen = QCheck2.Gen.float_range 0. 1.
let cost_gen = QCheck2.Gen.float_range 0. 100.
let seed_gen = QCheck2.Gen.int_range 0 100_000
let buckets_gen = QCheck2.Gen.int_range 1 200
let name_gen = QCheck2.Gen.oneofl [ "default"; "pool-1"; "A_b.c"; "x9" ]

let list1 g = QCheck2.Gen.(int_range 1 6 >>= fun n -> list_size (return n) g)
let list0 g = QCheck2.Gen.(int_range 0 4 >>= fun n -> list_size (return n) g)

(* Normalized ℓ-vector priors, ℓ ∈ [2, 4]: positive weights scaled by their
   sum land within the codec's 1e-9 stochasticity tolerance. *)
let prior_gen =
  QCheck2.Gen.(
    int_range 2 4 >>= fun labels ->
    list_size (return labels) (float_range 0.1 1.) >>= fun weights ->
    let sum = List.fold_left ( +. ) 0. weights in
    return (List.map (fun w -> w /. sum) weights))

(* Diagonal-dominant row-stochastic ℓ×ℓ matrices: diagonal d, the rest
   spread evenly — rows sum to 1 up to a couple of ulp. *)
let matrix_of ~labels d =
  let off = (1. -. d) /. float_of_int (labels - 1) in
  Array.init labels (fun j ->
      Array.init labels (fun v -> if j = v then d else off))

let workers_gen =
  QCheck2.Gen.(
    oneof
      [
        ( list1 (pair prob_gen cost_gen) >>= fun rows ->
          return (List.map (fun (q, c) -> Wire.Scalar (q, c)) rows) );
        ( int_range 2 3 >>= fun labels ->
          list1 (pair prob_gen cost_gen) >>= fun rows ->
          return
            (List.map
               (fun (d, c) -> Wire.Matrix_row (matrix_of ~labels d, c))
               rows) );
      ])

let report_vote_gen =
  QCheck2.Gen.(
    int_range 0 500 >>= fun task ->
    int_range 0 100 >>= fun worker ->
    int_range 0 3 >>= fun label ->
    option (int_range 0 3) >>= fun truth ->
    return { Workers.Calib.task; worker; label; truth })

let request_gen =
  QCheck2.Gen.(
    oneof
      [
        return Wire.Ping;
        return Wire.Pool_list;
        return Wire.Stats;
        ( list1 prob_gen >>= fun qs ->
          prior_gen >>= fun prior ->
          buckets_gen >>= fun num_buckets ->
          return (Wire.Jq { source = Wire.Inline qs; prior; num_buckets }) );
        ( name_gen >>= fun name ->
          prior_gen >>= fun prior ->
          buckets_gen >>= fun num_buckets ->
          return (Wire.Jq { source = Wire.Named name; prior; num_buckets }) );
        ( name_gen >>= fun pool ->
          cost_gen >>= fun budget ->
          prior_gen >>= fun prior ->
          seed_gen >>= fun seed ->
          return (Wire.Select { pool; budget; prior; seed }) );
        ( name_gen >>= fun pool ->
          list1 cost_gen >>= fun budgets ->
          prior_gen >>= fun prior ->
          seed_gen >>= fun seed ->
          return (Wire.Table { pool; budgets; prior; seed }) );
        ( name_gen >>= fun name ->
          workers_gen >>= fun workers ->
          return (Wire.Pool_put { name; workers }) );
        ( name_gen >>= fun pool ->
          name_gen >>= fun task ->
          prior_gen >>= fun prior ->
          cost_gen >>= fun budget ->
          Qgen.float_in 0.6 1. >>= fun confidence ->
          float_range 0. 1. >>= fun gain_floor ->
          oneofl Session.Policy.all >>= fun policy ->
          return
            (Wire.Session_open
               { pool; task; prior; budget; confidence; gain_floor; policy })
        );
        ( name_gen >>= fun pool ->
          name_gen >>= fun task ->
          int_range 0 100 >>= fun worker ->
          int_range 0 3 >>= fun label ->
          return (Wire.Session_vote { pool; task; worker; label }) );
        ( name_gen >>= fun pool ->
          name_gen >>= fun task ->
          int_range 1 5 >>= fun k ->
          return (Wire.Session_advise { pool; task; k }) );
        ( name_gen >>= fun pool ->
          name_gen >>= fun task ->
          option (int_range 0 3) >>= fun truth ->
          return (Wire.Session_decide { pool; task; truth }) );
        ( name_gen >>= fun pool ->
          name_gen >>= fun task ->
          return (Wire.Session_close { pool; task }) );
        ( name_gen >>= fun pool ->
          list_size (int_range 1 8) report_vote_gen >>= fun votes ->
          return (Wire.Report { pool; votes }) );
        (name_gen >>= fun pool -> return (Wire.Quality { pool }));
        (name_gen >>= fun pool -> return (Wire.Recal { pool }));
        ( name_gen >>= fun pool ->
          name_gen >>= fun task ->
          prior_gen >>= fun prior ->
          cost_gen >>= fun budget ->
          int_range 0 3 >>= fun tier ->
          float_range 0. 1. >>= fun target ->
          return (Wire.Fleet_submit { pool; task; prior; budget; tier; target })
        );
        ( name_gen >>= fun pool ->
          option name_gen >>= fun task ->
          return (Wire.Fleet_status { pool; task }) );
        ( name_gen >>= fun pool ->
          name_gen >>= fun task ->
          bool >>= fun decided ->
          return (Wire.Fleet_release { pool; task; decided }) );
      ])

let error_code_gen =
  QCheck2.Gen.oneofl
    [
      Wire.Bad_request; Wire.Unknown_pool; Wire.Unknown_session;
      Wire.Unknown_task; Wire.Overload; Wire.Deadline; Wire.Shutdown;
      Wire.Internal;
    ]

let stats_gen =
  QCheck2.Gen.(
    let keys = [ "cache_hit_rate"; "p50_ms"; "req_jq"; "requests"; "uptime_s" ] in
    int_range 0 (List.length keys) >>= fun k ->
    list_size
      (return (List.length keys))
      (float_range 0. 1e6)
    >>= fun vs ->
    return (List.filteri (fun i _ -> i < k) (List.combine keys vs)))

let row_gen =
  QCheck2.Gen.(
    cost_gen >>= fun budget ->
    list0 (int_range 0 500) >>= fun ids ->
    prob_gen >>= fun quality ->
    cost_gen >>= fun required ->
    return { Wire.budget; ids; quality; required })

let response_gen =
  QCheck2.Gen.(
    oneof
      [
        return Wire.Pong;
        ( prob_gen >>= fun value ->
          cost_gen >>= fun error_bound ->
          int_range 0 1000 >>= fun n ->
          return (Wire.Jq_result { value; error_bound; n }) );
        ( list0 (int_range 0 500) >>= fun ids ->
          prob_gen >>= fun score ->
          cost_gen >>= fun cost ->
          return (Wire.Select_result { ids; score; cost }) );
        (list0 row_gen >>= fun rows -> return (Wire.Table_result rows));
        ( name_gen >>= fun name ->
          int_range 1 1000 >>= fun version ->
          int_range 0 1000 >>= fun size ->
          return (Wire.Pool_info { name; version; size }) );
        ( list0 (triple name_gen (int_range 1 1000) (int_range 0 1000))
        >>= fun entries -> return (Wire.Pool_entries entries) );
        (stats_gen >>= fun stats -> return (Wire.Stats_result stats));
        ( name_gen >>= fun pool ->
          name_gen >>= fun task ->
          oneofl
            [ Wire.Sess_open; Wire.Sess_decided; Wire.Sess_exhausted;
              Wire.Sess_closed ]
          >>= fun state ->
          prior_gen >>= fun posterior ->
          int_range 0 50 >>= fun votes ->
          cost_gen >>= fun spent ->
          option (int_range 0 100) >>= fun next ->
          list0 (int_range 0 100) >>= fun advice ->
          option (int_range 0 3) >>= fun decision ->
          bool >>= fun certified ->
          option (oneofl Session.Stopping.all_reasons) >>= fun reason ->
          return
            (Wire.Session_result
               {
                 pool; task; state; posterior; votes; spent; next; advice;
                 decision; certified; reason;
               }) );
        ( name_gen >>= fun name ->
          int_range 1 1000 >>= fun version ->
          int_range 0 200 >>= fun applied ->
          int_range 0 200 >>= fun pending ->
          list0 (int_range 0 100) >>= fun drifted ->
          bool >>= fun stale ->
          int_range 0 8 >>= fun recals ->
          return
            (Wire.Report_result
               { name; version; applied; pending; drifted; stale; recals }) );
        ( name_gen >>= fun name ->
          int_range 1 1000 >>= fun version ->
          list0 (triple (int_range 0 100) prob_gen (int_range 0 500))
          >>= fun workers ->
          return (Wire.Quality_result { name; version; workers }) );
        ( name_gen >>= fun pool ->
          name_gen >>= fun task ->
          list0 (int_range 0 500) >>= fun jury ->
          prob_gen >>= fun score ->
          cost_gen >>= fun cost ->
          int_range 0 3 >>= fun tier ->
          return (Wire.Fleet_task { pool; task; jury; score; cost; tier }) );
        ( name_gen >>= fun pool ->
          int_range 1 1000 >>= fun version ->
          int_range 0 1000 >>= fun epoch ->
          int_range 0 1000 >>= fun tasks ->
          int_range 0 1000 >>= fun assigned ->
          int_range 0 1000 >>= fun claimed ->
          int_range 0 1000 >>= fun priced ->
          float_range (-10.) 1000. >>= fun aggregate ->
          return
            (Wire.Fleet_summary
               { pool; version; epoch; tasks; assigned; claimed; priced;
                 aggregate }) );
        ( name_gen >>= fun pool ->
          name_gen >>= fun task ->
          int_range 0 100 >>= fun freed ->
          return (Wire.Fleet_released { pool; task; freed }) );
        ( error_code_gen >>= fun code ->
          string >>= fun message ->
          return (Wire.Error { code; message }) );
      ])

(* ---- wire codec ----------------------------------------------------- *)

(* Any 64-bit pattern, NaN payloads and subnormals included. *)
let bits_gen =
  QCheck2.Gen.(
    map2
      (fun hi lo ->
        Int64.(logor (shift_left (of_int hi) 32) (logand (of_int lo) 0xFFFF_FFFFL)))
      int int)

let codec_props =
  [
    qtest "request round-trips" ~print:Wire.encode_request request_gen
      (fun request ->
        Wire.decode_request (Wire.encode_request request) = Ok request);
    qtest "response round-trips" ~print:Wire.encode_response response_gen
      (fun response ->
        Wire.decode_response (Wire.encode_response response) = Ok response);
    qtest "verb and pool match the grammar" ~print:Wire.encode_request request_gen
      (fun request ->
        let tokens = String.split_on_char ' ' (Wire.encode_request request) in
        let pool =
          List.find_map
            (fun token ->
              if String.starts_with ~prefix:"pool=" token then
                Some (String.sub token 5 (String.length token - 5))
              else None)
            tokens
        in
        List.hd tokens = Wire.verb request && pool = Wire.pool request);
    qtest ~count:1000 "every finite float renders inside the number grammar"
      bits_gen (fun bits ->
        let f = Int64.float_of_bits bits in
        (not (Float.is_finite f))
        ||
        let reply = Wire.Stats_result [ ("x", f) ] in
        Wire.decode_response (Wire.encode_response reply) = Ok reply);
    qtest ~count:500 "decode_request never raises" QCheck2.Gen.string (fun s ->
        match Wire.decode_request s with Ok _ | Error _ -> true);
    qtest ~count:500 "decode_response never raises" QCheck2.Gen.string (fun s ->
        match Wire.decode_response s with Ok _ | Error _ -> true);
  ]

let check_decode name line expected =
  Alcotest.test_case name `Quick (fun () ->
      match (Wire.decode_request line, expected) with
      | Ok got, Some want ->
          Alcotest.(check string) name (Wire.encode_request want)
            (Wire.encode_request got)
      | Error _, None -> ()
      | Ok got, None ->
          Alcotest.failf "%s: expected a parse error, got %s" name
            (Wire.encode_request got)
      | Error e, Some _ -> Alcotest.failf "%s: unexpected error %s" name e)

let codec_units =
  [
    check_decode "defaults fill in" "jq q=0.25,0.75"
      (Some
         (Wire.Jq
            {
              source = Wire.Inline [ 0.25; 0.75 ];
              prior = Wire.default_prior;
              num_buckets = Jq.Bucket.default_num_buckets;
            }));
    check_decode "trailing CR tolerated" "ping\r" (Some Wire.Ping);
    check_decode "repeated spaces tolerated" "select  pool=p   budget=4"
      (Some
         (Wire.Select
            { pool = "p"; budget = 4.; prior = Wire.default_prior; seed = 42 }));
    check_decode "alpha is prior sugar" "select pool=p budget=4 alpha=0.3"
      (Some
         (Wire.Select
            { pool = "p"; budget = 4.; prior = [ 0.3; 1. -. 0.3 ]; seed = 42 }));
    check_decode "3-label prior accepted" "select pool=p budget=4 prior=0.2,0.5,0.3"
      (Some
         (Wire.Select
            { pool = "p"; budget = 4.; prior = [ 0.2; 0.5; 0.3 ]; seed = 42 }));
    check_decode "prior and alpha exclusive"
      "select pool=p budget=4 prior=0.5,0.5 alpha=0.5" None;
    check_decode "prior must sum to 1" "jq q=0.5 prior=0.4,0.4" None;
    check_decode "single-entry prior rejected" "jq q=0.5 prior=1" None;
    check_decode "matrix pool rows"
      "pool-put name=m workers=0.8;0.2;0.2;0.8:3,0.5;0.5;0.5;0.5:1"
      (Some
         (Wire.Pool_put
            {
              name = "m";
              workers =
                [
                  Wire.Matrix_row ([| [| 0.8; 0.2 |]; [| 0.2; 0.8 |] |], 3.);
                  Wire.Matrix_row ([| [| 0.5; 0.5 |]; [| 0.5; 0.5 |] |], 1.);
                ];
            }));
    check_decode "mixed worker kinds rejected"
      "pool-put name=m workers=0.8:1,0.8;0.2;0.2;0.8:3" None;
    check_decode "matrix label counts must agree"
      "pool-put name=m \
       workers=0.8;0.2;0.2;0.8:1,0.8;0.1;0.1;0.1;0.8;0.1;0.1;0.1;0.8:1"
      None;
    check_decode "non-square matrix rejected"
      "pool-put name=m workers=0.8;0.2;0.2;0.8;0.5:1" None;
    check_decode "non-stochastic matrix row rejected"
      "pool-put name=m workers=0.8;0.8;0.2;0.8:1" None;
    check_decode "duplicate key rejected" "jq q=0.5 q=0.6" None;
    check_decode "unknown key rejected" "jq q=0.5 frob=1" None;
    check_decode "quality out of range" "jq q=1.5" None;
    check_decode "nan budget rejected" "select pool=p budget=nan" None;
    check_decode "negative budget rejected" "select pool=p budget=-1" None;
    check_decode "bad pool name" "select pool=a*b budget=1" None;
    check_decode "empty line" "" None;
    check_decode "unknown verb" "bogus" None;
    check_decode "missing mandatory field" "select pool=p" None;
    check_decode "empty budgets rejected" "table pool=p budgets=-" None;
    check_decode "exponents and negative seeds are in the grammar"
      "select pool=p budget=1.5E+1 seed=-3"
      (Some
         (Wire.Select
            { pool = "p"; budget = 15.; prior = Wire.default_prior; seed = -3 }));
    check_decode "fleet-submit defaults fill in"
      "fleet-submit pool=p task=t1 prior=0.3,0.7 budget=6"
      (Some
         (Wire.Fleet_submit
            {
              pool = "p"; task = "t1"; prior = [ 0.3; 0.7 ]; budget = 6.;
              tier = 0; target = 0.;
            }));
    check_decode "fleet-status without task is a summary"
      "fleet-status pool=p"
      (Some (Wire.Fleet_status { pool = "p"; task = None }));
    check_decode "fleet-release decide flag"
      "fleet-release pool=p task=t1 decide=1"
      (Some (Wire.Fleet_release { pool = "p"; task = "t1"; decided = true }));
    check_decode "fleet-submit bad task name"
      "fleet-submit pool=p task=a*b prior=0.3,0.7 budget=6" None;
    check_decode "fleet-submit negative tier rejected"
      "fleet-submit pool=p task=t prior=0.3,0.7 budget=6 tier=-1" None;
    check_decode "fleet-release bad flag"
      "fleet-release pool=p task=t decide=yes" None;
    Alcotest.test_case "a %-escape is exactly two hex digits" `Quick (fun () ->
        let decode message = Wire.decode_response ("err bad-request message=" ^ message) in
        (match decode "a%41%7eb" with
        | Ok (Wire.Error { message; _ }) -> Alcotest.(check string) "decoded" "aA~b" message
        | _ -> Alcotest.fail "a%41%7eb does not decode");
        List.iter
          (fun message ->
            match decode message with
            | Error _ -> ()
            | Ok r -> Alcotest.failf "%s decodes as %s" message (Wire.encode_response r))
          [ "a%1_b"; "a%_1b"; "a%g0b" ]);
    Alcotest.test_case "valid_pool_name" `Quick (fun () ->
        Alcotest.(check bool) "ok" true (Wire.valid_pool_name "A_b.c-9");
        Alcotest.(check bool) "empty" false (Wire.valid_pool_name "");
        Alcotest.(check bool) "space" false (Wire.valid_pool_name "a b");
        Alcotest.(check bool) "long" false
          (Wire.valid_pool_name (String.make 65 'a')));
  ]

(* ---- reply encoding -------------------------------------------------- *)

(* [Oracle.Wire] is the Printf encoder that the buffer writer and the float
   memo replaced: every reply and every float must keep its bytes. *)

let renders_as_oracle f = Wire.float_to_string f = Oracle.Wire.float_to_string f

(* [k] floats that share [f]'s memo slot: probabilities like the ones
   replies carry, or any bit pattern. *)
let slot_mates rng f k =
  let slot = Wire.float_slot f in
  let rec draw acc n =
    if n = k then acc
    else
      let g =
        if Random.State.bool rng then Random.State.float rng 1.
        else Int64.float_of_bits (Random.State.bits64 rng)
      in
      if Wire.float_slot g = slot then draw (g :: acc) (n + 1) else draw acc n
  in
  draw [] 0

(* Runs first in the suite, while most memo slots are still empty: an
   empty slot must not answer for 0.0, whose bits are 0. *)
let test_special_floats () =
  let specials =
    [
      0.; -0.; infinity; neg_infinity; nan; -.nan; Float.min_float; Float.max_float;
      -.Float.max_float; Float.epsilon; 0.1; 0.5; 1.; 2.; 1. /. 3.; 1e21; 1e-7;
      123456789012.; 1234567890123.;
    ]
    @ List.map Int64.float_of_bits
        [
          1L (* least subnormal *); 0x000F_FFFF_FFFF_FFFFL (* greatest *);
          0x8000_0000_0000_0001L; 0x7FF0_0000_0000_0001L (* signalling NaN *);
          0x7FF8_0000_0000_0001L; 0xFFF8_0000_0000_0001L; 0x7FFF_FFFF_FFFF_FFFFL;
        ]
  in
  let rng = Random.State.make [| 7 |] in
  List.iter
    (fun f ->
      let mates = slot_mates rng f 2 in
      (* Cold, warm, after its slot was taken, and back. *)
      List.iter
        (fun g ->
          if not (renders_as_oracle g) then
            Alcotest.failf "%h renders as %S, not %S" g (Wire.float_to_string g)
              (Oracle.Wire.float_to_string g))
        ((f :: f :: mates) @ [ f ]))
    specials

(* Three spawned domains and the test's own render floats that share one
   slot, so each keeps replacing the record the others read. *)
let test_memo_across_domains () =
  let rng = Random.State.make [| 23 |] in
  let floats = Array.of_list (0.62 :: slot_mates rng 0.62 7) in
  let expected = Array.map Oracle.Wire.float_to_string floats in
  let render d () =
    let wrong = ref 0 in
    for i = 0 to 99_999 do
      let j = ((i * (d + 1)) + d) mod Array.length floats in
      if Wire.float_to_string floats.(j) <> expected.(j) then incr wrong
    done;
    !wrong
  in
  let spawned = List.init 3 (fun d -> Domain.spawn (render (d + 1))) in
  let wrong = render 0 () + List.fold_left (fun n d -> n + Domain.join d) 0 spawned in
  Alcotest.(check int) "renderings unlike the oracle's" 0 wrong

(* Minor words per reply byte over 100 encodes, after two warm-up calls. *)
let words_per_byte reply =
  let bytes = String.length (Wire.encode_response reply) in
  ignore (Wire.encode_response reply);
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (Wire.encode_response reply))
  done;
  (Gc.minor_words () -. before) /. 100. /. float_of_int bytes

let test_reply_allocation () =
  let rng = Random.State.make [| 4099 |] in
  let quality =
    Wire.Quality_result
      {
        name = "warm0";
        version = 12;
        workers =
          List.init 40 (fun id ->
              (id, 0.4 +. Random.State.float rng 0.55, Random.State.int rng 400));
      }
  and select =
    Wire.Select_result
      { ids = [ 2; 5; 11; 17; 23; 31; 38 ]; score = 0.93187; cost = 14.732 }
  in
  List.iter
    (fun (what, reply) ->
      let w = words_per_byte reply in
      if w > 1. then Alcotest.failf "%s reply: %.2f minor words per byte" what w)
    [ ("quality", quality); ("select", select) ]

let encoding_tests =
  [
    Alcotest.test_case "special floats render as the oracle" `Quick test_special_floats;
    qtest "replies encode as the oracle" ~print:Oracle.Wire.encode_response
      response_gen (fun r -> Wire.encode_response r = Oracle.Wire.encode_response r);
    qtest ~count:2000 "floats render as the oracle" bits_gen (fun bits ->
        let f = Int64.float_of_bits bits in
        renders_as_oracle f && renders_as_oracle f);
    qtest ~count:50 "floats sharing a slot render as the oracle"
      QCheck2.Gen.(pair bits_gen nat)
      (fun (bits, seed) ->
        let rng = Random.State.make [| seed |] in
        let f = Int64.float_of_bits bits in
        let floats = Array.of_list (f :: slot_mates rng f 4) in
        List.for_all
          (fun _ -> renders_as_oracle floats.(Random.State.int rng 5))
          (List.init 200 Fun.id));
    Alcotest.test_case "one slot raced by four domains" `Quick test_memo_across_domains;
    Alcotest.test_case "at most a minor word per reply byte" `Quick test_reply_allocation;
  ]

(* ---- registry -------------------------------------------------------- *)

let pool_of_qualities qs =
  Engine.Pool.of_workers
    (Workers.Pool.of_list
       (List.mapi
          (fun id q -> Workers.Worker.make ~id ~quality:q ~cost:1. ())
          qs))

let registry_tests =
  [
    Alcotest.test_case "versions strictly increase" `Quick (fun () ->
        let r = Serve.Registry.create () in
        let v1 = Serve.Registry.upsert r ~name:"a" (pool_of_qualities [ 0.6 ]) in
        let v2 = Serve.Registry.upsert r ~name:"b" (pool_of_qualities [ 0.7 ]) in
        let v3 =
          Serve.Registry.upsert r ~name:"a" (pool_of_qualities [ 0.6; 0.8 ])
        in
        Alcotest.(check bool) "v1 < v2" true (v1 < v2);
        Alcotest.(check bool) "v2 < v3" true (v2 < v3);
        (match Serve.Registry.find r "a" with
        | Some (pool, v) ->
            Alcotest.(check int) "latest version" v3 v;
            Alcotest.(check int) "latest size" 2 (Engine.Pool.size pool)
        | None -> Alcotest.fail "pool a missing");
        Alcotest.(check (option (pair reject int)))
          "unknown pool" None
          (Serve.Registry.find r "nope");
        Alcotest.(check (list (triple string int int)))
          "list sorted"
          [ ("a", v3, 2); ("b", v2, 1) ]
          (Serve.Registry.list r);
        Alcotest.(check int) "size" 2 (Serve.Registry.size r));
  ]

(* ---- shard queue and dispatcher --------------------------------------- *)

let bqueue_tests =
  [
    Alcotest.test_case "admission control and FIFO order" `Quick (fun () ->
        let q = Serve.Bqueue.create ~capacity:3 in
        let pushed x =
          match Serve.Bqueue.push q x with
          | Serve.Bqueue.Pushed _ -> true
          | Serve.Bqueue.Full | Serve.Bqueue.Closed -> false
        in
        Alcotest.(check bool) "push 1" true (pushed 1);
        Alcotest.(check bool) "push 2" true (pushed 2);
        Alcotest.(check bool) "push 3" true (pushed 3);
        Alcotest.(check bool) "full" false (pushed 4);
        Alcotest.(check bool)
          "full is Full" true
          (Serve.Bqueue.push q 4 = Serve.Bqueue.Full);
        Alcotest.(check int) "length" 3 (Serve.Bqueue.length q);
        let pop () =
          match Serve.Bqueue.pop q with
          | `Item x -> x
          | `Invited | `Closed -> Alcotest.fail "expected an item"
        in
        Alcotest.(check int) "first in, first out" 1 (pop ());
        Serve.Bqueue.close q;
        Alcotest.(check bool)
          "closed refuses" true
          (Serve.Bqueue.push q 5 = Serve.Bqueue.Closed);
        Alcotest.(check (list int)) "queued items drain after close" [ 2; 3 ]
          (let a = pop () in
           [ a; pop () ]);
        Alcotest.(check bool) "`Closed after drain" true (Serve.Bqueue.pop q = `Closed));
    Alcotest.test_case "invitations latch and are consumed" `Quick (fun () ->
        let q = Serve.Bqueue.create ~capacity:2 in
        Serve.Bqueue.invite q;
        (* An invite queued while the owner was busy is seen at the next
           idle pop, then consumed. *)
        Alcotest.(check bool) "latched invite" true (Serve.Bqueue.pop q = `Invited);
        ignore (Serve.Bqueue.push q 1);
        (* Queued work takes priority over a pending invitation... *)
        Serve.Bqueue.invite q;
        Alcotest.(check bool) "queued item first" true (Serve.Bqueue.pop q = `Item 1);
        (* ... and the latched invitation is still there afterwards. *)
        Alcotest.(check bool) "invitation kept" true (Serve.Bqueue.pop q = `Invited);
        Serve.Bqueue.close q);
    Alcotest.test_case "steal takes the front, never a lone item" `Quick (fun () ->
        let q = Serve.Bqueue.create ~capacity:8 in
        Alcotest.(check (option int)) "empty" None (Serve.Bqueue.steal q);
        List.iter (fun x -> ignore (Serve.Bqueue.push q x)) [ 1; 2; 3 ];
        Alcotest.(check (option int)) "front item" (Some 1) (Serve.Bqueue.steal q);
        Alcotest.(check (option int)) "next front item" (Some 2) (Serve.Bqueue.steal q);
        (* The last item is its owner's next pop. *)
        Alcotest.(check (option int)) "lone item left" None (Serve.Bqueue.steal q);
        Serve.Bqueue.close q;
        Alcotest.(check (option int)) "stealable after close" (Some 3) (Serve.Bqueue.steal q);
        Alcotest.(check (option int)) "drained" None (Serve.Bqueue.steal q));
  ]

(* Single-threaded close-drains check including the steal path: items
   stuck on a neighbour's shard are still handed out after close. *)
let dispatch_close_drains_test () =
  let d = Serve.Dispatch.create ~shards:3 ~capacity:30 in
  for i = 0 to 9 do
    match Serve.Dispatch.push d ~affinity:0 (`Jq i) with
    | `Ok -> ()
    | `Overload | `Closed -> Alcotest.fail "push refused below capacity"
  done;
  Serve.Dispatch.close d;
  Alcotest.(check bool)
    "push after close" true
    (Serve.Dispatch.push d ~affinity:0 (`Jq 99) = `Closed);
  let drained = ref 0 in
  for shard = 0 to 2 do
    let rec drain () =
      match Serve.Dispatch.pop d ~shard with
      | Some _ ->
          incr drained;
          drain ()
      | None -> ()
    in
    drain ()
  done;
  Alcotest.(check int) "close drains everything" 10 !drained

(* Concurrent producers + per-shard owner threads + stealing: every
   accepted item is delivered exactly once, and close drains the rest.
   Skewed affinities force the invite/steal path; spill is exercised by
   the small capacity. *)
let dispatch_qcheck =
  let gen =
    QCheck2.Gen.(
      triple (int_range 1 4) (int_range 4 64) (int_range 1 3) >>= fun (s, n, skew) ->
      return (s, n, skew))
  in
  qtest ~count:30 "dispatch: no item lost or duplicated"
    ~print:(fun (s, n, skew) ->
      Printf.sprintf "shards=%d items=%d skew=%d" s n skew)
    gen
    (fun (shards, n_items, skew) ->
      let d = Serve.Dispatch.create ~shards ~capacity:8 in
      let accepted = Array.make 4 [] in
      let producer p =
        for i = 0 to n_items - 1 do
          let item = (p * 10_000) + i in
          (* Affinity skew 1 funnels everything to one shard. *)
          let affinity = item mod skew in
          let rec push_retry tries =
            match Serve.Dispatch.push d ~affinity item with
            | `Ok -> accepted.(p) <- item :: accepted.(p)
            | `Overload when tries < 200 ->
                Thread.delay 0.0002;
                push_retry (tries + 1)
            | `Overload | `Closed -> ()
          in
          push_retry 0
        done
      in
      let consumed = Array.make shards [] in
      let owner shard =
        let rec loop () =
          match Serve.Dispatch.pop d ~shard with
          | Some (item, _) ->
              consumed.(shard) <- item :: consumed.(shard);
              loop ()
          | None -> ()
        in
        loop ()
      in
      let owners = List.init shards (fun s -> Thread.create owner s) in
      let producers = List.init 4 (fun p -> Thread.create producer p) in
      List.iter Thread.join producers;
      Serve.Dispatch.close d;
      List.iter Thread.join owners;
      let sent = List.sort compare (List.concat (Array.to_list accepted)) in
      let got = List.sort compare (List.concat (Array.to_list consumed)) in
      sent = got)

let dispatch_tests =
  [
    Alcotest.test_case "close drains all shards (steal path)" `Quick
      dispatch_close_drains_test;
    dispatch_qcheck;
  ]

(* ---- metrics shard merge ---------------------------------------------- *)

(* Every counter with its stats key, and every timer with the key counting
   its samples (request latencies are counted by [requests]), its
   quantile keys and the factor from the sampled unit to the reported
   one. *)
let metrics_counters =
  Serve.Metrics.
    [
      (Requests, "requests"); (Ok_replies, "ok"); (Errors, "errors");
      (Overloads, "overloads"); (Deadlines, "deadlines"); (Jq_memo_hits, "jq_memo_hits");
      (Select_memo_hits, "select_memo_hits"); (Steals, "steals");
      (Jq_flat_fallbacks, "jq_flat_fallbacks");
      (Votes_ingested, "votes_ingested"); (Recal_runs, "recal_runs");
      (Fleet_releases, "fleet_releases"); (Cache_hits, "cache_hits");
      (Cache_misses, "cache_misses"); (Cache_entries, "cache_entries");
      (Cache_evictions, "cache_evictions"); (Solves, "solves");
    ]

let metrics_timers =
  let ns stem = (stem ^ "_ns_p50", stem ^ "_ns_p95", stem ^ "_ns_p99") in
  Serve.Metrics.
    [
      (Latency, None, ("p50_ms", "p95_ms", "p99_ms"), 1000.);
      (Jq_eval, Some "jq_evals", ns "jq_eval", 1.);
      (Session_verb, Some "session_verbs", ns "session_verb", 1.);
      (Ingest, Some "ingests", ns "ingest", 1.);
      (Fleet_assign, Some "fleet_assigns", ns "fleet_assign", 1.);
    ]

(* Each shard's ring keeps its 2048 most recent samples; the generator's
   bursts of distinct samples run past that, so the oracle's cut matters. *)
let metrics_ring_size = 2048

let metrics_event_gen =
  QCheck2.Gen.(
    let verb = oneofl [ "jq"; "select"; "table"; "ping" ] in
    let timer = oneofl (List.map (fun (t, _, _, _) -> t) metrics_timers) in
    frequency
      [
        ( 4,
          verb >>= fun v ->
          float_range 0. 0.5 >>= fun lat ->
          bool >>= fun ok -> return (`Record (v, lat, ok)) );
        (1, return `Overload);
        ( 6,
          oneofl (List.map fst metrics_counters) >>= fun c ->
          int_range (-2) 50 >>= fun n -> return (`Add (c, n)) );
        ( 6,
          timer >>= fun t ->
          float_range 1e-4 5e6 >>= fun x -> return (`Sample (t, x)) );
        ( 1,
          timer >>= fun t ->
          int_range 1 (metrics_ring_size + 500) >>= fun n ->
          float_range 0. 1. >>= fun x0 -> return (`Burst (t, n, x0)) );
      ])

(* Oracle: replay the same event stream into plain accumulators — one
   total per counter, per-shard sample lists per timer — and compare the
   sharded snapshot key by key, both ways. *)
let metrics_merge_qcheck =
  let gen =
    QCheck2.Gen.(
      pair (int_range 1 4) (list_size (int_range 0 200) metrics_event_gen))
  in
  qtest ~count:60 "metrics: sharded snapshot equals single-lock oracle" gen
    (fun (shards, events) ->
      let m = Serve.Metrics.create ~shards () in
      let totals = Hashtbl.create 32 in
      let bump key n =
        Hashtbl.replace totals key
          (n + Option.value ~default:0 (Hashtbl.find_opt totals key))
      in
      (* Samples by (timer, shard), most recent first. *)
      let samples = Hashtbl.create 16 in
      let taken timer shard =
        Option.value ~default:[] (Hashtbl.find_opt samples (timer, shard))
      in
      let sample ~shard timer x =
        Serve.Metrics.sample m ~shard timer x;
        Hashtbl.replace samples (timer, shard) (x :: taken timer shard)
      in
      let per_verb = Hashtbl.create 8 in
      (* Events spread over every shard, the submitter's included. *)
      let shard_of i = i mod (shards + 1) in
      List.iteri
        (fun i event ->
          let shard = shard_of i in
          match event with
          | `Record (verb, latency, okay) ->
              Serve.Metrics.record m ~shard ~verb ~latency ~ok:okay;
              Hashtbl.replace samples (Serve.Metrics.Latency, shard)
                (latency :: taken Serve.Metrics.Latency shard);
              bump "requests" 1;
              bump (if okay then "ok" else "errors") 1;
              Hashtbl.replace per_verb verb
                (1 + Option.value ~default:0 (Hashtbl.find_opt per_verb verb))
          | `Overload ->
              Serve.Metrics.overload m;
              bump "overloads" 1;
              bump "requests" 1;
              bump "errors" 1
          | `Add (counter, n) ->
              (* n <= 0 must be a no-op. *)
              Serve.Metrics.add m ~shard counter n;
              bump (List.assoc counter metrics_counters) (max 0 n)
          | `Sample (timer, x) -> sample ~shard timer x
          | `Burst (timer, n, x0) ->
              for k = 1 to n do
                sample ~shard timer (x0 +. float_of_int k)
              done)
        events;
      let snap = Serve.Metrics.snapshot m in
      let get key = Option.value ~default:0. (List.assoc_opt key snap) in
      let total key = Option.value ~default:0 (Hashtbl.find_opt totals key) in
      let hits = total "cache_hits" and misses = total "cache_misses" in
      let expected =
        ("cache_hit_rate",
         Some
           (if hits + misses = 0 then 0.
            else float_of_int hits /. float_of_int (hits + misses)))
        :: List.map
             (fun (_, key) -> (key, Some (float_of_int (total key))))
             metrics_counters
        @ Hashtbl.fold
            (fun verb n acc -> ("req_" ^ verb, Some (float_of_int n)) :: acc)
            per_verb []
        @ List.concat_map
            (fun (timer, count_key, (k50, k95, k99), scale) ->
              let per_shard = List.init (shards + 1) (taken timer) in
              let recent =
                Array.of_list
                  (List.concat_map
                     (List.filteri (fun i _ -> i < metrics_ring_size))
                     per_shard)
              in
              let quantile p =
                if Array.length recent = 0 then None
                else Some (scale *. Prob.Stats.quantile recent p)
              in
              let taken = List.length (List.concat per_shard) in
              (match count_key with
              | Some key -> [ (key, Some (float_of_int taken)) ]
              | None -> [])
              @ [
                  (k50, quantile 0.5); (k95, quantile 0.95);
                  (k99, quantile 0.99);
                ])
            metrics_timers
      in
      List.for_all
        (fun (key, want) ->
          match want with
          | Some v -> get key = v
          | None -> not (List.mem_assoc key snap))
        expected
      && List.for_all
           (fun (key, _) -> key = "uptime_s" || List.mem_assoc key expected)
           snap)

let metrics_tests = [ metrics_merge_qcheck ]

(* ---- service over TCP ------------------------------------------------- *)

let with_server ?deadline ?calib_config ~domains ~queue_capacity f =
  let service =
    Serve.Service.create ?deadline ?calib_config ~domains ~queue_capacity ()
  in
  let server = Serve.Server.create ~port:0 service in
  Serve.Server.start server;
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Serve.Service.shutdown service)
    (fun () -> f service (Serve.Server.port server))

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let roundtrip ic oc request =
  output_string oc (Wire.encode_request request);
  output_char oc '\n';
  flush oc;
  match Wire.decode_response (input_line ic) with
  | Ok response -> response
  | Error e -> Alcotest.failf "undecodable reply: %s" e

let test_pool n =
  Workers.Generator.gaussian_pool (Prob.Rng.create 7) Workers.Generator.default
    n

let wire_workers pool =
  List.map
    (fun w -> Wire.Scalar (Workers.Worker.quality w, Workers.Worker.cost w))
    (Workers.Pool.to_list pool)

let check_response name expected actual =
  Alcotest.(check string)
    name
    (Wire.encode_response expected)
    (Wire.encode_response actual)

(* A direct annealing run with a fresh score cache, on the binary default
   prior unless [prior] says otherwise: what the service must answer for a
   select, memo hit or not. *)
let direct_select ?(prior = Wire.default_prior) epool ~budget ~seed =
  let result =
    Jsp.Annealing.solve_engine ~num_buckets:Jq.Bucket.default_num_buckets
      ~rng:(Prob.Rng.create seed)
      ~task:(Engine.Task.make ~prior:(Array.of_list prior))
      ~budget epool
  in
  Wire.Select_result
    {
      ids = Engine.Pool.ids result.Jsp.Solver.jury;
      score = result.Jsp.Solver.score;
      cost = Engine.Pool.total_cost result.Jsp.Solver.jury;
    }

(* Concurrent mixed queries over TCP must equal direct library calls:
   responses are deterministic functions of (pool, request) regardless of
   which executor answers or how warm its caches are. *)
let integration_test () =
  let pool = test_pool 12 in
  let qualities = Workers.Pool.qualities pool in
  let buckets = Jq.Bucket.default_num_buckets in
  let expected_jq_pool =
    let inc = Jq.Incremental.create ~num_buckets:buckets ~alpha:0.5 () in
    Array.iter (Jq.Incremental.add_worker inc) qualities;
    Wire.Jq_result
      {
        value = Jq.Incremental.value inc;
        error_bound = Jq.Incremental.error_bound inc;
        n = Workers.Pool.size pool;
      }
  in
  let inline_qs = Array.to_list (Array.sub qualities 0 5) in
  let expected_jq_inline =
    let stats =
      Jq.Bucket.estimate_stats ~num_buckets:buckets ~alpha:0.5
        (Array.of_list inline_qs)
    in
    Wire.Jq_result
      {
        value = stats.Jq.Bucket.value;
        error_bound = stats.Jq.Bucket.error_bound;
        n = 5;
      }
  in
  let expected_select = direct_select (Engine.Pool.of_workers pool) in
  let expected_table ~budgets ~seed =
    Wire.Table_result
      (List.map
         (fun budget ->
           match expected_select ~budget ~seed with
           | Wire.Select_result { ids; score; cost } ->
               { Wire.budget; ids; quality = score; required = cost }
           | _ -> assert false)
         budgets)
  in
  with_server ~domains:4 ~queue_capacity:64 (fun service port ->
      (let fd, ic, oc = connect port in
       (match
          roundtrip ic oc
            (Wire.Pool_put { name = "itest"; workers = wire_workers pool })
        with
       | Wire.Pool_info { name = "itest"; size = 12; _ } -> ()
       | r -> Alcotest.failf "pool-put: %s" (Wire.encode_response r));
       Unix.close fd);
      let failures = Array.make 4 None in
      let client i =
        try
          let fd, ic, oc = connect port in
          let seed = 3 + i in
          for _round = 1 to 3 do
            check_response "ping" Wire.Pong (roundtrip ic oc Wire.Ping);
            check_response "jq pool" expected_jq_pool
              (roundtrip ic oc
                 (Wire.Jq
                    {
                      source = Wire.Named "itest";
                      prior = Wire.default_prior;
                      num_buckets = buckets;
                    }));
            check_response "jq inline" expected_jq_inline
              (roundtrip ic oc
                 (Wire.Jq
                    {
                      source = Wire.Inline inline_qs;
                      prior = Wire.default_prior;
                      num_buckets = buckets;
                    }));
            check_response "select" (expected_select ~budget:12. ~seed)
              (roundtrip ic oc
                 (Wire.Select
                    { pool = "itest"; budget = 12.; prior = Wire.default_prior; seed }));
            check_response "table" (expected_table ~budgets:[ 6.; 12. ] ~seed:5)
              (roundtrip ic oc
                 (Wire.Table
                    {
                      pool = "itest";
                      budgets = [ 6.; 12. ];
                      prior = Wire.default_prior;
                      seed = 5;
                    }))
          done;
          Unix.close fd
        with exn -> failures.(i) <- Some (Printexc.to_string exn)
      in
      let threads = List.init 4 (fun i -> Thread.create client i) in
      List.iter Thread.join threads;
      Array.iteri
        (fun i failure ->
          match failure with
          | Some msg -> Alcotest.failf "client %d: %s" i msg
          | None -> ())
        failures;
      (* Repeated selects and tables are answered from the jury memo; the
         solves that did run surface their score-cache hit-rate. *)
      let stats = Serve.Service.stats service in
      let stat key =
        match List.assoc_opt key stats with
        | Some v -> v
        | None -> Alcotest.failf "stats: missing %s" key
      in
      Alcotest.(check bool) "cache hits observed" true (stat "cache_hits" > 0.);
      Alcotest.(check bool)
        "jury memo hits observed" true
        (stat "select_memo_hits" > 0.);
      Alcotest.(check bool)
        "cache hit-rate positive" true
        (stat "cache_hit_rate" > 0.);
      Alcotest.(check bool) "unknown pool is an error" true
        (let fd, ic, oc = connect port in
         let reply =
           roundtrip ic oc
             (Wire.Select { pool = "nope"; budget = 5.; prior = Wire.default_prior; seed = 1 })
         in
         Unix.close fd;
         match reply with
         | Wire.Error { code = Wire.Unknown_pool; _ } -> true
         | _ -> false);
      (* A malformed line costs one [err bad-request] reply, not the
         connection. *)
      let fd, ic, oc = connect port in
      output_string oc "select pool=itest budget=squid\n";
      flush oc;
      (match Wire.decode_response (input_line ic) with
      | Ok (Wire.Error { code = Wire.Bad_request; _ }) -> ()
      | Ok r -> Alcotest.failf "bad line: %s" (Wire.encode_response r)
      | Error e -> Alcotest.failf "bad line: undecodable reply %s" e);
      check_response "connection survives" Wire.Pong (roundtrip ic oc Wire.Ping);
      Unix.close fd)

(* The multi-class mirror of [integration_test]: a 3-label confusion-matrix
   pool registered over TCP must answer jq/select/table byte-identically to
   direct engine calls, memo hit or miss (rounds 2-3 are answered from
   the memos).  The expected pool is built from the very floats sent on the
   wire: Confusion.make normalizes rows, and normalization is not bitwise
   idempotent, so both sides must normalize exactly once from the same
   input. *)
let multiclass_integration_test () =
  let labels = 3 in
  let n = 10 in
  let raw =
    Array.init n (fun i ->
        let d = 0.5 +. (0.045 *. float_of_int i) in
        let off = (1. -. d) /. float_of_int (labels - 1) in
        let matrix =
          Array.init labels (fun j ->
              Array.init labels (fun v -> if j = v then d else off))
        in
        (matrix, 1. +. float_of_int (i mod 4)))
  in
  let rows =
    Array.to_list (Array.map (fun (m, c) -> Wire.Matrix_row (m, c)) raw)
  in
  let epool =
    Engine.Pool.of_confusions
      (Array.mapi
         (fun id (matrix, cost) -> Workers.Confusion.make ~id ~matrix ~cost ())
         raw)
  in
  let prior = [ 0.2; 0.5; 0.3 ] in
  let task = Engine.Task.make ~prior:(Array.of_list prior) in
  let buckets = Jq.Bucket.default_num_buckets in
  let expected_jq =
    (* The server answers matrix pools through the scored objective, so the
       oracle must reproduce both the value and the certified bound. *)
    let scored =
      Engine.Objective.bv_bucket_scored ~num_buckets:buckets () ~task epool
    in
    Wire.Jq_result
      {
        value = scored.Engine.Objective.score;
        error_bound = scored.Engine.Objective.bound;
        n;
      }
  in
  let expected_select ~budget ~seed =
    let result =
      Jsp.Annealing.solve_engine ~num_buckets:buckets
        ~rng:(Prob.Rng.create seed) ~task ~budget epool
    in
    Wire.Select_result
      {
        ids = Engine.Pool.ids result.Jsp.Solver.jury;
        score = result.Jsp.Solver.score;
        cost = Engine.Pool.total_cost result.Jsp.Solver.jury;
      }
  in
  let expected_table ~budgets ~seed =
    Wire.Table_result
      (List.map
         (fun budget ->
           match expected_select ~budget ~seed with
           | Wire.Select_result { ids; score; cost } ->
               { Wire.budget; ids; quality = score; required = cost }
           | _ -> assert false)
         budgets)
  in
  with_server ~domains:4 ~queue_capacity:64 (fun _service port ->
      (let fd, ic, oc = connect port in
       (match
          roundtrip ic oc (Wire.Pool_put { name = "m3"; workers = rows })
        with
       | Wire.Pool_info { name = "m3"; size = 10; _ } -> ()
       | r -> Alcotest.failf "pool-put: %s" (Wire.encode_response r));
       Unix.close fd);
      let failures = Array.make 3 None in
      let client i =
        try
          let fd, ic, oc = connect port in
          let seed = 11 + i in
          for _round = 1 to 3 do
            check_response "jq 3-label" expected_jq
              (roundtrip ic oc
                 (Wire.Jq
                    { source = Wire.Named "m3"; prior; num_buckets = buckets }));
            check_response "select 3-label" (expected_select ~budget:5. ~seed)
              (roundtrip ic oc
                 (Wire.Select { pool = "m3"; budget = 5.; prior; seed }));
            check_response "table 3-label"
              (expected_table ~budgets:[ 2.; 5. ] ~seed:13)
              (roundtrip ic oc
                 (Wire.Table
                    { pool = "m3"; budgets = [ 2.; 5. ]; prior; seed = 13 }))
          done;
          Unix.close fd
        with exn -> failures.(i) <- Some (Printexc.to_string exn)
      in
      let threads = List.init 3 (fun i -> Thread.create client i) in
      List.iter Thread.join threads;
      Array.iteri
        (fun i failure ->
          match failure with
          | Some msg -> Alcotest.failf "client %d: %s" i msg
          | None -> ())
        failures;
      (* A prior that disagrees with the pool's label count is a
         per-request error, not an executor crash. *)
      let fd, ic, oc = connect port in
      (match
         roundtrip ic oc
           (Wire.Select
              { pool = "m3"; budget = 5.; prior = Wire.default_prior; seed = 1 })
       with
      | Wire.Error { code = Wire.Bad_request; _ } -> ()
      | r -> Alcotest.failf "label mismatch: %s" (Wire.encode_response r));
      Unix.close fd)

(* Saturate a 1-domain, 1-slot service with slow selects: some submissions
   must be refused with [err overload] while ping stays responsive. *)
let overload_test () =
  let pool = test_pool 120 in
  with_server ~domains:1 ~queue_capacity:1 (fun service _port ->
      (match
         Serve.Service.submit service
           (Wire.Pool_put { name = "big"; workers = wire_workers pool })
       with
      | Wire.Pool_info _ -> ()
      | r -> Alcotest.failf "pool-put: %s" (Wire.encode_response r));
      let overloads = Atomic.make 0 in
      let unexpected = Atomic.make 0 in
      let client i =
        for seed = 1 to 4 do
          match
            Serve.Service.submit service
              (Wire.Select
                 { pool = "big"; budget = 40.; prior = Wire.default_prior; seed = (10 * i) + seed })
          with
          | Wire.Select_result _ -> ()
          | Wire.Error { code = Wire.Overload; _ } -> Atomic.incr overloads
          | r ->
              Atomic.incr unexpected;
              Printf.eprintf "unexpected reply: %s\n" (Wire.encode_response r)
        done
      in
      let threads = List.init 8 (fun i -> Thread.create client i) in
      (* Control plane stays responsive while the queue is saturated. *)
      for _ = 1 to 5 do
        (match Serve.Service.submit service Wire.Ping with
        | Wire.Pong -> ()
        | r -> Alcotest.failf "ping under load: %s" (Wire.encode_response r));
        Thread.delay 0.01
      done;
      List.iter Thread.join threads;
      Alcotest.(check int) "no unexpected replies" 0 (Atomic.get unexpected);
      Alcotest.(check bool)
        "at least one overload" true
        (Atomic.get overloads > 0);
      let stats = Serve.Service.stats service in
      Alcotest.(check bool)
        "overloads counted" true
        (List.assoc "overloads" stats > 0.))

(* After shutdown a select that needs a solve is refused, while a
   memo-hit select, like ping, is still answered: it runs on the calling
   thread. *)
let shutdown_test () =
  let service = Serve.Service.create ~domains:1 ~queue_capacity:4 () in
  ignore
    (Serve.Service.submit service
       (Wire.Pool_put { name = "p"; workers = [ Wire.Scalar (0.8, 1.) ] }));
  let select seed =
    Wire.Select { pool = "p"; budget = 2.; prior = Wire.default_prior; seed }
  in
  let warm = Serve.Service.submit service (select 7) in
  Serve.Service.shutdown service;
  Serve.Service.shutdown service;
  (* idempotent *)
  (match Serve.Service.submit service (select 1) with
  | Wire.Error { code = Wire.Shutdown; _ } -> ()
  | r -> Alcotest.failf "post-shutdown select: %s" (Wire.encode_response r));
  check_response "post-shutdown memo-hit select" warm
    (Serve.Service.submit service (select 7));
  match Serve.Service.submit service Wire.Ping with
  | Wire.Pong -> ()
  | r -> Alcotest.failf "post-shutdown ping: %s" (Wire.encode_response r)

(* ---- session verbs ---------------------------------------------------- *)

let session_open_request ~pool ~task =
  Wire.Session_open
    {
      pool;
      task;
      prior = Wire.default_prior;
      budget = 100.;
      confidence = 0.99;
      gain_floor = 0.;
      policy = Session.Policy.default;
    }

(* Drive one conversation — open, then (advise, vote label_of next)* until
   the session leaves [Sess_open], then close — returning every encoded
   reply line in order. *)
let drive_session ic oc ~pool ~task ~label_of =
  let transcript = ref [] in
  let record reply =
    transcript := Wire.encode_response reply :: !transcript;
    reply
  in
  let reply = ref (record (roundtrip ic oc (session_open_request ~pool ~task))) in
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < 64 do
    incr steps;
    match !reply with
    | Wire.Session_result { state = Wire.Sess_open; next = Some _; _ } -> (
        match
          record (roundtrip ic oc (Wire.Session_advise { pool; task; k = 1 }))
        with
        | Wire.Session_result { state = Wire.Sess_open; next = Some i; _ } ->
            reply :=
              record
                (roundtrip ic oc
                   (Wire.Session_vote { pool; task; worker = i; label = label_of i }))
        | r -> reply := r; continue := false)
    | _ -> continue := false
  done;
  ignore (record (roundtrip ic oc (Wire.Session_close { pool; task })));
  List.rev !transcript

(* Replies are pure functions of (pool, vote history, request): re-running
   the identical conversation — against now-warm executor caches and a
   recycled store slot — must produce a byte-identical transcript. *)
let session_determinism_test () =
  let pool = test_pool 10 in
  with_server ~domains:2 ~queue_capacity:64 (fun _service port ->
      let fd, ic, oc = connect port in
      (match
         roundtrip ic oc
           (Wire.Pool_put { name = "sdet"; workers = wire_workers pool })
       with
      | Wire.Pool_info _ -> ()
      | r -> Alcotest.failf "pool-put: %s" (Wire.encode_response r));
      let label_of i = i mod 2 in
      let cold = drive_session ic oc ~pool:"sdet" ~task:"t0" ~label_of in
      let warm = drive_session ic oc ~pool:"sdet" ~task:"t0" ~label_of in
      Alcotest.(check (list string)) "warm replay is byte-identical" cold warm;
      Alcotest.(check bool) "conversation went somewhere" true
        (List.length cold > 2);
      (* A verb on the closed session is an unknown-session error. *)
      (match
         roundtrip ic oc
           (Wire.Session_advise { pool = "sdet"; task = "t0"; k = 1 })
       with
      | Wire.Error { code = Wire.Unknown_session; _ } -> ()
      | r -> Alcotest.failf "closed session: %s" (Wire.encode_response r));
      Unix.close fd)

(* Interleaved votes on two sessions must never cross-contaminate.  With a
   uniform prior and scalar workers, feeding session A all-0 votes and
   session B all-1 votes from the same workers makes the two posteriors
   exact mirrors — any leakage between the stores breaks the symmetry. *)
let session_isolation_test () =
  let pool = test_pool 8 in
  with_server ~domains:2 ~queue_capacity:64 (fun service port ->
      let fd, ic, oc = connect port in
      (match
         roundtrip ic oc
           (Wire.Pool_put { name = "iso"; workers = wire_workers pool })
       with
      | Wire.Pool_info _ -> ()
      | r -> Alcotest.failf "pool-put: %s" (Wire.encode_response r));
      (* Deterministic interleave on one connection: strictly alternate
         verbs between the two tasks. *)
      let open_task task =
        match roundtrip ic oc (session_open_request ~pool:"iso" ~task) with
        | Wire.Session_result r -> Wire.Session_result r
        | r -> Alcotest.failf "open %s: %s" task (Wire.encode_response r)
      in
      let a = ref (open_task "a") and b = ref (open_task "b") in
      let vote task label reply =
        match reply with
        | Wire.Session_result { state = Wire.Sess_open; next = Some i; _ } ->
            roundtrip ic oc
              (Wire.Session_vote { pool = "iso"; task; worker = i; label })
        | r -> r
      in
      let still_open = function
        | Wire.Session_result { state = Wire.Sess_open; next = Some _; _ } ->
            true
        | _ -> false
      in
      let rounds = ref 0 in
      while (still_open !a || still_open !b) && !rounds < 32 do
        incr rounds;
        a := vote "a" 0 !a;
        b := vote "b" 1 !b
      done;
      (match (!a, !b) with
      | ( Wire.Session_result
            { task = "a"; posterior = pa; votes = va; decision = Some 0; _ },
          Wire.Session_result
            { task = "b"; posterior = pb; votes = vb; decision = Some 1; _ } )
        ->
          Alcotest.(check int) "same vote count" va vb;
          Alcotest.(check (list (float 1e-9)))
            "mirror posteriors" pa (List.rev pb)
      | ra, rb ->
          Alcotest.failf "unexpected finals: %s / %s"
            (Wire.encode_response ra) (Wire.encode_response rb));
      ignore (roundtrip ic oc (Wire.Session_close { pool = "iso"; task = "a" }));
      ignore (roundtrip ic oc (Wire.Session_close { pool = "iso"; task = "b" }));
      Unix.close fd;
      (* Concurrent connections: each thread drives its own session; every
         final snapshot must reflect only its own unanimous votes. *)
      let failures = Array.make 4 None in
      let client i =
        try
          let fd, ic, oc = connect port in
          let task = Printf.sprintf "c%d" i in
          let label = i mod 2 in
          let transcript =
            drive_session ic oc ~pool:"iso" ~task ~label_of:(fun _ -> label)
          in
          (* The last reply before the close echo is the final snapshot. *)
          (match
             Wire.decode_response (List.nth transcript (List.length transcript - 2))
           with
          | Ok (Wire.Session_result { task = t; decision = Some d; _ }) ->
              if t <> task then failwith ("snapshot for wrong task " ^ t);
              if d <> label then
                failwith (Printf.sprintf "decision %d under unanimous %d" d label)
          | Ok r -> failwith ("unexpected final " ^ Wire.encode_response r)
          | Error e -> failwith e);
          Unix.close fd
        with exn -> failures.(i) <- Some (Printexc.to_string exn)
      in
      let threads = List.init 4 (fun i -> Thread.create client i) in
      List.iter Thread.join threads;
      Array.iteri
        (fun i failure ->
          match failure with
          | Some msg -> Alcotest.failf "client %d: %s" i msg
          | None -> ())
        failures;
      let stats = Serve.Service.stats service in
      Alcotest.(check bool) "session verbs counted" true
        (List.assoc "session_verbs" stats > 0.);
      Alcotest.(check bool) "verb latency quantiles present" true
        (List.mem_assoc "session_verb_ns_p95" stats))

(* A pool-put bumps the registry version; every live session on that pool
   must answer [err unknown-session] from then on. *)
let session_invalidation_test () =
  let pool = test_pool 6 in
  with_server ~domains:1 ~queue_capacity:16 (fun service port ->
      let fd, ic, oc = connect port in
      let put () =
        match
          roundtrip ic oc
            (Wire.Pool_put { name = "inv"; workers = wire_workers pool })
        with
        | Wire.Pool_info _ -> ()
        | r -> Alcotest.failf "pool-put: %s" (Wire.encode_response r)
      in
      put ();
      (match roundtrip ic oc (session_open_request ~pool:"inv" ~task:"t") with
      | Wire.Session_result { state = Wire.Sess_open; _ } -> ()
      | r -> Alcotest.failf "open: %s" (Wire.encode_response r));
      (* A vote on a task that was never opened is unknown, not a crash. *)
      (match
         roundtrip ic oc
           (Wire.Session_vote { pool = "inv"; task = "ghost"; worker = 0; label = 0 })
       with
      | Wire.Error { code = Wire.Unknown_session; _ } -> ()
      | r -> Alcotest.failf "ghost vote: %s" (Wire.encode_response r));
      put ();
      (match
         roundtrip ic oc (Wire.Session_advise { pool = "inv"; task = "t"; k = 1 })
       with
      | Wire.Error { code = Wire.Unknown_session; _ } -> ()
      | r -> Alcotest.failf "post-put advise: %s" (Wire.encode_response r));
      Unix.close fd;
      let stats = Serve.Service.stats service in
      Alcotest.(check bool) "invalidation counted" true
        (List.assoc "sessions_invalidated" stats > 0.))

(* Admission control: a 1-slot store refuses the second open with
   [err overload] and admits it again once the first session closes. *)
let session_cap_test () =
  let service =
    Serve.Service.create ~domains:1 ~queue_capacity:16 ~session_cap:1 ()
  in
  Fun.protect
    ~finally:(fun () -> Serve.Service.shutdown service)
    (fun () ->
      let submit r = Serve.Service.submit service r in
      (match
         submit
           (Wire.Pool_put { name = "cap"; workers = wire_workers (test_pool 5) })
       with
      | Wire.Pool_info _ -> ()
      | r -> Alcotest.failf "pool-put: %s" (Wire.encode_response r));
      (match submit (session_open_request ~pool:"cap" ~task:"a") with
      | Wire.Session_result _ -> ()
      | r -> Alcotest.failf "open a: %s" (Wire.encode_response r));
      (match submit (session_open_request ~pool:"cap" ~task:"b") with
      | Wire.Error { code = Wire.Overload; _ } -> ()
      | r -> Alcotest.failf "open b at cap: %s" (Wire.encode_response r));
      (* Re-opening a live key is a bad request, not an overload. *)
      (match submit (session_open_request ~pool:"cap" ~task:"a") with
      | Wire.Error { code = Wire.Bad_request; _ } -> ()
      | r -> Alcotest.failf "reopen a: %s" (Wire.encode_response r));
      (match submit (Wire.Session_close { pool = "cap"; task = "a" }) with
      | Wire.Session_result { state = Wire.Sess_closed; _ } -> ()
      | r -> Alcotest.failf "close a: %s" (Wire.encode_response r));
      (match submit (session_open_request ~pool:"cap" ~task:"b") with
      | Wire.Session_result _ -> ()
      | r -> Alcotest.failf "open b after close: %s" (Wire.encode_response r));
      let stats = Serve.Service.stats service in
      Alcotest.(check (float 0.)) "one rejection" 1.
        (List.assoc "sessions_rejected" stats);
      Alcotest.(check (float 0.)) "two admissions" 2.
        (List.assoc "sessions_opened" stats))

(* The [sessions_*] rows sum every shard's store: pools homed on
   different shards each hold sessions, and the totals count them all. *)
let session_rows_sum_shards_test () =
  let domains = 3 in
  let service = Serve.Service.create ~domains ~queue_capacity:16 () in
  Fun.protect
    ~finally:(fun () -> Serve.Service.shutdown service)
    (fun () ->
      let submit r = Serve.Service.submit service r in
      (* One pool per home shard, by the service's pool-name affinity. *)
      let pools =
        List.init domains (fun home ->
            let rec find i =
              let name = Printf.sprintf "home%d" i in
              if Hashtbl.hash name mod domains = home then name
              else find (i + 1)
            in
            find 0)
      in
      List.iteri
        (fun i pool ->
          let workers = wire_workers (test_pool 5) in
          (match submit (Wire.Pool_put { name = pool; workers }) with
          | Wire.Pool_info _ -> ()
          | r -> Alcotest.failf "pool-put %s: %s" pool (Wire.encode_response r));
          (* i + 1 sessions on the i-th pool; the first of them closed. *)
          for k = 0 to i do
            let task = Printf.sprintf "t%d" k in
            match submit (session_open_request ~pool ~task) with
            | Wire.Session_result _ -> ()
            | r ->
                Alcotest.failf "open %s/%s: %s" pool task (Wire.encode_response r)
          done;
          match submit (Wire.Session_close { pool; task = "t0" }) with
          | Wire.Session_result { state = Wire.Sess_closed; _ } -> ()
          | r -> Alcotest.failf "close %s/t0: %s" pool (Wire.encode_response r))
        pools;
      let stats = Serve.Service.stats service in
      Alcotest.(check (float 0.)) "opened on every shard" 6.
        (List.assoc "sessions_opened" stats);
      Alcotest.(check (float 0.)) "resident on every shard" 3.
        (List.assoc "sessions_open" stats))

(* ---- quality plane ---------------------------------------------------- *)

let scalar_rows qs = List.map (fun q -> Wire.Scalar (q, 1.)) qs

let calib_vote ?truth task worker label = { Workers.Calib.task; worker; label; truth }

(* Every quality mutation must flow through a version bump: an applied
   report batch retires warm session state exactly like a pool-put, and the
   readback reflects the folded-in votes. *)
let report_invalidation_test () =
  let calib_config = { Workers.Calib.default_config with Workers.Calib.batch = 8 } in
  with_server ~calib_config ~domains:2 ~queue_capacity:64 (fun service port ->
      let fd, ic, oc = connect port in
      let v1 =
        match
          roundtrip ic oc
            (Wire.Pool_put
               { name = "qp"; workers = scalar_rows [ 0.9; 0.85; 0.8; 0.75; 0.7; 0.65 ] })
        with
        | Wire.Pool_info { version; size = 6; _ } -> version
        | r -> Alcotest.failf "pool-put: %s" (Wire.encode_response r)
      in
      (match roundtrip ic oc (Wire.Quality { pool = "qp" }) with
      | Wire.Quality_result { name = "qp"; version; workers } ->
          Alcotest.(check int) "readback at the put version" v1 version;
          Alcotest.(check int) "one row per worker" 6 (List.length workers);
          List.iter
            (fun (_, _, votes) -> Alcotest.(check int) "no votes yet" 0 votes)
            workers
      | r -> Alcotest.failf "quality: %s" (Wire.encode_response r));
      (* A sub-batch report buffers without touching the version. *)
      (match
         roundtrip ic oc
           (Wire.Report { pool = "qp"; votes = [ calib_vote ~truth:1 900 0 1 ] })
       with
      | Wire.Report_result { version; applied = 0; pending = 1; _ } ->
          Alcotest.(check int) "buffered report keeps the version" v1 version
      | r -> Alcotest.failf "small report: %s" (Wire.encode_response r));
      (match roundtrip ic oc (session_open_request ~pool:"qp" ~task:"t") with
      | Wire.Session_result { state = Wire.Sess_open; _ } -> ()
      | r -> Alcotest.failf "open: %s" (Wire.encode_response r));
      (* Seven more votes make the batch due: applied, version bumped. *)
      let votes = List.init 7 (fun i -> calib_vote ~truth:1 i (succ i mod 6) 1) in
      let v2 =
        match roundtrip ic oc (Wire.Report { pool = "qp"; votes }) with
        | Wire.Report_result
            { name = "qp"; version; applied = 8; pending = 0; drifted = []; _ } ->
            Alcotest.(check bool) "applied batch bumps the version" true (version > v1);
            version
        | r -> Alcotest.failf "report: %s" (Wire.encode_response r)
      in
      (* The warm session predates the bump: retired, not resumed. *)
      (match
         roundtrip ic oc (Wire.Session_advise { pool = "qp"; task = "t"; k = 1 })
       with
      | Wire.Error { code = Wire.Unknown_session; _ } -> ()
      | r -> Alcotest.failf "post-report advise: %s" (Wire.encode_response r));
      (match roundtrip ic oc (Wire.Quality { pool = "qp" }) with
      | Wire.Quality_result { version; workers; _ } ->
          Alcotest.(check int) "readback at the bumped version" v2 version;
          Alcotest.(check int) "all votes accounted" 8
            (List.fold_left (fun a (_, _, v) -> a + v) 0 workers);
          List.iter
            (fun (_, q, _) ->
              Alcotest.(check bool) "estimates stay in (0,1)" true (q > 0. && q < 1.))
            workers
      | r -> Alcotest.failf "quality after report: %s" (Wire.encode_response r));
      (* Malformed votes and unknown pools are wire errors, not crashes. *)
      (match
         roundtrip ic oc (Wire.Report { pool = "qp"; votes = [ calib_vote 0 0 7 ] })
       with
      | Wire.Error { code = Wire.Bad_request; _ } -> ()
      | r -> Alcotest.failf "bad label: %s" (Wire.encode_response r));
      (match roundtrip ic oc (Wire.Report { pool = "ghost"; votes }) with
      | Wire.Error { code = Wire.Unknown_pool; _ } -> ()
      | r -> Alcotest.failf "ghost report: %s" (Wire.encode_response r));
      (match roundtrip ic oc (Wire.Recal { pool = "qp" }) with
      | Wire.Report_result { applied = 0; _ } -> ()
      | r -> Alcotest.failf "recal: %s" (Wire.encode_response r));
      Unix.close fd;
      let stats = Serve.Service.stats service in
      Alcotest.(check bool) "ingests counted" true (List.assoc "ingests" stats >= 2.);
      Alcotest.(check bool) "votes counted" true
        (List.assoc "votes_ingested" stats >= 8.);
      Alcotest.(check bool) "ingest latency tracked" true
        (List.mem_assoc "ingest_ns_p95" stats);
      Alcotest.(check bool) "quality-plane gauges exported" true
        (List.mem_assoc "stale_pools" stats && List.mem_assoc "drift_flags" stats))

(* A mid-stream spammer must be flagged within one drift window and the
   standing jury re-selected away from them. *)
let drift_reselection_test () =
  let calib_config = { Workers.Calib.default_config with Workers.Calib.batch = 24 } in
  with_server ~calib_config ~domains:1 ~queue_capacity:16 (fun service port ->
      let fd, ic, oc = connect port in
      (match
         roundtrip ic oc
           (Wire.Pool_put
              { name = "drift"; workers = scalar_rows [ 0.9; 0.85; 0.8; 0.78; 0.76; 0.74 ] })
       with
      | Wire.Pool_info _ -> ()
      | r -> Alcotest.failf "pool-put: %s" (Wire.encode_response r));
      let select () =
        match
          roundtrip ic oc
            (Wire.Select
               { pool = "drift"; budget = 3.; prior = Wire.default_prior; seed = 5 })
        with
        | Wire.Select_result { ids; _ } -> ids
        | r -> Alcotest.failf "select: %s" (Wire.encode_response r)
      in
      let before = select () in
      Alcotest.(check bool) "the strongest worker starts on the jury" true
        (List.mem 0 before);
      (* Worker 0 turns into a coin flipper: one drift window of gold
         answers at exactly chance agreement. *)
      let votes = List.init 24 (fun i -> calib_vote ~truth:1 i 0 (i mod 2)) in
      (match roundtrip ic oc (Wire.Report { pool = "drift"; votes }) with
      | Wire.Report_result { applied = 24; drifted; stale; recals; _ } ->
          Alcotest.(check (list int)) "spammer flagged within one window" [ 0 ] drifted;
          Alcotest.(check bool) "standing juries went stale" true stale;
          Alcotest.(check int) "one standing jury re-selected" 1 recals
      | r -> Alcotest.failf "report: %s" (Wire.encode_response r));
      (match roundtrip ic oc (Wire.Quality { pool = "drift" }) with
      | Wire.Quality_result { workers; _ } -> (
          match List.assoc_opt 0 (List.map (fun (i, q, v) -> (i, (q, v))) workers) with
          | Some (q, votes) ->
              Alcotest.(check bool) "re-anchored near chance" true
                (Float.abs (q -. 0.5) <= 0.05);
              Alcotest.(check int) "votes attributed" 24 votes
          | None -> Alcotest.fail "worker 0 missing from readback")
      | r -> Alcotest.failf "quality: %s" (Wire.encode_response r));
      let after = select () in
      Alcotest.(check bool) "re-selection drops the spammer" true
        (not (List.mem 0 after));
      Unix.close fd;
      let stats = Serve.Service.stats service in
      Alcotest.(check bool) "re-selection counted" true
        (List.assoc "recal_runs" stats >= 1.);
      Alcotest.(check bool) "drift flag exported" true
        (List.assoc "drift_flags" stats >= 1.))

(* [decide truth=g] closes the session as a gold example; labels outside
   the task's range are a wire error that leaves the session alive. *)
let decide_truth_test () =
  with_server ~domains:1 ~queue_capacity:16 (fun _service port ->
      let fd, ic, oc = connect port in
      (match
         roundtrip ic oc
           (Wire.Pool_put { name = "dt"; workers = scalar_rows [ 0.55; 0.7; 0.7 ] })
       with
      | Wire.Pool_info _ -> ()
      | r -> Alcotest.failf "pool-put: %s" (Wire.encode_response r));
      (match roundtrip ic oc (session_open_request ~pool:"dt" ~task:"t") with
      | Wire.Session_result { state = Wire.Sess_open; _ } -> ()
      | r -> Alcotest.failf "open: %s" (Wire.encode_response r));
      (match
         roundtrip ic oc
           (Wire.Session_vote { pool = "dt"; task = "t"; worker = 0; label = 0 })
       with
      | Wire.Session_result _ -> ()
      | r -> Alcotest.failf "vote: %s" (Wire.encode_response r));
      (match
         roundtrip ic oc
           (Wire.Session_decide { pool = "dt"; task = "t"; truth = Some 7 })
       with
      | Wire.Error { code = Wire.Bad_request; _ } -> ()
      | r -> Alcotest.failf "out-of-range truth: %s" (Wire.encode_response r));
      (* The bad decide did not kill the session. *)
      (match
         roundtrip ic oc (Wire.Session_advise { pool = "dt"; task = "t"; k = 1 })
       with
      | Wire.Session_result { state = Wire.Sess_open; _ } -> ()
      | r -> Alcotest.failf "advise after bad decide: %s" (Wire.encode_response r));
      (match
         roundtrip ic oc
           (Wire.Session_decide { pool = "dt"; task = "t"; truth = Some 0 })
       with
      | Wire.Session_result { decision = Some _; _ } -> ()
      | r -> Alcotest.failf "decide: %s" (Wire.encode_response r));
      (* The decided session fed its vote to the calibrator as gold; a
         forced recalibration folds it in. *)
      (match roundtrip ic oc (Wire.Recal { pool = "dt" }) with
      | Wire.Report_result { applied; _ } ->
          Alcotest.(check int) "session vote reached the calibrator" 1 applied
      | r -> Alcotest.failf "recal: %s" (Wire.encode_response r));
      Unix.close fd)

(* A vote that decides a session feeds its votes to calibration; when
   that completes a mini-batch the pool version bumps under the session.
   The session is terminal by then, so it must keep serving its snapshot
   rather than answer [err unknown-session]. *)
let deciding_vote_batch_test () =
  let calib_config = { Workers.Calib.default_config with Workers.Calib.batch = 8 } in
  with_server ~calib_config ~domains:1 ~queue_capacity:16 (fun service port ->
      let fd, ic, oc = connect port in
      let v1 =
        match
          roundtrip ic oc
            (Wire.Pool_put
               { name = "dv"; workers = scalar_rows [ 0.95; 0.9; 0.85; 0.8; 0.75 ] })
        with
        | Wire.Pool_info { version; _ } -> version
        | r -> Alcotest.failf "pool-put: %s" (Wire.encode_response r)
      in
      (* Seven buffered votes: the session's feed completes the batch. *)
      let votes = List.init 7 (fun i -> calib_vote ~truth:1 (900 + i) (i mod 5) 1) in
      (match roundtrip ic oc (Wire.Report { pool = "dv"; votes }) with
      | Wire.Report_result { applied = 0; pending = 7; _ } -> ()
      | r -> Alcotest.failf "sub-batch report: %s" (Wire.encode_response r));
      let reply = ref (roundtrip ic oc (session_open_request ~pool:"dv" ~task:"t")) in
      let steps = ref 0 in
      while
        match !reply with
        | Wire.Session_result { state = Wire.Sess_open; _ } -> true
        | _ -> false
      do
        incr steps;
        if !steps > 5 then Alcotest.fail "session never decided";
        match !reply with
        | Wire.Session_result { next = Some worker; _ } ->
            reply :=
              roundtrip ic oc
                (Wire.Session_vote { pool = "dv"; task = "t"; worker; label = 1 })
        | r -> Alcotest.failf "open session without advice: %s" (Wire.encode_response r)
      done;
      let decided = !reply in
      (match decided with
      | Wire.Session_result { state = Wire.Sess_decided; decision = Some 1; _ } -> ()
      | r -> Alcotest.failf "deciding vote: %s" (Wire.encode_response r));
      (match roundtrip ic oc (Wire.Quality { pool = "dv" }) with
      | Wire.Quality_result { version; _ } ->
          Alcotest.(check bool) "the feed bumped the version" true (version > v1)
      | r -> Alcotest.failf "quality: %s" (Wire.encode_response r));
      check_response "decide answers the terminal snapshot" decided
        (roundtrip ic oc
           (Wire.Session_decide { pool = "dv"; task = "t"; truth = Some 1 }));
      check_response "advise answers the terminal snapshot" decided
        (roundtrip ic oc (Wire.Session_advise { pool = "dv"; task = "t"; k = 3 }));
      (match roundtrip ic oc (Wire.Session_close { pool = "dv"; task = "t" }) with
      | Wire.Session_result { state = Wire.Sess_closed; decision = Some 1; _ } -> ()
      | r -> Alcotest.failf "close: %s" (Wire.encode_response r));
      Unix.close fd;
      Alcotest.(check (float 0.)) "nothing invalidated" 0.
        (List.assoc "sessions_invalidated" (Serve.Service.stats service)))

(* ---- jury memo -------------------------------------------------------- *)

let with_service ?calib_config f =
  let service = Serve.Service.create ?calib_config ~domains:1 () in
  Fun.protect ~finally:(fun () -> Serve.Service.shutdown service) (fun () ->
      f service)

let put_pool service name pool =
  match
    Serve.Service.submit service (Wire.Pool_put { name; workers = wire_workers pool })
  with
  | Wire.Pool_info _ -> ()
  | r -> Alcotest.failf "pool-put: %s" (Wire.encode_response r)

let stat_of service key =
  match List.assoc_opt key (Serve.Service.stats service) with
  | Some v -> v
  | None -> Alcotest.failf "stats: missing %s" key

(* Run [f] and return its result with how far [select_memo_hits] and
   [solves] rose meanwhile. *)
let counting service f =
  let hits0 = stat_of service "select_memo_hits"
  and solves0 = stat_of service "solves" in
  let v = f () in
  ( v,
    stat_of service "select_memo_hits" -. hits0,
    stat_of service "solves" -. solves0 )

let select_request ~seed =
  Wire.Select { pool = "memo"; budget = 12.; prior = Wire.default_prior; seed }

(* A replayed select, and the table row with the same key, are answered
   from the memo: no solve runs, and the bytes equal the first reply. *)
let memo_replay_test () =
  let pool = test_pool 12 in
  with_service (fun service ->
      put_pool service "memo" pool;
      let submit = Serve.Service.submit service in
      let first, hits, solves = counting service (fun () -> submit (select_request ~seed:9)) in
      check_response "cold select = direct solve"
        (direct_select (Engine.Pool.of_workers pool) ~budget:12. ~seed:9)
        first;
      Alcotest.(check (float 0.)) "cold select is a miss" 0. hits;
      Alcotest.(check (float 0.)) "cold select runs a solve" 1. solves;
      let again, hits, solves = counting service (fun () -> submit (select_request ~seed:9)) in
      check_response "replay bytes" first again;
      Alcotest.(check (float 0.)) "replay is a hit" 1. hits;
      Alcotest.(check (float 0.)) "replay runs no solve" 0. solves;
      let table, hits, solves =
        counting service (fun () ->
            submit
              (Wire.Table
                 { pool = "memo"; budgets = [ 12. ]; prior = Wire.default_prior; seed = 9 }))
      in
      (match (table, first) with
      | Wire.Table_result [ row ], Wire.Select_result { ids; score; cost } ->
          check_response "table row = select"
            (Wire.Table_result [ { Wire.budget = 12.; ids; quality = score; required = cost } ])
            (Wire.Table_result [ row ])
      | r, _ -> Alcotest.failf "table: %s" (Wire.encode_response r));
      Alcotest.(check (float 0.)) "table row is a hit" 1. hits;
      Alcotest.(check (float 0.)) "table row runs no solve" 0. solves;
      (* One memoized row and one new one: the table is solved once, on an
         executor, and its one hit is counted once. *)
      let _, hits, solves =
        counting service (fun () ->
            submit
              (Wire.Table
                 { pool = "memo"; budgets = [ 12.; 7. ]; prior = Wire.default_prior; seed = 9 }))
      in
      Alcotest.(check (float 0.)) "half-memoized table counts one hit" 1. hits;
      Alcotest.(check (float 0.)) "half-memoized table solves its new row" 1. solves)

(* A version bump — pool-put or an applied report batch — keys a new
   row: the same select misses and is answered for the new version. *)
let memo_version_test () =
  let calib_config = { Workers.Calib.default_config with Workers.Calib.batch = 8 } in
  with_service ~calib_config (fun service ->
      let submit = Serve.Service.submit service in
      let served () =
        match Serve.Registry.find (Serve.Service.registry service) "memo" with
        | Some (epool, _) -> epool
        | None -> Alcotest.fail "pool vanished"
      in
      let miss_answers_current name =
        let reply, hits, solves = counting service (fun () -> submit (select_request ~seed:4)) in
        check_response name (direct_select (served ()) ~budget:12. ~seed:4) reply;
        Alcotest.(check (float 0.)) (name ^ ": miss") 0. hits;
        Alcotest.(check (float 0.)) (name ^ ": solve ran") 1. solves
      in
      put_pool service "memo" (test_pool 12);
      miss_answers_current "first put";
      ignore (submit (select_request ~seed:4));
      put_pool service "memo" (test_pool 11);
      miss_answers_current "after pool-put";
      let votes = List.init 8 (fun i -> calib_vote ~truth:1 i (i mod 11) 1) in
      (match submit (Wire.Report { pool = "memo"; votes }) with
      | Wire.Report_result { applied = 8; stale = false; _ } -> ()
      | r -> Alcotest.failf "report: %s" (Wire.encode_response r));
      miss_answers_current "after an applied report")

(* More distinct keys than the memo holds empty it; the first key is then
   solved again and still answers the same bytes. *)
let memo_overflow_test () =
  let pool = test_pool 6 in
  with_service (fun service ->
      put_pool service "memo" pool;
      let submit = Serve.Service.submit service in
      let first = submit (select_request ~seed:0) in
      for seed = 1 to Serve.Service.row_memo_cap do
        ignore (submit (select_request ~seed))
      done;
      let again, hits, solves = counting service (fun () -> submit (select_request ~seed:0)) in
      check_response "evicted key replies the same bytes" first again;
      check_response "evicted key = direct solve"
        (direct_select (Engine.Pool.of_workers pool) ~budget:12. ~seed:0)
        again;
      Alcotest.(check (float 0.)) "evicted key is a miss" 0. hits;
      Alcotest.(check (float 0.)) "evicted key is solved again" 1. solves)

(* ---- executor score tables ------------------------------------------- *)

let uniform3 = [ 1. /. 3.; 1. /. 3.; 1. /. 3. ]

(* A 3-label pool of [n] workers drawn the way the load generator draws
   them: each reports the truth with its quality and spreads the rest. *)
let matrix_rows ~seed n =
  let rng = Prob.Rng.create seed in
  List.init n (fun _ ->
      let d = 0.45 +. Prob.Rng.float rng 0.45 in
      Wire.Matrix_row (matrix_of ~labels:3 d, 0.5 +. Prob.Rng.float rng 2.))

let put_rows service name workers =
  match Serve.Service.submit service (Wire.Pool_put { name; workers }) with
  | Wire.Pool_info _ -> ()
  | r -> Alcotest.failf "pool-put: %s" (Wire.encode_response r)

let matrix_select ~budget ~seed =
  Wire.Select { pool = "m"; budget; prior = uniform3; seed }

let score_table_targets =
  [
    matrix_select ~budget:4. ~seed:9;
    Wire.Table { pool = "m"; budgets = [ 3.; 6. ]; prior = uniform3; seed = 9 };
  ]

(* The replies to [score_table_targets] after [warm] ran, with how far
   [solves] and [cache_misses] rose over the targets alone. *)
let score_table_replies ~warm =
  with_service (fun service ->
      put_rows service "m" (matrix_rows ~seed:3 10);
      warm service;
      let solves0 = stat_of service "solves"
      and misses0 = stat_of service "cache_misses" in
      let replies = List.map (Serve.Service.submit service) score_table_targets in
      ( replies,
        stat_of service "solves" -. solves0,
        stat_of service "cache_misses" -. misses0 ))

(* Matrix selects and table rows on an executor table that other selects
   warmed answer the very bytes a fresh service does, and read some of
   their scores from the table instead of running the kernel. *)
let warmed_table_test () =
  let fresh, fresh_solves, fresh_misses = score_table_replies ~warm:ignore in
  let warmed, warm_solves, warm_misses =
    score_table_replies ~warm:(fun service ->
        List.iter
          (fun seed ->
            ignore
              (Serve.Service.submit service
                 (matrix_select ~budget:(1. +. float_of_int seed) ~seed)))
          [ 1; 2; 3; 4; 5 ])
  in
  List.iter2 (check_response "warmed table = fresh service") fresh warmed;
  Alcotest.(check (float 0.)) "three solves either way" 3. fresh_solves;
  Alcotest.(check (float 0.)) "three solves on the warmed table" 3. warm_solves;
  Alcotest.(check bool)
    "the warmed table saves kernel runs" true (warm_misses < fresh_misses)

(* A version bump — pool-put or an applied report batch — keys a new score
   table, so no score of the old pool version reaches a new solve: the
   select answers what a fresh solve on the served pool does. *)
let score_table_version_test () =
  let calib_config = { Workers.Calib.default_config with Workers.Calib.batch = 8 } in
  with_service ~calib_config (fun service ->
      let submit = Serve.Service.submit service in
      let target = matrix_select ~budget:5. ~seed:4 in
      let answers_served name =
        let served =
          match Serve.Registry.find (Serve.Service.registry service) "m" with
          | Some (epool, _) -> epool
          | None -> Alcotest.fail "pool vanished"
        in
        check_response name
          (direct_select ~prior:uniform3 served ~budget:5. ~seed:4)
          (submit target)
      in
      let warm () =
        List.iter
          (fun seed -> ignore (submit (matrix_select ~budget:5. ~seed)))
          [ 1; 2; 3 ]
      in
      let rows = matrix_rows ~seed:3 10 in
      put_rows service "m" rows;
      warm ();
      answers_served "first put";
      (* The same costs, so the new version's solve starts down the old
         one's path and meets juries the table scored for the old pool. *)
      put_rows service "m"
        (List.map
           (function
             | Wire.Matrix_row (m, c) ->
                 Wire.Matrix_row
                   (matrix_of ~labels:3 (0.45 +. Float.rem (7. *. m.(0).(0)) 0.45), c)
             | row -> row)
           rows);
      answers_served "after pool-put";
      warm ();
      let votes = List.init 8 (fun i -> calib_vote ~truth:1 i (i mod 10) 1) in
      (match submit (Wire.Report { pool = "m"; votes }) with
      | Wire.Report_result { applied = 8; stale = false; _ } -> ()
      | r -> Alcotest.failf "report: %s" (Wire.encode_response r));
      answers_served "after an applied report")

(* ---- inline reads ---------------------------------------------------- *)

let warm_pool = "warm"

let warm_reads =
  [
    ( "select",
      Wire.Select { pool = warm_pool; budget = 12.; prior = Wire.default_prior; seed = 5 } );
    ( "table",
      Wire.Table
        { pool = warm_pool; budgets = [ 6.; 12. ]; prior = Wire.default_prior; seed = 5 } );
    ( "jq",
      Wire.Jq { source = Wire.Named warm_pool; prior = Wire.default_prior; num_buckets = 50 } );
    ("quality", Wire.Quality { pool = warm_pool });
    ("fleet-status", Wire.Fleet_status { pool = warm_pool; task = None });
    ("fleet-status task", Wire.Fleet_status { pool = warm_pool; task = Some "f" });
  ]

(* Register the warm pool with a fleet task on it, so that every read in
   [warm_reads] has an answer. *)
let prime_warm_pool service =
  put_pool service warm_pool (test_pool 12);
  match
    Serve.Service.submit service
      (Wire.Fleet_submit
         { pool = warm_pool; task = "f"; prior = Wire.default_prior; budget = 10.; tier = 0;
           target = 0. })
  with
  | Wire.Fleet_task _ -> ()
  | r -> Alcotest.failf "fleet-submit: %s" (Wire.encode_response r)

(* Submit [request] without blocking.  Its continuation applies [f] to the
   reply, on whichever thread it runs; the returned function waits for
   that and gives [f]'s result. *)
let submit_await service request f =
  let lock = Mutex.create () and cond = Condition.create () in
  let result = ref None in
  Serve.Service.submit_async service request ~k:(fun reply ->
      let v = f reply in
      Mutex.lock lock;
      result := Some v;
      Condition.signal cond;
      Mutex.unlock lock);
  fun () ->
    Mutex.lock lock;
    while !result = None do
      Condition.wait cond lock
    done;
    Mutex.unlock lock;
    Option.get !result

let with_thread_id reply = (reply, Thread.id (Thread.self ()))

(* [request]'s first reply on an idle service, and whether an executor
   gave it. *)
let first_reply service request =
  let reply, on = submit_await service request with_thread_id () in
  (reply, on <> Thread.id (Thread.self ()))

(* Start a slow cold select on [service]'s pool "big" and wait until the
   executor has taken it off the queue. *)
let occupy_executor service =
  Serve.Service.submit_async service
    (Wire.Select { pool = "big"; budget = 40.; prior = Wire.default_prior; seed = 1 })
    ~k:ignore;
  while stat_of service "queue_len" > 0. do
    Thread.yield ()
  done

(* With its one executor busy on a slow cold select and its one queue slot
   taken, a service still answers every warm read, byte-equal to the
   reply the same request got first on the idle service.  That first
   reply came from an executor for every read but [quality], which is
   always answered inline, and the task [fleet-status], which finds the
   allocator the pool [fleet-status] resynced.  A request that needs a
   solve is refused. *)
let saturated_warm_reads_test () =
  let service = Serve.Service.create ~domains:1 ~queue_capacity:1 () in
  Fun.protect ~finally:(fun () -> Serve.Service.shutdown service) (fun () ->
      let submit = Serve.Service.submit service in
      put_pool service "big" (test_pool 120);
      prime_warm_pool service;
      (* Putting the warm pool again leaves its fleet allocator behind the
         registry's version, so the first fleet-status resyncs it on an
         executor. *)
      put_pool service warm_pool (test_pool 12);
      let queued =
        List.map
          (fun (name, request) ->
            let reply, on_executor = first_reply service request in
            let inline = List.mem name [ "quality"; "fleet-status task" ] in
            Alcotest.(check bool) (name ^ " first answered by an executor") (not inline)
              on_executor;
            reply)
          warm_reads
      in
      let cold seed =
        Wire.Select { pool = warm_pool; budget = 9.; prior = Wire.default_prior; seed }
      in
      let expect_overload what seed =
        match submit (cold seed) with
        | Wire.Error { code = Wire.Overload; _ } -> ()
        | r -> Alcotest.failf "%s: a cold select got %s" what (Wire.encode_response r)
      in
      (* The executor takes a slow cold select, then the queue slot fills. *)
      occupy_executor service;
      Serve.Service.submit_async service (cold 1) ~k:ignore;
      expect_overload "before the warm reads" 1001;
      List.iter2
        (fun (name, request) queued ->
          check_response (name ^ " under overload = queued reply") queued (submit request))
        warm_reads queued;
      expect_overload "after the warm reads" 1002)

(* The plane of every verb family.  With the one executor busy and the
   one queue slot taken, a request answered on the submitting thread
   still gets its reply, and one that must be queued gets [err overload]. *)
let plane_table_test () =
  let service = Serve.Service.create ~domains:1 ~queue_capacity:1 () in
  Fun.protect ~finally:(fun () -> Serve.Service.shutdown service) (fun () ->
      let submit = Serve.Service.submit service in
      put_pool service "big" (test_pool 120);
      prime_warm_pool service;
      List.iter (fun (_, request) -> ignore (submit request)) warm_reads;
      let session = "s" in
      ignore (submit (session_open_request ~pool:warm_pool ~task:session));
      occupy_executor service;
      let cold seed =
        Wire.Select { pool = warm_pool; budget = 9.; prior = Wire.default_prior; seed }
      in
      Serve.Service.submit_async service (cold 1) ~k:ignore;
      let inline =
        [
          ("ping", Wire.Ping);
          ("stats", Wire.Stats);
          ("pool-list", Wire.Pool_list);
          ("pool-put", Wire.Pool_put { name = "other"; workers = wire_workers (test_pool 4) });
        ]
        @ warm_reads
      and queued =
        [
          ("open", session_open_request ~pool:warm_pool ~task:"t2");
          ("vote", Wire.Session_vote { pool = warm_pool; task = session; worker = 0; label = 1 });
          ("advise", Wire.Session_advise { pool = warm_pool; task = session; k = 2 });
          ("decide", Wire.Session_decide { pool = warm_pool; task = session; truth = None });
          ("close", Wire.Session_close { pool = warm_pool; task = session });
          ("report", Wire.Report { pool = warm_pool; votes = [ calib_vote 0 0 1 ] });
          ("recal", Wire.Recal { pool = warm_pool });
          ( "fleet-submit",
            Wire.Fleet_submit
              { pool = warm_pool; task = "g"; prior = Wire.default_prior; budget = 4.; tier = 0;
                target = 0. } );
          ("fleet-release", Wire.Fleet_release { pool = warm_pool; task = "f"; decided = false });
          ( "inline jq",
            Wire.Jq { source = Wire.Inline [ 0.7; 0.8 ]; prior = Wire.default_prior; num_buckets = 50 } );
          ("cold select", cold 2);
          ( "cold table",
            Wire.Table
              { pool = warm_pool; budgets = [ 6.; 7. ]; prior = Wire.default_prior; seed = 5 } );
          ( "cold pool jq",
            Wire.Jq { source = Wire.Named warm_pool; prior = Wire.default_prior; num_buckets = 51 } );
        ]
      in
      List.iter
        (fun (name, request) ->
          match submit request with
          | Wire.Error _ as r ->
              Alcotest.failf "%s should be answered inline, got %s" name (Wire.encode_response r)
          | _ -> ())
        inline;
      List.iter
        (fun (name, request) ->
          match submit request with
          | Wire.Error { code = Wire.Overload; _ } -> ()
          | r -> Alcotest.failf "%s should be queued, got %s" name (Wire.encode_response r))
        queued)

(* [submit_async] runs a warm read's continuation on the calling thread
   before it returns, and a miss's on an executor domain. *)
let continuation_thread_test () =
  with_service (fun service ->
      prime_warm_pool service;
      let caller = Thread.id (Thread.self ()) in
      List.iter
        (fun (name, request) ->
          let first, _ = submit_await service request with_thread_id () in
          let ran = ref None in
          Serve.Service.submit_async service request ~k:(fun reply ->
              ran := Some (reply, Thread.id (Thread.self ())));
          match !ran with
          | None -> Alcotest.failf "warm %s: continuation had not run on return" name
          | Some (reply, on) ->
              Alcotest.(check int) ("warm " ^ name ^ " runs on the caller") caller on;
              check_response ("warm " ^ name ^ " bytes") first reply)
        warm_reads;
      let _, on =
        submit_await service
          (Wire.Select { pool = warm_pool; budget = 9.; prior = Wire.default_prior; seed = 77 })
          with_thread_id ()
      in
      Alcotest.(check bool) "a miss runs on an executor" true (on <> caller))

(* Two identical cold pool jq requests queued behind a slow select: the
   first is evaluated, the second answered from the memo it filled, and
   the replies are byte-equal. *)
let queued_duplicate_test () =
  with_service (fun service ->
      put_pool service "big" (test_pool 120);
      put_pool service "dup" (test_pool 9);
      let stat key = stat_of service key in
      let jq = Wire.Jq { source = Wire.Named "dup"; prior = Wire.default_prior; num_buckets = 50 } in
      occupy_executor service;
      let evals0 = stat "jq_evals" and hits0 = stat "jq_memo_hits" in
      let first = submit_await service jq Fun.id and second = submit_await service jq Fun.id in
      check_response "duplicate reply" (first ()) (second ());
      Alcotest.(check (float 0.)) "one evaluation" 1. (stat "jq_evals" -. evals0);
      Alcotest.(check (float 0.)) "one memo hit" 1. (stat "jq_memo_hits" -. hits0))

(* A continuation that raises on the submitting thread runs once: its
   exception reaches the caller, and the request is not also queued. *)
let raising_continuation_test () =
  with_service (fun service ->
      let calls = Atomic.make 0 in
      (match
         Serve.Service.submit_async service Wire.Ping ~k:(fun _ ->
             if Atomic.fetch_and_add calls 1 = 0 then failwith "continuation")
       with
      | () -> Alcotest.fail "the continuation's exception was swallowed"
      | exception Failure _ -> ());
      (* A queued request is answered after any job queued before it. *)
      ignore
        (Serve.Service.submit service
           (Wire.Jq { source = Wire.Inline [ 0.7 ]; prior = Wire.default_prior; num_buckets = 50 }));
      Alcotest.(check int) "continuation calls" 1 (Atomic.get calls))

(* ---- the lock rule ------------------------------------------------- *)

(* Every registry call holds the registry lock for one lookup or one
   publication, never across a calibration step, and [stats] reads the
   shard stores' published gauges; so no read waits behind compute. *)

(* A calibrator that only buffers until a [recal]. *)
let buffering = { Workers.Calib.default_config with Workers.Calib.batch = max_int }

let slow_votes = 40_000

(* Put pool "slow", 200 workers, and buffer [slow_votes] votes on it: 200
   tasks, each answered by every worker, so that a [recal] runs EM over
   all of them. *)
let load_slow_pool service =
  put_pool service "slow" (test_pool 200);
  let votes =
    List.init slow_votes (fun i -> calib_vote (i / 200) (i mod 200) (i * 7919 / 13 mod 2))
  in
  match Serve.Service.submit service (Wire.Report { pool = "slow"; votes }) with
  | Wire.Report_result { applied = 0; _ } -> ()
  | r -> Alcotest.failf "report: %s" (Wire.encode_response r)

(* Start a [recal] of pool "slow" and wait until the executor has taken it
   off the queue.  The returned function waits for its reply and gives it
   with the instant its continuation ran. *)
let start_recal service =
  let wait =
    submit_await service (Wire.Recal { pool = "slow" }) (fun reply ->
        (reply, Serve.Clock.now ()))
  in
  while stat_of service "queue_len" > 0. do
    Thread.yield ()
  done;
  wait

(* Submit [request] from this thread and require its continuation to have
   run there before [submit_async] returned; give the reply, the instant
   it ran and how long the submission took. *)
let answered_here service (name, request) =
  let caller = Thread.id (Thread.self ()) and ran = ref None in
  let t0 = Serve.Clock.now () in
  Serve.Service.submit_async service request ~k:(fun reply ->
      ran := Some (reply, Thread.id (Thread.self ()), Serve.Clock.now ()));
  let took = Serve.Clock.now () -. t0 in
  match !ran with
  | Some (reply, on, at) when on = caller -> (name, reply, at, took)
  | _ -> Alcotest.failf "%s was not answered on the calling thread" name

let recal_applied_all what = function
  | Wire.Report_result { applied; version; _ } when applied = slow_votes -> version
  | r -> Alcotest.failf "%s: %s" what (Wire.encode_response r)

(* While a [recal] runs EM on a large pool, the control verbs and the
   reads of any pool, the recalibrating one's [quality] included, are
   answered on the calling thread before the [recal] replies, each in
   under a tenth of its time. *)
let reads_during_recal_test () =
  with_service ~calib_config:buffering (fun service ->
      load_slow_pool service;
      put_pool service "other" (test_pool 12);
      let select =
        Wire.Select { pool = "other"; budget = 12.; prior = Wire.default_prior; seed = 3 }
      in
      ignore (Serve.Service.submit service select);
      let t0 = Serve.Clock.now () in
      let recal = start_recal service in
      let answers =
        List.map (answered_here service)
          [
            ("ping", Wire.Ping);
            ("stats", Wire.Stats);
            ("pool-list", Wire.Pool_list);
            ("pool-put", Wire.Pool_put { name = "third"; workers = wire_workers (test_pool 4) });
            ("quality of the recalibrating pool", Wire.Quality { pool = "slow" });
            ("quality", Wire.Quality { pool = "other" });
            ("memo-hit select", select);
          ]
      in
      let reply, replied = recal () in
      ignore (recal_applied_all "recal" reply);
      let recal_took = replied -. t0 in
      List.iter
        (fun (name, reply, at, took) ->
          (match reply with
          | Wire.Error _ -> Alcotest.failf "%s: %s" name (Wire.encode_response reply)
          | _ -> ());
          if at >= replied then Alcotest.failf "%s was answered after the recal" name;
          if took >= recal_took /. 10. then
            Alcotest.failf "%s took %.1f ms against the recal's %.1f ms" name
              (1e3 *. took) (1e3 *. recal_took))
        answers)

(* A [pool-put] of the pool being recalibrated is answered at once, and
   supersedes the step: once the [recal] replies, with the replaced
   pool's version, the registry serves the put's pool and version. *)
let put_supersedes_recal_test () =
  with_service ~calib_config:buffering (fun service ->
      load_slow_pool service;
      let t0 = Serve.Clock.now () in
      let recal = start_recal service in
      (* Let the executor look the pool up before it is replaced. *)
      Thread.delay 0.01;
      let replacement = test_pool 12 in
      let put =
        ("pool-put", Wire.Pool_put { name = "slow"; workers = wire_workers replacement })
      in
      let _, reply, put_at, took = answered_here service put in
      let put_version =
        match reply with
        | Wire.Pool_info { version; size = 12; _ } -> version
        | r -> Alcotest.failf "pool-put: %s" (Wire.encode_response r)
      in
      let reply, replied = recal () in
      let recal_version = recal_applied_all "recal" reply in
      if put_at >= replied then Alcotest.fail "the pool-put was answered after the recal";
      if took >= (replied -. t0) /. 10. then
        Alcotest.failf "the pool-put took %.1f ms against the recal's %.1f ms"
          (1e3 *. took) (1e3 *. (replied -. t0));
      Alcotest.(check bool) "the recal answers the replaced version" true
        (recal_version < put_version);
      (match Serve.Registry.find (Serve.Service.registry service) "slow" with
      | Some (pool, version) -> (
          Alcotest.(check int) "served version is the put's" put_version version;
          match Engine.Pool.repr pool with
          | Engine.Pool.Binary served ->
              Alcotest.(check (array (float 0.)))
                "served qualities are the put's"
                (Workers.Pool.qualities replacement) (Workers.Pool.qualities served)
          | Engine.Pool.Matrix _ -> Alcotest.fail "pool slow is not scalar")
      | None -> Alcotest.fail "pool slow vanished");
      match Serve.Service.submit service (Wire.Quality { pool = "slow" }) with
      | Wire.Quality_result { version; workers; _ } ->
          Alcotest.(check int) "quality version" put_version version;
          Alcotest.(check int) "quality rows" 12 (List.length workers)
      | r -> Alcotest.failf "quality: %s" (Wire.encode_response r))

(* [stats] reads the fleet stores' published gauges, so a burst of
   [fleet-submit]s, each holding its store's lock through its solve, does
   not hold it up.  Sent while the second of them solves, it is answered
   on the caller before the burst's last reply, in under a tenth of the
   time between the burst's first and last replies. *)
let stats_during_fleet_burst_test () =
  with_service (fun service ->
      put_pool service "fleet" (test_pool 120);
      let burst = 40 and replied = Atomic.make 0 in
      let waits =
        List.init burst (fun i ->
            submit_await service
              (Wire.Fleet_submit
                 { pool = "fleet"; task = Printf.sprintf "t%d" i; prior = Wire.default_prior;
                   budget = 30.; tier = 0; target = 0. })
              (fun reply ->
                Atomic.incr replied;
                (reply, Serve.Clock.now ())))
      in
      while Atomic.get replied = 0 do
        Thread.yield ()
      done;
      Thread.delay 0.002;
      let _, reply, _, took = answered_here service ("stats", Wire.Stats) in
      let replied_before = Atomic.get replied in
      let instants =
        List.map
          (fun wait ->
            match wait () with
            | Wire.Fleet_task _, at -> at
            | r, _ -> Alcotest.failf "fleet-submit: %s" (Wire.encode_response r))
          waits
      in
      (match reply with
      | Wire.Stats_result _ -> ()
      | r -> Alcotest.failf "stats: %s" (Wire.encode_response r));
      if replied_before = burst then
        Alcotest.fail "stats was answered after the burst's last reply";
      let first = List.fold_left Float.min infinity instants
      and last = List.fold_left Float.max neg_infinity instants in
      if took >= (last -. first) /. 10. then
        Alcotest.failf "stats took %.2f ms against the burst's %.2f ms" (1e3 *. took)
          (1e3 *. (last -. first));
      Alcotest.(check (float 0.)) "published fleet_tasks" (float_of_int burst)
        (stat_of service "fleet_tasks"))

(* Two domains on one registry pool: one reports batches that each run a
   calibration step, the other puts 8- and 12-worker pools in turn until
   the reports are done.  Each domain's replies carry rising versions,
   every quality readback has the rows of the pool its version was put
   with, and a last batch with no put beside it publishes its step. *)
let calibration_stress_test () =
  let registry =
    Serve.Registry.create
      ~calib_config:{ Workers.Calib.default_config with Workers.Calib.batch = 8 }
      ()
  in
  let put size =
    Serve.Registry.upsert registry ~name:"p" (Engine.Pool.of_workers (test_pool size))
  in
  let readback () =
    match Serve.Registry.quality registry ~name:"p" with
    | Some (rows, version) -> (version, List.length rows)
    | None -> Alcotest.fail "pool p vanished"
  in
  let batch k = List.init 8 (fun w -> calib_vote k w ((k + w) mod 2)) in
  let report k =
    match Serve.Registry.report registry ~name:"p" (batch k) with
    | Ok r -> r
    | Error _ -> Alcotest.fail "report refused"
  in
  let first = put 8 in
  let reporting = Atomic.make true in
  let reporter =
    Domain.spawn (fun () ->
        let replies =
          List.init 300 (fun k -> ((report k).Serve.Registry.version, readback ()))
        in
        Atomic.set reporting false;
        replies)
  in
  let rec putting i acc =
    if not (Atomic.get reporting) then List.rev acc
    else begin
      let size = if i mod 2 = 0 then 12 else 8 in
      let version = put size in
      let read = readback () in
      Thread.delay 0.0002;
      putting (i + 1) (((version, size), read) :: acc)
    end
  in
  let puts = putting 0 [] in
  let reports = Domain.join reporter in
  let rising what versions =
    ignore
      (List.fold_left
         (fun last v ->
           if v < last then Alcotest.failf "%s: version %d after %d" what v last;
           v)
         0 versions)
  in
  rising "reports" (List.map fst reports);
  rising "puts" (List.map (fun ((v, _), _) -> v) puts);
  (* Puts in rising version order: a version belongs to the last put at or
     below it. *)
  let put_sizes = (first, 8) :: List.map fst puts in
  let size_at version =
    List.fold_left (fun size (v, s) -> if v <= version then s else size) 0 put_sizes
  in
  List.iter
    (fun (version, rows) ->
      if rows <> size_at version then
        Alcotest.failf "quality at version %d has %d rows, its pool %d" version rows
          (size_at version))
    (List.map snd reports @ List.map snd puts);
  let before, _ = readback () in
  let last = report 300 in
  Alcotest.(check int) "the last batch is applied" 8 last.applied;
  Alcotest.(check bool) "a lone step publishes" true (last.version > before)

let lock_rule_tests =
  [
    Alcotest.test_case "reads during a recal answered at once" `Quick
      reads_during_recal_test;
    Alcotest.test_case "pool-put supersedes a running recal" `Quick
      put_supersedes_recal_test;
    Alcotest.test_case "stats during a fleet-submit burst" `Quick
      stats_during_fleet_burst_test;
    Alcotest.test_case "report steps against pool-puts" `Quick
      calibration_stress_test;
  ]

let inline_read_tests =
  [
    Alcotest.test_case "warm reads answered under overload" `Quick
      saturated_warm_reads_test;
    Alcotest.test_case "every verb on its plane under overload" `Quick plane_table_test;
    Alcotest.test_case "a raising continuation runs once" `Quick
      raising_continuation_test;
    Alcotest.test_case "continuation runs on the caller for warm reads" `Quick
      continuation_thread_test;
  ]

let memo_tests =
  [
    Alcotest.test_case "replayed select and table row are hits" `Quick
      memo_replay_test;
    Alcotest.test_case "version bumps miss and re-solve" `Quick
      memo_version_test;
    Alcotest.test_case "overflow keeps replies byte-identical" `Quick
      memo_overflow_test;
    Alcotest.test_case "queued duplicate jq answered from the memo" `Quick
      queued_duplicate_test;
  ]

let score_table_tests =
  [
    Alcotest.test_case "a warmed table answers fresh bytes" `Quick
      warmed_table_test;
    Alcotest.test_case "version bumps keep no stale score" `Quick
      score_table_version_test;
  ]

let quality_plane_tests =
  [
    Alcotest.test_case "report bumps versions and invalidates" `Quick
      report_invalidation_test;
    Alcotest.test_case "drift re-selects the standing jury" `Quick
      drift_reselection_test;
    Alcotest.test_case "decide with ground truth feeds gold" `Quick
      decide_truth_test;
    Alcotest.test_case "deciding vote that bumps the version keeps its snapshot"
      `Quick deciding_vote_batch_test;
  ]

let session_service_tests =
  [
    Alcotest.test_case "session replies are byte-deterministic" `Quick
      session_determinism_test;
    Alcotest.test_case "interleaved sessions stay isolated" `Quick
      session_isolation_test;
    Alcotest.test_case "pool-put invalidates live sessions" `Quick
      session_invalidation_test;
    Alcotest.test_case "session store cap refuses then readmits" `Quick
      session_cap_test;
    Alcotest.test_case "session rows sum every shard's store" `Quick
      session_rows_sum_shards_test;
  ]

(* Numbers outside the documented grammar are refused on the wire, each
   with one [err bad-request] that leaves the connection serving. *)
let strict_numbers_test () =
  with_server ~domains:1 ~queue_capacity:16 (fun service port ->
      put_pool service "p" (test_pool 6);
      let fd, ic, oc = connect port in
      List.iter
        (fun line ->
          output_string oc (line ^ "\n");
          flush oc;
          match Wire.decode_response (input_line ic) with
          | Ok (Wire.Error { code = Wire.Bad_request; _ }) -> ()
          | Ok r -> Alcotest.failf "%s: answered %s" line (Wire.encode_response r)
          | Error e -> Alcotest.failf "%s: undecodable reply %s" line e)
        [
          "select pool=p budget=0x1p3";
          "select pool=p budget=4 seed=0x10";
          "select pool=p budget=4 seed=0b101";
          "select pool=p budget=4 seed=0o17";
          "select pool=p budget=4 seed=+5";
          "select pool=p budget=1_000";
          "jq q=.5";
          "jq q=5.";
          "jq q=\r0.5";
          "vote pool=p task=t worker=0o17 label=1";
        ];
      (match
         roundtrip ic oc
           (Wire.Select { pool = "p"; budget = 15.; prior = Wire.default_prior; seed = -3 })
       with
      | Wire.Select_result _ -> ()
      | r -> Alcotest.failf "grammar select: %s" (Wire.encode_response r));
      Unix.close fd)

let service_tests =
  [
    Alcotest.test_case "tcp mixed queries match direct calls" `Quick
      integration_test;
    Alcotest.test_case "numbers outside the grammar answer bad-request" `Quick
      strict_numbers_test;
    Alcotest.test_case "tcp 3-label pool matches direct engine calls" `Quick
      multiclass_integration_test;
    Alcotest.test_case "overload degrades gracefully" `Quick overload_test;
    Alcotest.test_case "shutdown drains and refuses" `Quick shutdown_test;
  ]

(* ---- pool_io validation ----------------------------------------------- *)

let pool_io_tests =
  let rejects name csv =
    Alcotest.test_case name `Quick (fun () ->
        match Workers.Pool_io.of_csv_string csv with
        | exception Failure msg ->
            (* e.g. "Pool_io: line 2: quality must lie in [0, 1]: ..." *)
            let contains_line =
              let needle = "line " in
              let n = String.length needle and m = String.length msg in
              let rec at i =
                i + n <= m && (String.sub msg i n = needle || at (i + 1))
              in
              at 0
            in
            Alcotest.(check bool) "message is line-numbered" true contains_line
        | _ -> Alcotest.fail "expected Failure")
  in
  [
    rejects "NaN quality" "name,quality,cost\nA,nan,1";
    rejects "quality above 1" "name,quality,cost\nA,1.5,1";
    rejects "negative cost" "name,quality,cost\nA,0.5,-1";
    rejects "infinite cost" "name,quality,cost\nA,0.5,inf";
    Alcotest.test_case "file round-trip" `Quick (fun () ->
        let pool = test_pool 6 in
        let path = Filename.temp_file "optjs_pool" ".csv" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Workers.Pool_io.save path pool;
            let loaded = Workers.Pool_io.load path in
            Alcotest.(check int)
              "size" (Workers.Pool.size pool)
              (Workers.Pool.size loaded)));
    Alcotest.test_case "matrix doc round-trip" `Quick (fun () ->
        let confusions =
          Array.init 4 (fun i ->
              let d = 0.55 +. (0.05 *. float_of_int i) in
              let off = (1. -. d) /. 2. in
              Workers.Confusion.make ~id:i
                ~matrix:
                  (Array.init 3 (fun j ->
                       Array.init 3 (fun v -> if j = v then d else off)))
                ~cost:(float_of_int (i + 1))
                ())
        in
        let doc = Workers.Pool_io.Matrix_rows confusions in
        match
          Workers.Pool_io.doc_of_csv_string
            (Workers.Pool_io.doc_to_csv_string doc)
        with
        | Workers.Pool_io.Matrix_rows loaded ->
            Alcotest.(check int) "size" 4 (Array.length loaded);
            Array.iteri
              (fun i c ->
                Alcotest.(check int) "labels" 3 (Workers.Confusion.labels c);
                Alcotest.(check (float 1e-12))
                  "cost"
                  (Workers.Confusion.cost confusions.(i))
                  (Workers.Confusion.cost c);
                for j = 0 to 2 do
                  Alcotest.(check (array (float 1e-12)))
                    "row"
                    (Workers.Confusion.row confusions.(i) j)
                    (Workers.Confusion.row c j)
                done)
              loaded
        | Workers.Pool_io.Scalar_rows _ ->
            Alcotest.fail "expected a matrix document");
    Alcotest.test_case "scalar doc is Scalar_rows" `Quick (fun () ->
        match Workers.Pool_io.doc_of_csv_string "name,quality,cost\nA,0.8,2\n" with
        | Workers.Pool_io.Scalar_rows pool ->
            Alcotest.(check int) "size" 1 (Workers.Pool.size pool)
        | Workers.Pool_io.Matrix_rows _ -> Alcotest.fail "expected scalar");
    Alcotest.test_case "matrix doc rejects bad rows" `Quick (fun () ->
        let expect_failure name csv =
          match Workers.Pool_io.doc_of_csv_string csv with
          | exception Failure _ -> ()
          | _ -> Alcotest.failf "%s: expected Failure" name
        in
        expect_failure "non-square" "A,1,0.8,0.2,0.2,0.8,0.5";
        expect_failure "row sum" "A,1,0.8,0.8,0.2,0.8";
        expect_failure "mixed labels"
          "A,1,0.8,0.2,0.2,0.8\nB,1,0.8,0.1,0.1,0.1,0.8,0.1,0.1,0.1,0.8";
        expect_failure "mixed kinds" "A,1,0.8,0.2,0.2,0.8\nB,0.9,1");
  ]

(* ---- connection plane: event loop, framing, fault injection --------- *)

let with_server_opts ?backlog ?max_conns ?idle_timeout ?max_line ?force_poll
    ~domains ~queue_capacity f =
  let service = Serve.Service.create ~domains ~queue_capacity () in
  let server =
    Serve.Server.create ?backlog ?max_conns ?idle_timeout ?max_line ?force_poll
      ~port:0 service
  in
  Serve.Server.start server;
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Serve.Service.shutdown service)
    (fun () -> f service (Serve.Server.port server))

let gauge service key =
  match List.assoc_opt key (Serve.Service.stats service) with
  | Some v -> v
  | None -> Alcotest.failf "stats missing gauge %s" key

(* Feed a string into a frame in [chunk]-byte pieces, collecting every
   event [next] produces along the way. *)
let frame_feed frame ~chunk s =
  let out = ref [] in
  let drain () =
    let rec go () =
      match Serve.Lineframe.next frame with
      | `Await -> ()
      | (`Line _ | `Too_long) as ev ->
          out := ev :: !out;
          go ()
    in
    go ()
  in
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    (match Serve.Lineframe.reserve frame with
    | None -> drain ()
    | Some (buf, off, room) ->
        let take = min chunk (min room (n - !pos)) in
        Bytes.blit_string s !pos buf off take;
        Serve.Lineframe.commit frame take;
        pos := !pos + take);
    drain ()
  done;
  drain ();
  List.rev !out

let lineframe_tests =
  [
    Alcotest.test_case "split reads frame in order" `Quick (fun () ->
        let frame = Serve.Lineframe.create ~max_line:64 () in
        let events = frame_feed frame ~chunk:3 "a\nbb\nccc\n" in
        Alcotest.(check (list string))
          "lines" [ "a"; "bb"; "ccc" ]
          (List.map
             (function `Line l -> l | `Too_long -> "<too-long>")
             events);
        Alcotest.(check bool) "no partial left" false
          (Serve.Lineframe.pending frame));
    Alcotest.test_case "over-limit line reported once, then resync" `Quick
      (fun () ->
        let frame = Serve.Lineframe.create ~max_line:16 () in
        let events =
          frame_feed frame ~chunk:5 (String.make 100 'x' ^ "\nping\n")
        in
        Alcotest.(check (list string))
          "one too-long, then the next line"
          [ "<too-long>"; "ping" ]
          (List.map
             (function `Line l -> l | `Too_long -> "<too-long>")
             events));
    Alcotest.test_case "exact max_line accepted, one over rejected" `Quick
      (fun () ->
        let exact = String.make 16 'y' in
        let frame = Serve.Lineframe.create ~max_line:16 () in
        (match frame_feed frame ~chunk:7 (exact ^ "\n") with
        | [ `Line l ] -> Alcotest.(check string) "exact" exact l
        | _ -> Alcotest.fail "expected exactly one line");
        let frame = Serve.Lineframe.create ~max_line:16 () in
        match frame_feed frame ~chunk:7 (exact ^ "y\n") with
        | [ `Too_long ] -> ()
        | _ -> Alcotest.fail "expected exactly one too-long event");
    Alcotest.test_case "backpressure when full of undrained lines" `Quick
      (fun () ->
        let frame = Serve.Lineframe.create ~max_line:8 () in
        (* Fill with complete 2-byte lines without draining. *)
        let rec fill () =
          match Serve.Lineframe.reserve frame with
          | None -> ()
          | Some (buf, off, room) ->
              let take = min 2 room in
              Bytes.blit_string (if take = 2 then "z\n" else "\n") 0 buf off
                take;
              Serve.Lineframe.commit frame take;
              fill ()
        in
        fill ();
        Alcotest.(check bool) "no room" false (Serve.Lineframe.has_room frame);
        (match Serve.Lineframe.next frame with
        | `Line _ -> ()
        | _ -> Alcotest.fail "expected a buffered line");
        Alcotest.(check bool) "room after drain" true
          (Serve.Lineframe.has_room frame));
  ]

let accept_action_tests =
  let check_action name expected error =
    let show = function
      | `Retry -> "retry"
      | `Drained -> "drained"
      | `Backoff -> "backoff"
      | `Stop -> "stop"
    in
    Alcotest.(check string)
      name (show expected)
      (show (Serve.Server.accept_action error))
  in
  [
    Alcotest.test_case "classification" `Quick (fun () ->
        check_action "EINTR" `Retry Unix.EINTR;
        check_action "ECONNABORTED" `Retry Unix.ECONNABORTED;
        check_action "EAGAIN" `Drained Unix.EAGAIN;
        check_action "EWOULDBLOCK" `Drained Unix.EWOULDBLOCK;
        check_action "EMFILE" `Backoff Unix.EMFILE;
        check_action "ENFILE" `Backoff Unix.ENFILE;
        check_action "ENOBUFS" `Backoff Unix.ENOBUFS;
        check_action "ENOMEM" `Backoff Unix.ENOMEM;
        check_action "unknown errno" `Backoff (Unix.EUNKNOWNERR 999);
        check_action "EBADF" `Stop Unix.EBADF;
        check_action "EINVAL" `Stop Unix.EINVAL;
        check_action "ENOTSOCK" `Stop Unix.ENOTSOCK);
  ]

let line_too_long_test () =
  with_server_opts ~max_line:128 ~domains:1 ~queue_capacity:16
    (fun service port ->
      let fd, ic, oc = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          output_string oc (String.make 1000 'x');
          output_char oc '\n';
          flush oc;
          (match Wire.decode_response (input_line ic) with
          | Ok (Wire.Error { code = Wire.Bad_request; message }) ->
              Alcotest.(check bool)
                "names the limit" true
                (String.length message >= 13
                && String.sub message 0 13 = "line-too-long")
          | Ok r ->
              Alcotest.failf "expected bad-request, got %s"
                (Wire.encode_response r)
          | Error e -> Alcotest.failf "undecodable reply: %s" e);
          (* Same connection still frames and serves after the resync. *)
          check_response "conn survives too-long" Wire.Pong
            (roundtrip ic oc Wire.Ping);
          Alcotest.(check bool)
            "long_lines counted" true
            (gauge service "long_lines" >= 1.)))

let midreply_disconnect_test () =
  with_server_opts ~domains:1 ~queue_capacity:16 (fun service port ->
      let pool = test_pool 10 in
      (match
         Serve.Service.submit service
           (Wire.Pool_put { name = "p"; workers = wire_workers pool })
       with
      | Wire.Pool_info _ -> ()
      | r -> Alcotest.failf "pool-put: %s" (Wire.encode_response r));
      (* Fire a compute request and slam the connection shut before the
         reply lands: the write must become a clean close, not SIGPIPE or
         an event-thread crash. *)
      for seed = 0 to 4 do
        let fd, _, oc = connect port in
        output_string oc
          (Wire.encode_request
             (Wire.Select { pool = "p"; budget = 8.; prior = [ 0.5; 0.5 ]; seed }));
        output_char oc '\n';
        flush oc;
        Unix.close fd
      done;
      (* The plane is still alive and serving. *)
      let fd, ic, oc = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          check_response "server survives" Wire.Pong (roundtrip ic oc Wire.Ping)))

let slowloris_test () =
  with_server_opts ~idle_timeout:0.3 ~domains:1 ~queue_capacity:16
    (fun service port ->
      (* Conn B idles with an EMPTY buffer across the deadline: never
         reaped (long-lived mostly-idle conversations are the design
         workload). *)
      let fd_b, ic_b, oc_b = connect port in
      check_response "b alive before" Wire.Pong (roundtrip ic_b oc_b Wire.Ping);
      (* Conn A drips a partial line and stalls: reaped at the deadline
         even if bytes keep trickling in. *)
      let fd_a, ic_a, oc_a = connect port in
      output_string oc_a "pi";
      flush oc_a;
      Unix.sleepf 0.15;
      output_string oc_a "ng";
      flush oc_a;
      Unix.setsockopt_float fd_a Unix.SO_RCVTIMEO 10.;
      (match input_line ic_a with
      | line -> Alcotest.failf "slow conn got a reply: %s" line
      | exception End_of_file -> ()
      | exception Sys_error _ -> ());
      Alcotest.(check bool)
        "read_timeouts counted" true
        (gauge service "read_timeouts" >= 1.);
      check_response "idle empty conn survives" Wire.Pong
        (roundtrip ic_b oc_b Wire.Ping);
      (try Unix.close fd_a with Unix.Unix_error _ -> ());
      try Unix.close fd_b with Unix.Unix_error _ -> ())

let conn_cap_test () =
  with_server_opts ~max_conns:2 ~domains:1 ~queue_capacity:16
    (fun service port ->
      let fd1, ic1, oc1 = connect port in
      let fd2, ic2, oc2 = connect port in
      (* Roundtrips prove both are accepted before the third connects. *)
      check_response "conn1" Wire.Pong (roundtrip ic1 oc1 Wire.Ping);
      check_response "conn2" Wire.Pong (roundtrip ic2 oc2 Wire.Ping);
      let fd3, ic3, _ = connect port in
      Unix.setsockopt_float fd3 Unix.SO_RCVTIMEO 10.;
      (match Wire.decode_response (input_line ic3) with
      | Ok (Wire.Error { code = Wire.Overload; _ }) -> ()
      | Ok r ->
          Alcotest.failf "expected err overload, got %s"
            (Wire.encode_response r)
      | Error e -> Alcotest.failf "undecodable shed reply: %s" e);
      Alcotest.(check bool)
        "conns_rejected counted" true
        (gauge service "conns_rejected" >= 1.);
      (* Shedding does not disturb the admitted connections. *)
      check_response "conn1 still served" Wire.Pong (roundtrip ic1 oc1 Wire.Ping);
      check_response "conn2 still served" Wire.Pong (roundtrip ic2 oc2 Wire.Ping);
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ fd1; fd2; fd3 ])

let fd_exhaustion_test () =
  with_server_opts ~domains:1 ~queue_capacity:16 (fun service port ->
      (* Create the client socket while descriptors are still plentiful,
         then clamp RLIMIT_NOFILE so the server's accept(2) hits EMFILE:
         the TCP handshake still completes against the listen backlog, so
         the connection sits there until the loop's backoff retry finds
         descriptors again. *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      let limit = Serve.Evloop.rlimit_nofile () in
      let probe = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      let next_fd : int = Obj.magic probe in
      Unix.close probe;
      ignore (Serve.Evloop.rlimit_nofile ~set:next_fd ());
      Fun.protect
        ~finally:(fun () -> ignore (Serve.Evloop.rlimit_nofile ~set:limit ()))
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          (* Give the loop time to hit EMFILE and start backing off. *)
          let deadline = Serve.Clock.now () +. 5. in
          while
            gauge service "accept_backoffs" < 1.
            && Serve.Clock.now () < deadline
          do
            Thread.yield ()
          done;
          Alcotest.(check bool)
            "accept backed off" true
            (gauge service "accept_backoffs" >= 1.));
      (* Limit restored: the backoff retry must pick the connection up
         and serve it — the listener never died. *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      check_response "served after backoff" Wire.Pong
        (roundtrip ic oc Wire.Ping);
      try Unix.close fd with Unix.Unix_error _ -> ())

let thousand_conns_test () =
  with_server_opts ~backlog:1024 ~max_conns:1100 ~domains:2 ~queue_capacity:256
    (fun service port ->
      let n = 1000 in
      let need = (2 * n) + 256 in
      if Serve.Evloop.rlimit_nofile () < need then
        ignore (Serve.Evloop.rlimit_nofile ~set:need ());
      let pool = test_pool 10 in
      (match
         Serve.Service.submit service
           (Wire.Pool_put { name = "p"; workers = wire_workers pool })
       with
      | Wire.Pool_info _ -> ()
      | r -> Alcotest.failf "pool-put: %s" (Wire.encode_response r));
      let fds =
        Array.init n (fun _ ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            fd)
      in
      Fun.protect
        ~finally:(fun () ->
          Array.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            fds)
        (fun () ->
          let deadline = Serve.Clock.now () +. 30. in
          while
            gauge service "conns_open" < float_of_int n
            && Serve.Clock.now () < deadline
          do
            Thread.yield ()
          done;
          Alcotest.(check (float 0.))
            "all connections held" (float_of_int n)
            (gauge service "conns_open");
          (* Pipelined batch on a few of the open connections, everyone
             else idle: replies must come back in order and byte-identical
             to direct Service.submit. *)
          let requests =
            [
              Wire.Ping;
              Wire.Jq
                {
                  source = Wire.Named "p";
                  prior = [ 0.5; 0.5 ];
                  num_buckets = Jq.Bucket.default_num_buckets;
                };
              Wire.Select
                { pool = "p"; budget = 8.; prior = [ 0.5; 0.5 ]; seed = 3 };
              Wire.Jq
                {
                  source = Wire.Inline [ 0.9; 0.6; 0.7 ];
                  prior = [ 0.5; 0.5 ];
                  num_buckets = Jq.Bucket.default_num_buckets;
                };
              Wire.Ping;
            ]
          in
          let expected =
            List.map
              (fun r ->
                Wire.encode_response (Serve.Service.submit service r))
              requests
          in
          List.iter
            (fun i ->
              let fd = fds.(i) in
              let ic = Unix.in_channel_of_descr fd in
              let oc = Unix.out_channel_of_descr fd in
              (* One write carrying the whole pipeline. *)
              List.iter
                (fun r ->
                  output_string oc (Wire.encode_request r);
                  output_char oc '\n')
                requests;
              flush oc;
              List.iteri
                (fun j e ->
                  Alcotest.(check string)
                    (Printf.sprintf "conn %d reply %d" i j)
                    e (input_line ic))
                expected)
            [ 0; 137; 499; 801; 999 ]))

let force_poll_test () =
  (match Serve.Evloop.backend (Serve.Evloop.create ~force_poll:true ()) with
  | `Poll -> ()
  | `Epoll -> Alcotest.fail "force_poll ignored");
  with_server_opts ~force_poll:true ~domains:1 ~queue_capacity:16
    (fun _service port ->
      let fd, ic, oc = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          check_response "ping over poll backend" Wire.Pong
            (roundtrip ic oc Wire.Ping);
          check_response "jq over poll backend"
            (Serve.Service.submit _service
               (Wire.Jq
                  {
                    source = Wire.Inline [ 0.8; 0.7 ];
                    prior = [ 0.5; 0.5 ];
                    num_buckets = Jq.Bucket.default_num_buckets;
                  }))
            (roundtrip ic oc
               (Wire.Jq
                  {
                    source = Wire.Inline [ 0.8; 0.7 ];
                    prior = [ 0.5; 0.5 ];
                    num_buckets = Jq.Bucket.default_num_buckets;
                  }))))

let stop_closes_plane_test () =
  let service = Serve.Service.create ~domains:1 ~queue_capacity:16 () in
  let server = Serve.Server.create ~port:0 service in
  Serve.Server.start server;
  let port = Serve.Server.port server in
  let fd, ic, oc = connect port in
  check_response "served before stop" Wire.Pong (roundtrip ic oc Wire.Ping);
  Serve.Server.stop server;
  (* stop joined the event thread: the listener is gone and the open
     connection was closed. *)
  (match connect port with
  | _ -> Alcotest.fail "listener still accepting after stop"
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ());
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  (match input_line ic with
  | line -> Alcotest.failf "conn got data after stop: %s" line
  | exception End_of_file -> ()
  | exception Sys_error _ -> Alcotest.fail "conn not closed by stop");
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Serve.Server.stop server;
  (* Idempotent. *)
  Serve.Service.shutdown service

let connection_plane_tests =
  [
    Alcotest.test_case "over-limit line answered and survived" `Quick
      line_too_long_test;
    Alcotest.test_case "client closing mid-reply is clean teardown" `Quick
      midreply_disconnect_test;
    Alcotest.test_case "slow-loris partial line reaped, empty idle kept"
      `Quick slowloris_test;
    Alcotest.test_case "connection cap sheds with err overload" `Quick
      conn_cap_test;
    Alcotest.test_case "fd exhaustion backs off and recovers" `Quick
      fd_exhaustion_test;
    Alcotest.test_case "1k connections, pipelined, byte-identical" `Slow
      thousand_conns_test;
    Alcotest.test_case "poll backend serves end to end" `Quick
      force_poll_test;
    Alcotest.test_case "stop closes listener, conns and thread" `Quick
      stop_closes_plane_test;
  ]

(* ---- fleet plane ----------------------------------------------------- *)

let fleet_tcp_test () =
  let pool = test_pool 8 in
  (* A third of the pool's total cost: neither task can hog every
     worker, so both juries are non-empty whatever the draws. *)
  let budget = Workers.Pool.total_cost pool /. 3. in
  with_server ~domains:2 ~queue_capacity:64 (fun service port ->
      let fd, ic, oc = connect port in
      (match
         roundtrip ic oc
           (Wire.Pool_put { name = "fp"; workers = wire_workers pool })
       with
      | Wire.Pool_info { version; _ } ->
          Alcotest.(check int) "first version" 1 version
      | r -> Alcotest.failf "pool-put: %s" (Wire.encode_response r));
      let submit task =
        match
          roundtrip ic oc
            (Wire.Fleet_submit
               {
                 pool = "fp"; task; prior = [ 0.5; 0.5 ]; budget; tier = 0;
                 target = 0.;
               })
        with
        | Wire.Fleet_task { task = echoed; jury; cost; _ } ->
            Alcotest.(check string) "task echoed" task echoed;
            Alcotest.(check bool) "within budget" true
              (cost <= budget +. 1e-9);
            jury
        | r -> Alcotest.failf "fleet-submit: %s" (Wire.encode_response r)
      in
      ignore (submit "fa");
      ignore (submit "fb");
      (* The second arrival's delta auction may re-solve the first jury,
         so current assignments come from status, not the submit echo. *)
      let status task =
        match
          roundtrip ic oc (Wire.Fleet_status { pool = "fp"; task = Some task })
        with
        | Wire.Fleet_task { jury; cost; _ } ->
            Alcotest.(check bool) "status within budget" true
              (cost <= budget +. 1e-9);
            jury
        | r -> Alcotest.failf "fleet-status: %s" (Wire.encode_response r)
      in
      let j1 = status "fa" in
      let j2 = status "fb" in
      Alcotest.(check bool) "juries assigned" true (j1 <> [] && j2 <> []);
      Alcotest.(check bool) "no worker on two juries" true
        (List.for_all (fun p -> not (List.mem p j2)) j1);
      (match
         roundtrip ic oc (Wire.Fleet_status { pool = "fp"; task = None })
       with
      | Wire.Fleet_summary s ->
          Alcotest.(check int) "resident tasks" 2 s.tasks;
          Alcotest.(check int) "assigned tasks" 2 s.assigned;
          Alcotest.(check int) "summary version" 1 s.version
      | r -> Alcotest.failf "fleet summary: %s" (Wire.encode_response r));
      (match
         roundtrip ic oc
           (Wire.Fleet_release { pool = "fp"; task = "fa"; decided = true })
       with
      | Wire.Fleet_released { freed; _ } ->
          Alcotest.(check int) "freed the whole jury" (List.length j1) freed
      | r -> Alcotest.failf "fleet-release: %s" (Wire.encode_response r));
      (match
         roundtrip ic oc
           (Wire.Fleet_release { pool = "fp"; task = "fa"; decided = false })
       with
      | Wire.Error { code = Wire.Unknown_task; _ } -> ()
      | r -> Alcotest.failf "double release: %s" (Wire.encode_response r));
      (match
         roundtrip ic oc
           (Wire.Fleet_submit
              {
                pool = "nope"; task = "t"; prior = [ 0.5; 0.5 ]; budget;
                tier = 0; target = 0.;
              })
       with
      | Wire.Error { code = Wire.Unknown_pool; _ } -> ()
      | r -> Alcotest.failf "unknown pool: %s" (Wire.encode_response r));
      (* A pool-put bumps the version; the allocator resyncs on its next
         touch and keeps the still-compatible resident task. *)
      (match
         roundtrip ic oc
           (Wire.Pool_put
              { name = "fp"; workers = wire_workers (test_pool 6) })
       with
      | Wire.Pool_info { version; _ } ->
          Alcotest.(check bool) "version bumped" true (version > 1)
      | r -> Alcotest.failf "pool-put 2: %s" (Wire.encode_response r));
      (match
         roundtrip ic oc (Wire.Fleet_status { pool = "fp"; task = None })
       with
      | Wire.Fleet_summary s ->
          Alcotest.(check bool) "resynced version" true (s.version > 1);
          Alcotest.(check int) "survivor kept" 1 s.tasks
      | r -> Alcotest.failf "post-put summary: %s" (Wire.encode_response r));
      Unix.close fd;
      let stats = Serve.Service.stats service in
      let get k = try List.assoc k stats with Not_found -> -1. in
      Alcotest.(check bool) "fleet_assigns counted" true (get "fleet_assigns" >= 2.);
      Alcotest.(check bool) "fleet_releases counted" true
        (get "fleet_releases" >= 1.);
      Alcotest.(check bool) "fleet gauge present" true (get "fleet_pools" >= 1.))

let fleet_plane_tests =
  [ Alcotest.test_case "fleet verbs over tcp" `Quick fleet_tcp_test ]

(* ---- stats schema ----------------------------------------------------- *)

(* The first column of the key table under docs/serving.md's
   "### Stats keys" heading.  A key ending in a [<placeholder>] (as in
   [req_<verb>]) stands for every key with that prefix. *)
let documented_stats_keys () =
  let ic = open_in "../docs/serving.md" in
  let rec lines acc =
    match input_line ic with
    | line -> lines (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  let rec skip_to_table = function
    | [] -> Alcotest.fail "docs/serving.md has no \"### Stats keys\" section"
    | "### Stats keys" :: rest -> rest
    | _ :: rest -> skip_to_table rest
  in
  let rec keys acc = function
    | line :: _ when String.length line > 0 && line.[0] = '#' -> List.rev acc
    | line :: rest -> (
        match String.split_on_char '|' line with
        | "" :: cell :: _ -> (
            match String.split_on_char '`' (String.trim cell) with
            | [ ""; key; "" ] -> keys (key :: acc) rest
            | _ -> keys acc rest)
        | _ -> keys acc rest)
    | [] -> List.rev acc
  in
  keys [] (skip_to_table (lines []))

let key_matches ~documented key =
  match String.index_opt documented '<' with
  | None -> String.equal documented key
  | Some i -> String.starts_with ~prefix:(String.sub documented 0 i) key

(* Drive every verb family through a server, then hold [stats] against the
   doc table in both directions: no emitted key is undocumented, and no
   documented key is missing once each family has run. *)
let stats_schema_test () =
  let pool = test_pool 8 in
  let calib_config = { Workers.Calib.default_config with Workers.Calib.batch = 4 } in
  with_server ~calib_config ~domains:2 ~queue_capacity:64 (fun _service port ->
      let fd, ic, oc = connect port in
      let ok name request =
        match roundtrip ic oc request with
        | Wire.Error _ as r -> Alcotest.failf "%s: %s" name (Wire.encode_response r)
        | _ -> ()
      in
      let budget = Workers.Pool.total_cost pool /. 3. in
      ok "ping" Wire.Ping;
      ok "pool-put" (Wire.Pool_put { name = "sk"; workers = wire_workers pool });
      ok "pool-list" Wire.Pool_list;
      ok "jq pool"
        (Wire.Jq
           { source = Wire.Named "sk"; prior = Wire.default_prior; num_buckets = 50 });
      ok "jq inline"
        (Wire.Jq
           { source = Wire.Inline [ 0.7; 0.8 ]; prior = Wire.default_prior; num_buckets = 50 });
      let select = Wire.Select { pool = "sk"; budget; prior = Wire.default_prior; seed = 1 } in
      ok "select" select;
      ok "select again" select;
      ok "table"
        (Wire.Table { pool = "sk"; budgets = [ budget ]; prior = Wire.default_prior; seed = 1 });
      ok "open" (session_open_request ~pool:"sk" ~task:"t");
      ok "advise" (Wire.Session_advise { pool = "sk"; task = "t"; k = 2 });
      ok "vote" (Wire.Session_vote { pool = "sk"; task = "t"; worker = 0; label = 1 });
      ok "decide" (Wire.Session_decide { pool = "sk"; task = "t"; truth = Some 1 });
      ok "close" (Wire.Session_close { pool = "sk"; task = "t" });
      ok "report"
        (Wire.Report
           { pool = "sk"; votes = List.init 4 (fun i -> calib_vote ~truth:1 i i 1) });
      ok "recal" (Wire.Recal { pool = "sk" });
      ok "quality" (Wire.Quality { pool = "sk" });
      ok "fleet-submit"
        (Wire.Fleet_submit
           { pool = "sk"; task = "f"; prior = Wire.default_prior; budget; tier = 0; target = 0. });
      ok "fleet-status" (Wire.Fleet_status { pool = "sk"; task = None });
      ok "fleet-release" (Wire.Fleet_release { pool = "sk"; task = "f"; decided = true });
      let emitted =
        match roundtrip ic oc Wire.Stats with
        | Wire.Stats_result kv -> List.map fst kv
        | r -> Alcotest.failf "stats: %s" (Wire.encode_response r)
      in
      Unix.close fd;
      let documented = documented_stats_keys () in
      let undocumented =
        List.filter
          (fun key -> not (List.exists (fun d -> key_matches ~documented:d key) documented))
          emitted
      and missing =
        List.filter
          (fun d -> not (List.exists (fun key -> key_matches ~documented:d key) emitted))
          documented
      in
      Alcotest.(check (list string)) "emitted keys missing from docs/serving.md" []
        undocumented;
      Alcotest.(check (list string)) "documented keys never emitted" [] missing)

(* A fixed conversation of queued requests, replayed through fresh
   one-domain services.  Its last reply's continuation reads [stats] the
   moment it receives the reply, and a [stats] request follows at once:
   both must count every request of the conversation, since each reply is
   recorded before it is handed over. *)
let stats_after_reply_test () =
  let pool = test_pool 8 in
  let select seed = Wire.Select { pool = "sc"; budget = 4.; prior = Wire.default_prior; seed } in
  let conversation =
    [
      Wire.Pool_put { name = "sc"; workers = wire_workers pool };
      select 1;
      Wire.Table { pool = "sc"; budgets = [ 3.; 5. ]; prior = Wire.default_prior; seed = 2 };
      Wire.Jq { source = Wire.Inline [ 0.7; 0.8; 0.6 ]; prior = Wire.default_prior; num_buckets = 50 };
      Wire.Jq { source = Wire.Named "sc"; prior = Wire.default_prior; num_buckets = 50 };
      session_open_request ~pool:"sc" ~task:"t";
      Wire.Session_vote { pool = "sc"; task = "t"; worker = 0; label = 1 };
      Wire.Session_decide { pool = "sc"; task = "t"; truth = Some 9 };
      Wire.Session_close { pool = "sc"; task = "t" };
      Wire.Session_close { pool = "sc"; task = "t" };
      Wire.Report { pool = "sc"; votes = [ calib_vote ~truth:1 0 0 1 ] };
      Wire.Fleet_submit
        { pool = "sc"; task = "f"; prior = Wire.default_prior; budget = 4.; tier = 0; target = 0. };
      Wire.Fleet_release { pool = "sc"; task = "f"; decided = false };
      select 3;
    ]
  in
  let verbs = List.sort_uniq compare (List.map Wire.verb conversation) in
  let counted what replies stats =
    let errors =
      List.length (List.filter (function Wire.Error _ -> true | _ -> false) replies)
    in
    let get key = Option.value ~default:(-1.) (List.assoc_opt key stats) in
    let check key want = Alcotest.(check (float 0.)) (what ^ ": " ^ key) want (get key) in
    check "requests" (float_of_int (List.length conversation));
    check "errors" (float_of_int errors);
    check "ok" (float_of_int (List.length conversation - errors));
    List.iter
      (fun v ->
        check ("req_" ^ v)
          (float_of_int (List.length (List.filter (fun r -> Wire.verb r = v) conversation))))
      verbs;
    Alcotest.(check (list string))
      (what ^ ": req_ keys")
      (List.map (fun v -> "req_" ^ v) verbs)
      (List.filter_map
         (fun (key, _) -> if String.starts_with ~prefix:"req_" key then Some key else None)
         stats)
  in
  let rec split_last = function
    | [] -> assert false
    | [ last ] -> ([], last)
    | x :: rest ->
        let init, last = split_last rest in
        (x :: init, last)
  in
  let init, last = split_last conversation in
  for _ = 1 to 50 do
    let service = Serve.Service.create ~domains:1 () in
    Fun.protect ~finally:(fun () -> Serve.Service.shutdown service) (fun () ->
        let replies = List.map (Serve.Service.submit service) init in
        let reply, at_reply =
          submit_await service last
            (fun reply -> (reply, Serve.Service.stats service))
            ()
        in
        let replies = replies @ [ reply ] in
        counted "stats read by the last continuation" replies at_reply;
        match Serve.Service.submit service Wire.Stats with
        | Wire.Stats_result kv -> counted "stats request" replies kv
        | r -> Alcotest.failf "stats: %s" (Wire.encode_response r))
  done

let stats_schema_tests =
  [
    Alcotest.test_case "every stats key is documented" `Quick stats_schema_test;
    Alcotest.test_case "stats counts every reply it follows" `Quick
      stats_after_reply_test;
  ]

let () =
  Alcotest.run "serve"
    [
      ("reply encoding", encoding_tests);
      ("wire codec properties", codec_props);
      ("wire codec cases", codec_units);
      ("registry", registry_tests);
      ("bqueue", bqueue_tests);
      ("dispatch", dispatch_tests);
      ("metrics", metrics_tests);
      ("service", service_tests);
      ("sessions", session_service_tests);
      ("quality plane", quality_plane_tests);
      ("jury memo", memo_tests);
      ("score tables", score_table_tests);
      ("inline reads", inline_read_tests);
      ("lock rule", lock_rule_tests);
      ("fleet plane", fleet_plane_tests);
      ("stats schema", stats_schema_tests);
      ("pool_io", pool_io_tests);
      ("lineframe", lineframe_tests);
      ("accept classification", accept_action_tests);
      ("connection plane", connection_plane_tests);
    ]
