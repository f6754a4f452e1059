(* Tests of the benchmark's own code: scripts are pure functions of
   (workload, seed), the masked reply digest is stable, and the metric
   names the benchmark prints are the ones BENCHMARK.json declares. *)

open Daemonbench

let pure () =
  List.iter
    (fun w ->
      let a = Script.generate w ~seed:7 and b = Script.generate w ~seed:7 in
      Alcotest.(check bool) (Script.name w ^ " same seed") true (a = b);
      let c = Script.generate w ~seed:8 in
      Alcotest.(check bool) (Script.name w ^ " other seed") false (a.conns = c.conns))
    Script.workloads

let mask () =
  Alcotest.(check string)
    "versions masked" "ok pool name=a version=* size=3"
    (Check.mask "ok pool name=a version=41 size=3");
  let run replies =
    {
      Check.setup = [||];
      conns = [| Array.map (fun (request, reply) -> { Check.request; reply }) replies |];
      final = [||];
    }
  in
  let a = run [| ("quality pool=p", "ok quality name=p version=3 workers=0:0.7:1") |]
  and b = run [| ("quality pool=p", "ok quality name=p version=9 workers=0:0.7:1") |]
  and c = run [| ("quality pool=p", "ok quality name=p version=3 workers=0:0.8:1") |] in
  Alcotest.(check string) "version-only change" (Check.digest a) (Check.digest b);
  Alcotest.(check bool) "content change" false (Check.digest a = Check.digest c);
  let with_fleet reply =
    run
      [|
        ("fleet-status pool=p task=t", reply);
        ("quality pool=p", "ok quality name=p version=3 workers=-");
      |]
  in
  Alcotest.(check string)
    "fleet replies left out"
    (Check.digest (with_fleet "ok fleet-task pool=p task=t jury=1 score=0.9 cost=1 tier=0"))
    (Check.digest (with_fleet "ok fleet-task pool=p task=t jury=2 score=0.8 cost=1 tier=0"))

(* The opening stretch of each script, replayed twice in process. *)
let replay_stable () =
  List.iter
    (fun w ->
      let s = Script.generate w ~seed:3 in
      let s = { s with conns = Array.map (fun c -> Array.sub c 0 30) s.conns } in
      let a = Replay.run s and b = Replay.run s in
      Alcotest.(check string) (Script.name w) (Check.digest a) (Check.digest b);
      let v = Check.compare_with ~reference:a b in
      Alcotest.(check int) (Script.name w ^ " mismatches") 0 v.mismatches;
      let sm = Check.summarize s a in
      Alcotest.(check int) (Script.name w ^ " all replied") sm.requests
        (Array.fold_left (fun n c -> n + Array.length c) 0 a.conns))
    Script.workloads

(* No request of a whole write-churn script fails, sessions that their
   own deciding vote invalidated included (see NOTES.md), and every
   session ends with a decision. *)
let no_failures () =
  let s = Script.generate Script.Write_churn ~seed:3 in
  let sm = Check.summarize s (Replay.run s) in
  Alcotest.(check int) "ok replies" sm.requests sm.ok;
  Alcotest.(check int) "every session decided" (Script.sessions s) sm.decided

(* The gate can fail: an altered non-fleet reply is a mismatch, an altered
   fleet reply is only counted, and a fleet jury over its submitted budget
   is a violation. *)
let gate () =
  let module W = Serve.Wire in
  let quality = W.encode_request (W.Quality { pool = "p" }) in
  let quality_reply q =
    W.encode_response
      (W.Quality_result { name = "p"; version = 3; workers = [ (0, q, 1) ] })
  in
  let submit =
    W.encode_request
      (W.Fleet_submit
         { pool = "p"; task = "t"; prior = [ 0.5; 0.5 ]; budget = 1.; tier = 0; target = 0. })
  in
  let task_reply jury cost =
    W.encode_response
      (W.Fleet_task { pool = "p"; task = "t"; jury; score = 0.8; cost; tier = 0 })
  in
  let run fleet_reply q =
    {
      Check.setup = [||];
      conns =
        [|
          [|
            { Check.request = submit; reply = fleet_reply };
            { Check.request = quality; reply = quality_reply q };
          |];
        |];
      final = [||];
    }
  in
  let reference = run (task_reply [ 1 ] 0.5) 0.7 in
  let verdict r = Check.compare_with ~reference r in
  let v = verdict (run (task_reply [ 1 ] 0.5) 0.75) in
  Alcotest.(check (pair int int)) "altered quality reply" (1, 0)
    (v.mismatches, v.fleet_mismatches);
  let v = verdict (run (task_reply [ 2 ] 0.5) 0.7) in
  Alcotest.(check (pair int int)) "altered fleet reply" (0, 1)
    (v.mismatches, v.fleet_mismatches);
  let script = Script.generate Script.Warm_reads ~seed:1 in
  Alcotest.(check int) "fleet jury within budget" 0
    (Check.summarize script reference).fleet_bad;
  Alcotest.(check int) "fleet jury over budget" 1
    (Check.summarize script (run (task_reply [ 1; 2 ] 1.5) 0.7)).fleet_bad

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ["key": "value"] pairs for [key] inside the JSON array named [section]. *)
let declared json section key =
  let open Str in
  let start = search_forward (regexp_string ("\"" ^ section ^ "\"")) json 0 in
  let stop = String.index_from json start ']' in
  let body = String.sub json start (stop - start) in
  let re = regexp ("\"" ^ key ^ "\": \"\\([^\"]*\\)\"") in
  let rec go pos acc =
    match search_forward re body pos with
    | exception Not_found -> List.rev acc
    | _ -> go (match_end ()) (matched_group 1 body :: acc)
  in
  go 0 []

let printed json =
  let re = Str.regexp "\"\\([^\"]*\\)\": {\"value\"" in
  let rec go pos acc =
    match Str.search_forward re json pos with
    | exception Not_found -> List.rev acc
    | _ -> go (Str.match_end ()) (Str.matched_group 1 json :: acc)
  in
  go 0 []

let names () =
  let json = read_file "../BENCHMARK.json" in
  let check section specs =
    let names = List.map (fun (s : Report.spec) -> s.name) specs in
    Alcotest.(check (list string)) (section ^ " names") (declared json section "name") names;
    Alcotest.(check (list string))
      (section ^ " units") (declared json section "unit")
      (List.map (fun (s : Report.spec) -> s.unit) specs);
    let line = Report.json ~correct:true ~attempted:1 ~failed:0 (Report.create ()) specs in
    Alcotest.(check (list string)) (section ^ " printed") names (printed line)
  in
  check "end_to_end" Report.end_to_end;
  check "per_layer" Report.per_layer

let () =
  Alcotest.run "daemonbench"
    [
      ( "daemonbench",
        [
          Alcotest.test_case "script is a pure function of workload and seed" `Quick pure;
          Alcotest.test_case "masked digest" `Quick mask;
          Alcotest.test_case "replay digest is stable" `Quick replay_stable;
          Alcotest.test_case "no write-churn request fails" `Quick no_failures;
          Alcotest.test_case "reply gate counts altered replies" `Quick gate;
          Alcotest.test_case "metric names match BENCHMARK.json" `Quick names;
        ] );
    ]
