(* Golden replies, one recorded conversation per file.

   Each "> " line of a transcript is a request, the "< " line after it
   the exact reply a fresh one-domain service gave.  Replaying a
   transcript against a fresh service must reproduce every reply byte
   for byte, at 1, 2 and 4 executor domains: the jury and jq memos are
   shared by every executor and read from the submitting thread, and a
   reply must not depend on which of them answers.

   golden/solver_verbs.txt covers select and table on a 40-worker scalar
   pool, a 12-worker 3-label matrix pool and a 10-worker symmetric 2x2
   matrix pool (lowered to scalars), over several budgets, seeds and
   priors, each request sent twice so the second pass is answered from
   the service's memos; jq pool= on every pool; and a fleet-submit /
   fleet-status / fleet-release sequence on two pools.  Any change to a
   solver, scorer or cache that moves a reply fails it.

   golden/state_verbs.txt covers the state-changing verbs on an 8-worker
   scalar pool and a 3-worker 3-label matrix pool: sessions opened under
   every policy (one decided at open by its gain floor), vote, advise
   k=2, decide with and without truth=, close and the unknown-session
   errors after it; report batches that buffer, that are rejected, and
   one that applies, flags a drifted worker and re-solves the standing
   juries; a soliciting session invalidated by that version bump;
   quality, recal with buffered votes, and select before and after the
   bump.  Any change to sessions, calibration or the re-selection path
   that moves a reply fails it. *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let strip prefix line =
  let n = String.length prefix in
  if String.length line >= n && String.sub line 0 n = prefix then
    String.sub line n (String.length line - n)
  else Alcotest.failf "malformed transcript line (want %S): %s" prefix line

let rec exchanges = function
  | [] -> []
  | request :: reply :: rest ->
      (strip "> " request, strip "< " reply) :: exchanges rest
  | [ line ] -> Alcotest.failf "request without a reply: %s" line

let test_replay ~domains transcript () =
  let pairs = exchanges (read_lines transcript) in
  let svc = Serve.Service.create ~domains () in
  Fun.protect
    ~finally:(fun () -> Serve.Service.shutdown svc)
    (fun () ->
      List.iteri
        (fun i (request, expected) ->
          let got =
            match Serve.Wire.decode_request request with
            | Ok r -> Serve.Wire.encode_response (Serve.Service.submit svc r)
            | Error e -> Alcotest.failf "line %d does not decode: %s" (2 * i + 1) e
          in
          Alcotest.(check string)
            (Printf.sprintf "reply to line %d: %s" (2 * i + 1) request)
            expected got)
        pairs);
  Alcotest.(check bool) "transcript is not empty" true (pairs <> [])

let () =
  Alcotest.run "golden"
    [
      ( "replies",
        List.concat_map
          (fun (name, transcript) ->
            List.map
              (fun domains ->
                let label =
                  if domains = 1 then name ^ " byte for byte"
                  else Printf.sprintf "%s byte for byte at %d domains" name domains
                in
                Alcotest.test_case label `Quick (test_replay ~domains transcript))
              [ 1; 2; 4 ])
          [
            ("solver verbs", "golden/solver_verbs.txt");
            ("state verbs", "golden/state_verbs.txt");
          ] );
    ]
