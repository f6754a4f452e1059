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
   that moves a reply fails it.

   A sequential replay never fills a queue, so the solver transcript is
   also replayed with its order-independent requests submitted all at
   once into queues too small to hold them on one shard: spill and work
   stealing must not move a reply either.  Last, every line of both
   transcripts seeds a mutation fuzzer for the codec, and every reply must
   also be what the Printf encoder in [Oracle.Wire] writes. *)

module Wire = Serve.Wire

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

let transcripts =
  [
    ("solver verbs", "golden/solver_verbs.txt");
    ("state verbs", "golden/state_verbs.txt");
  ]

let decode request =
  match Wire.decode_request request with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s does not decode: %s" request e

let check_reply request expected reply =
  Alcotest.(check string)
    ("reply to " ^ request)
    expected
    (Wire.encode_response reply)

(* Submit without blocking; the returned function waits for the value [f]
   gave on the reply, in the reply's continuation. *)
let submit_async svc request f =
  let lock = Mutex.create () and cond = Condition.create () in
  let result = ref None in
  Serve.Service.submit_async svc request ~k:(fun reply ->
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

(* Send [pairs] one at a time, checking each reply; returns the [stats]
   the last reply's continuation read the moment it got it. *)
let rec replay_in_order svc = function
  | [] -> []
  | [ (request, expected) ] ->
      let reply, stats =
        submit_async svc (decode request)
          (fun reply -> (reply, Serve.Service.stats svc))
          ()
      in
      check_reply request expected reply;
      stats
  | (request, expected) :: rest ->
      check_reply request expected (Serve.Service.submit svc (decode request));
      replay_in_order svc rest

let test_replay ~domains transcript () =
  let pairs = exchanges (read_lines transcript) in
  let svc = Serve.Service.create ~domains () in
  Fun.protect
    ~finally:(fun () -> Serve.Service.shutdown svc)
    (fun () -> ignore (replay_in_order svc pairs));
  Alcotest.(check bool) "transcript is not empty" true (pairs <> [])

(* ---- replies under spill and steal ------------------------------------ *)

(* Every jq pool=, select and table reply is a function of the registry
   alone, so these requests may be answered in any order. *)
let order_independent request =
  match decode request with
  | Wire.Jq { source = Wire.Named _; _ } | Wire.Select _ | Wire.Table _ -> true
  | _ -> false

(* The counters a reordering must not change. *)
let request_counts stats =
  List.filter
    (fun (key, _) ->
      List.mem key [ "requests"; "ok"; "errors" ]
      || String.starts_with ~prefix:"req_" key)
    stats

(* Replay the pool-puts in order, submit the order-independent requests
   all at once, then replay the fleet lines in order.  The queue holds
   exactly the requests submitted together, so none is refused; a shard's
   slice of it (31 slots at 2 domains, 16 at 4) is smaller than the 34
   requests on pool s40, so that shard spills, and at 4 domains idle
   executors steal.  Returns the [steals] count and the request counters
   read by the last reply's continuation. *)
let spill_replay ~domains pairs =
  let puts, rest =
    List.partition
      (fun (request, _) -> String.starts_with ~prefix:"pool-put " request)
      pairs
  in
  let together, fleet =
    List.partition (fun (request, _) -> order_independent request) rest
  in
  let svc = Serve.Service.create ~domains ~queue_capacity:(List.length together) () in
  Fun.protect
    ~finally:(fun () -> Serve.Service.shutdown svc)
    (fun () ->
      ignore (replay_in_order svc puts);
      let waits =
        List.map
          (fun (request, expected) ->
            (request, expected, submit_async svc (decode request) Fun.id))
          together
      in
      List.iter
        (fun (request, expected, wait) -> check_reply request expected (wait ()))
        waits;
      let stats = replay_in_order svc fleet in
      (List.assoc "steals" (Serve.Service.stats svc), request_counts stats))

let test_spill_replay ~domains () =
  let pairs = exchanges (read_lines "golden/solver_verbs.txt") in
  let sequential =
    let svc = Serve.Service.create ~domains:1 () in
    Fun.protect
      ~finally:(fun () -> Serve.Service.shutdown svc)
      (fun () -> request_counts (replay_in_order svc pairs))
  in
  (* Stealing depends on scheduling: at 4 domains, retry a replay in
     which no executor happened to steal. *)
  let rec attempt n =
    let steals, counts = spill_replay ~domains pairs in
    Alcotest.(check (list (pair string (float 0.))))
      "request counters = sequential one-domain replay" sequential counts;
    if domains = 4 && steals = 0. then
      if n < 3 then attempt (n + 1)
      else Alcotest.fail "no executor stole in 3 replays at 4 domains"
  in
  attempt 1

(* ---- codec mutation fuzzer -------------------------------------------- *)

let substitutes = [ ' '; '='; ','; ':'; ';'; '@'; '%'; '\r'; '\000'; '\xff' ]
let long_value = 64 * 1024

(* Apply [f] to every mutation of [line]: each proper prefix, each
   single-byte substitution from [substitutes], and the line with one
   field's value repeated to 64 KiB. *)
let iter_mutations line f =
  let n = String.length line in
  for k = 0 to n - 1 do
    f (String.sub line 0 k)
  done;
  for i = 0 to n - 1 do
    List.iter
      (fun c ->
        let b = Bytes.of_string line in
        Bytes.set b i c;
        f (Bytes.to_string b))
      substitutes
  done;
  let tokens = String.split_on_char ' ' line in
  List.iteri
    (fun i token ->
      match String.index_opt token '=' with
      | Some p when p + 1 < String.length token ->
          let value = String.sub token (p + 1) (String.length token - p - 1) in
          let copies = (long_value / String.length value) + 1 in
          let grown =
            String.sub (String.concat "" (List.init copies (fun _ -> value))) 0 long_value
          in
          let key = String.sub token 0 (p + 1) in
          f
            (String.concat " "
               (List.mapi (fun j t -> if j = i then key ^ grown else t) tokens))
      | _ -> ())
    tokens

(* The digest of every decode result, error messages included, over every
   mutation of every transcript line.  It pins the field grammars, and was
   last recorded when numbers were held to the documented number grammar,
   which refuses the mutations that put a carriage return before a number
   or cut one after its decimal point ("\r.5", "5."). *)
let fuzz_digest = "71504c9f50aa77a9ab837b201205bf5e"

let test_fuzz () =
  let lines =
    List.concat_map
      (fun (_, path) ->
        List.concat_map
          (fun (request, reply) -> [ request; reply ])
          (exchanges (read_lines path)))
      transcripts
  in
  let digest = ref (Digest.string "") in
  let note s = digest := Digest.string (!digest ^ s) in
  let roundtrips what line encode decode value =
    let again = encode value in
    if decode again <> Ok value then
      Alcotest.failf "%s of %S re-encodes to %S, which decodes differently" what line
        again;
    note again
  in
  List.iter
    (fun line ->
      iter_mutations line (fun m ->
          (match Wire.decode_request m with
          | Ok r -> roundtrips "request" m Wire.encode_request Wire.decode_request r
          | Error e -> note ("request error " ^ e));
          match Wire.decode_response m with
          | Ok r -> roundtrips "response" m Wire.encode_response Wire.decode_response r
          | Error e -> note ("response error " ^ e)))
    lines;
  Alcotest.(check string) "decode digest" fuzz_digest (Digest.to_hex !digest)

(* Every recorded reply, decoded, encodes to its line both through the
   service's encoder and through the Printf encoder it replaced. *)
let test_oracle () =
  List.iter
    (fun (_, path) ->
      List.iter
        (fun (_, line) ->
          match Wire.decode_response line with
          | Error e -> Alcotest.failf "%s does not decode: %s" line e
          | Ok reply ->
              Alcotest.(check string) "oracle" line (Oracle.Wire.encode_response reply);
              Alcotest.(check string) "encoder" line (Wire.encode_response reply))
        (exchanges (read_lines path)))
    transcripts

(* Alcotest pads every suite name to the longest one and cuts a case name
   at 80 columns, so suite names longer than "replies" would cut the
   replay names short.  *)
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
          transcripts );
      ( "spill",
        List.map
          (fun domains ->
            Alcotest.test_case
              (Printf.sprintf "solver verbs sent together at %d domains" domains)
              `Quick (test_spill_replay ~domains))
          [ 2; 4 ] );
      ( "codec",
        [
          Alcotest.test_case "mutated transcript lines" `Quick test_fuzz;
          Alcotest.test_case "replies encode as the Printf oracle" `Quick test_oracle;
        ] );
    ]
