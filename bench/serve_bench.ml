(* Serving throughput benchmark: an in-process Serve.Service driven by
   closed-loop client threads, at 1, 2 and 4 executor domains.  Each row
   reports sustained request throughput and client-side latency
   quantiles; the summary compares the 2-domain and widest rows against
   the single-domain row.  On a multi-core host the sharded plane should
   scale; on a 1-core host true parallel speedup is impossible, but the
   sharded queues and per-domain metrics must not *lose* throughput to
   contention the way a single global lock does.

   The mix is same-pool jq queries (exercising the per-version jq memo,
   whose hits are answered on the submitting thread) and selects that
   each carry a key the row has not served (a per-client seed counter),
   so every select is a full annealing solve and the rows measure
   executor-bound work.  Selects
   over a few repeated keys would be jury-memo hits, light enough that
   clients and handoffs, not executors, bound the rows (docs/perf.md
   records that variant).

   A second section exercises the connection plane over real TCP: rows
   of 100 and 1000 simultaneously open connections against a running
   Serve.Server, where a small active subset runs closed-loop jq
   requests while the rest sit idle on the event loop.  Each row reports
   how fast the loop drained the accept burst and the active clients'
   reply latency quantiles — the regression this catches is the
   connection plane itself (accept path, readiness bookkeeping, timer
   scans) degrading as open-connection count grows.

   Flags:
     --fast        short rows (~1 s) for CI
     --seconds S   row duration (default 3.0)
     --gate        exit 1 when any row has errors, when
                   speedup_vs_1_domain falls below the core-aware
                   threshold (1.3 on >= 2 cores, 0.8 on a 1-core host
                   where only contention overhead is measurable), or
                   when a connection row sheds/errors/fails to hold its
                   conns or its active p95 exceeds 1 s

   Results are dumped as BENCH_serve.json. *)

module Wire = Serve.Wire

(* Four pools whose names land on distinct shards at 4 shards and split
   2/2 at 2 shards (affinity is [Hashtbl.hash name mod shards]), so the
   scaling rows measure the sharded plane itself rather than the luck of
   the hash.  Every pool holds the same generated worker set. *)
let pool_names = [| "bench-1"; "bench-2"; "bench-12"; "bench-0" |]

type row = {
  domains : int;
  requests : int;
  overloads : int;
  errors : int;
  wall_s : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

let pool_size = 40
let budget = 12.

(* Closed-loop offered load is held constant across rows — two clients
   per pool — so the domain axis varies service parallelism only. *)
let n_clients = 2 * 4

let bench_row ~duration ~workers ~domains =
  let service =
    Serve.Service.create ~domains ~queue_capacity:1024 ()
  in
  Array.iter
    (fun name ->
      match
        Serve.Service.submit service (Wire.Pool_put { name; workers })
      with
      | Wire.Pool_info _ -> ()
      | r -> failwith ("pool-put: " ^ Wire.encode_response r))
    pool_names;
  let counts = Array.make n_clients (0, 0, 0) in
  let lats = Array.make n_clients [] in
  let t_start = Serve.Clock.now () in
  let t_end = t_start +. duration in
  let client i =
    let pool = pool_names.(i mod Array.length pool_names) in
    let sent = ref 0 and overload = ref 0 and errors = ref 0 in
    let acc = ref [] in
    while Serve.Clock.now () < t_end do
      let request =
        (* 3:1 jq-to-select on the client's own pool, interleaved
           deterministically per thread — repeated same-pool jq queries
           are answered from the jq memo. *)
        if !sent mod 4 < 3 then
          Wire.Jq
            {
              source = Wire.Named pool;
              prior = [ 0.5; 0.5 ];
              num_buckets = Jq.Bucket.default_num_buckets;
            }
        else
          (* Seeds i, i + n_clients, ...: no client repeats a key, and
             no two clients share one. *)
          Wire.Select
            {
              pool;
              budget;
              prior = [ 0.5; 0.5 ];
              seed = i + (n_clients * (!sent / 4));
            }
      in
      let t0 = Serve.Clock.now () in
      let reply = Serve.Service.submit service request in
      let t1 = Serve.Clock.now () in
      incr sent;
      acc := (t1 -. t0) :: !acc;
      (match reply with
      | Wire.Jq_result _ | Wire.Select_result _ -> ()
      | Wire.Error { code = Wire.Overload; _ } -> incr overload
      | Wire.Error _ -> incr errors
      | _ -> incr errors)
    done;
    counts.(i) <- (!sent, !overload, !errors);
    lats.(i) <- !acc
  in
  let threads = List.init n_clients (fun i -> Thread.create client i) in
  List.iter Thread.join threads;
  let wall_s = Serve.Clock.now () -. t_start in
  Serve.Service.shutdown service;
  let requests = Array.fold_left (fun a (s, _, _) -> a + s) 0 counts in
  let overloads = Array.fold_left (fun a (_, o, _) -> a + o) 0 counts in
  let errors = Array.fold_left (fun a (_, _, e) -> a + e) 0 counts in
  (match Serve.Service.submit service Wire.Stats with
  | Wire.Stats_result kv ->
      List.iter
        (fun (k, v) ->
          match k with
          | "steals" | "jq_memo_hits" | "requests" | "overloads" ->
              Printf.eprintf "  %s=%.0f" k v
          | _ -> ())
        kv;
      Printf.eprintf "\n%!"
  | _ -> ());
  let all = Array.of_list (List.concat (Array.to_list lats)) in
  let q p = if Array.length all = 0 then 0. else 1000. *. Prob.Stats.quantile all p in
  {
    domains;
    requests;
    overloads;
    errors;
    wall_s;
    p50_ms = q 0.5;
    p95_ms = q 0.95;
    p99_ms = q 0.99;
  }

let row_json r =
  Printf.sprintf
    "{\"domains\": %d, \"requests\": %d, \"throughput_rps\": %.1f, \
     \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, \
     \"overloads\": %d, \"errors\": %d}"
    r.domains r.requests
    (float_of_int r.requests /. r.wall_s)
    r.p50_ms r.p95_ms r.p99_ms r.overloads r.errors

(* ---- connection-scaling rows (real TCP against a Server) ------------ *)

type conn_row = {
  conns : int;
  held : int; (* conns_open once the accept burst drained *)
  accept_s : float;
  accepted_per_s : float;
  c_requests : int;
  c_overloads : int;
  c_errors : int;
  rejected : int;
  timeouts : int;
  c_p50_ms : float;
  c_p95_ms : float;
  c_p99_ms : float;
}

let active_clients = 8

let stat service key =
  match List.assoc_opt key (Serve.Service.stats service) with
  | Some v -> v
  | None -> 0.

let bench_conns ~duration ~workers ~conns:n =
  (* Headroom: n client fds here + n accepted fds in the server + the
     process's own descriptors, all in one process. *)
  let need = (2 * n) + 512 in
  if Serve.Evloop.rlimit_nofile () < need then
    ignore (Serve.Evloop.rlimit_nofile ~set:need ());
  let service = Serve.Service.create ~domains:2 ~queue_capacity:1024 () in
  let pool = "bench-1" in
  (match Serve.Service.submit service (Wire.Pool_put { name = pool; workers })
   with
  | Wire.Pool_info _ -> ()
  | r -> failwith ("pool-put: " ^ Wire.encode_response r));
  let server =
    Serve.Server.create ~backlog:1024 ~max_conns:(n + 16) ~idle_timeout:30.
      ~port:0 service
  in
  Serve.Server.start server;
  let port = Serve.Server.port server in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  (* Accept burst: open every connection, then wait for the event loop
     to drain the backlog (conns_open is the server's own gauge). *)
  let t0 = Serve.Clock.now () in
  let fds =
    Array.init n (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd addr;
        fd)
  in
  let deadline = Serve.Clock.now () +. 30. in
  while stat service "conns_open" < float_of_int n
        && Serve.Clock.now () < deadline do
    Thread.yield ()
  done;
  let accept_s = Serve.Clock.now () -. t0 in
  let held = int_of_float (stat service "conns_open") in
  (* Active subset: closed-loop jq on the first [active_clients]
     already-open connections while the other n - [active_clients]
     connections idle on the loop. *)
  let counts = Array.make active_clients (0, 0, 0) in
  let lats = Array.make active_clients [] in
  let t_end = Serve.Clock.now () +. duration in
  let client i =
    let ic = Unix.in_channel_of_descr fds.(i) in
    let oc = Unix.out_channel_of_descr fds.(i) in
    let sent = ref 0 and overload = ref 0 and errors = ref 0 in
    let acc = ref [] in
    let request =
      Wire.encode_request
        (Wire.Jq
           {
             source = Wire.Named pool;
             prior = [ 0.5; 0.5 ];
             num_buckets = Jq.Bucket.default_num_buckets;
           })
    in
    (try
       while Serve.Clock.now () < t_end do
         let t0 = Serve.Clock.now () in
         output_string oc request;
         output_char oc '\n';
         flush oc;
         let reply = input_line ic in
         let t1 = Serve.Clock.now () in
         incr sent;
         acc := (t1 -. t0) :: !acc;
         match Wire.decode_response reply with
         | Ok (Wire.Jq_result _) -> ()
         | Ok (Wire.Error { code = Wire.Overload; _ }) -> incr overload
         | Ok _ | Error _ -> incr errors
       done
     with End_of_file | Sys_error _ | Unix.Unix_error _ -> incr errors);
    counts.(i) <- (!sent, !overload, !errors);
    lats.(i) <- !acc
  in
  let threads = List.init active_clients (fun i -> Thread.create client i) in
  List.iter Thread.join threads;
  let rejected = int_of_float (stat service "conns_rejected") in
  let timeouts = int_of_float (stat service "read_timeouts") in
  Array.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    fds;
  Serve.Server.stop server;
  Serve.Service.shutdown service;
  let c_requests = Array.fold_left (fun a (s, _, _) -> a + s) 0 counts in
  let c_overloads = Array.fold_left (fun a (_, o, _) -> a + o) 0 counts in
  let c_errors = Array.fold_left (fun a (_, _, e) -> a + e) 0 counts in
  let all = Array.of_list (List.concat (Array.to_list lats)) in
  let q p =
    if Array.length all = 0 then 0. else 1000. *. Prob.Stats.quantile all p
  in
  {
    conns = n;
    held;
    accept_s;
    accepted_per_s = (if accept_s > 0. then float_of_int held /. accept_s else 0.);
    c_requests;
    c_overloads;
    c_errors;
    rejected;
    timeouts;
    c_p50_ms = q 0.5;
    c_p95_ms = q 0.95;
    c_p99_ms = q 0.99;
  }

let conn_row_json r =
  Printf.sprintf
    "{\"conns\": %d, \"held\": %d, \"accept_s\": %.3f, \
     \"accepted_per_s\": %.0f, \"requests\": %d, \"p50_ms\": %.3f, \
     \"p95_ms\": %.3f, \"p99_ms\": %.3f, \"overloads\": %d, \
     \"errors\": %d, \"rejected\": %d, \"read_timeouts\": %d}"
    r.conns r.held r.accept_s r.accepted_per_s r.c_requests r.c_p50_ms
    r.c_p95_ms r.c_p99_ms r.c_overloads r.c_errors r.rejected r.timeouts

let () =
  (* Executor domains size their own minor heaps (Serve.Service); the
     client threads allocate in this domain, whose collections handshake
     with every executor just the same. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 4 * 1024 * 1024 };
  (* The connection rows write into sockets the server may close first. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let duration = ref 3.0 in
  let gate = ref false in
  let rec parse = function
    | [] -> ()
    | "--fast" :: rest ->
        duration := 1.0;
        parse rest
    | "--seconds" :: s :: rest ->
        duration := float_of_string s;
        parse rest
    | "--gate" :: rest ->
        gate := true;
        parse rest
    | arg :: _ -> failwith ("unknown argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let pool =
    Workers.Generator.gaussian_pool (Prob.Rng.create 7)
      Workers.Generator.default pool_size
  in
  let workers =
    List.map
      (fun w -> Wire.Scalar (Workers.Worker.quality w, Workers.Worker.cost w))
      (Workers.Pool.to_list pool)
  in
  let widths = [ 1; 2; 4 ] in
  let rows =
    List.map
      (fun domains ->
        let r = bench_row ~duration:!duration ~workers ~domains in
        Printf.eprintf "domains=%d: %s\n%!" domains (row_json r);
        r)
      widths
  in
  let throughput r = float_of_int r.requests /. r.wall_s in
  let base = List.hd rows in
  let widest = List.nth rows (List.length rows - 1) in
  let speedup_of r =
    if throughput base > 0. then throughput r /. throughput base else 0.
  in
  let speedup = speedup_of widest in
  let scaling_2d =
    match List.find_opt (fun r -> r.domains = 2) rows with
    | Some r -> speedup_of r
    | None -> speedup
  in
  let cores = Domain.recommended_domain_count () in
  (* On a single-core host the executor domains time-slice one CPU, so a
     parallel speedup target is meaningless; what the gate can still
     catch there is the contention-collapse regression this bench was
     built to expose (the global-lock plane scored 0.65-0.73).  The
     sharded plane measures ~0.86-0.96 here; 0.8 splits the two with
     margin for run-to-run noise. *)
  let threshold = if cores >= 2 then 1.3 else 0.8 in
  let total_errors = List.fold_left (fun a r -> a + r.errors) 0 rows in
  let conn_rows =
    List.map
      (fun conns ->
        let r = bench_conns ~duration:!duration ~workers ~conns in
        Printf.eprintf "conns=%d: %s\n%!" conns (conn_row_json r);
        r)
      [ 100; 1000 ]
  in
  let json =
    Printf.sprintf
      "{\"bench\": \"serve\", \"pool_size\": %d, \"budget\": %.2f, \
       \"seconds_per_row\": %.2f, \"cores\": %d, \"rows\": [%s], \
       \"conn_rows\": [%s], \"scaling_2d\": %.2f, \
       \"speedup_vs_1_domain\": %.2f, \"gate_threshold\": %.2f}\n"
      pool_size budget !duration cores
      (String.concat ", " (List.map row_json rows))
      (String.concat ", " (List.map conn_row_json conn_rows))
      scaling_2d speedup threshold
  in
  let oc = open_out "BENCH_serve.json" in
  output_string oc json;
  close_out oc;
  print_string json;
  if !gate then begin
    if total_errors > 0 then begin
      Printf.eprintf "GATE FAIL: %d request errors across rows\n%!"
        total_errors;
      exit 1
    end;
    if speedup < threshold then begin
      Printf.eprintf
        "GATE FAIL: speedup_vs_1_domain %.2f < %.2f (host has %d core%s)\n%!"
        speedup threshold cores
        (if cores = 1 then "" else "s");
      exit 1
    end;
    List.iter
      (fun r ->
        if r.held < r.conns then begin
          Printf.eprintf
            "GATE FAIL: held %d of %d connections after the accept burst\n%!"
            r.held r.conns;
          exit 1
        end;
        if r.rejected > 0 || r.c_errors > 0 || r.timeouts > 0 then begin
          Printf.eprintf
            "GATE FAIL: conns=%d rejected=%d errors=%d read_timeouts=%d\n%!"
            r.conns r.rejected r.c_errors r.timeouts;
          exit 1
        end;
        (* Generous: active p95 must not collapse as idle conns scale. *)
        if r.c_p95_ms > 1000. then begin
          Printf.eprintf "GATE FAIL: conns=%d active p95 %.1f ms > 1000 ms\n%!"
            r.conns r.c_p95_ms;
          exit 1
        end)
      conn_rows;
    Printf.eprintf
      "GATE OK: speedup %.2f >= %.2f on %d core%s, 0 errors, conn rows clean\n%!"
      speedup threshold cores
      (if cores = 1 then "" else "s")
  end
