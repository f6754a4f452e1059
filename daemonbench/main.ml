(* The daemon benchmark: one workload, one seed per invocation.

     main.exe --workload warm-reads|cold-solve|write-churn --seed N
              --seconds S --trace 0|1 [--daemon PATH]

   A run first replays the script sequentially through an in-process
   service, the reference.  It then repeats rounds until [--seconds] have
   passed (at least three).  Each round spawns a fresh [optjs_cli serve
   --port 0 --domains 1 --log-interval 0], performs the workload's set-up,
   drives the fixed script over two loopback connections, differences the
   daemon's [stats] across the timed phase and kills the daemon.  Timings
   are medians over rounds, and every round's masked non-fleet replies
   must match the reference byte for byte.

   [--trace 1] alternates untraced and traced rounds, replays the script in
   process with spans around each layer and shadow kernel calls, and prints
   the per-layer metrics instead of the end-to-end ones.  The last line of
   standard output is the JSON result; the exit code is nonzero when a
   reply check fails. *)

open Daemonbench

let now = Serve.Clock.now

let median xs =
  match List.filter Float.is_finite xs with
  | [] -> nan
  | xs -> Prob.Stats.quantile (Array.of_list xs) 0.5

let quantile arr p = if Array.length arr = 0 then nan else Prob.Stats.quantile arr p

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b = 0. then nan else a /. b

(* ---- one round against a fresh daemon -------------------------------- *)

type round = {
  traced : bool;
  setup_s : float;
  wall_s : float;
  trips : Tcp.trip array array;
  run : Check.run;
  summary : Check.summary;
  daemon_cpu_s : float;
  client_cpu_s : float;
  rss_mb : float;
  before : (string * float) list;
  after : (string * float) list;
  steal : float;  (** Host steal share over the timed phase. *)
  ref_ms : float;  (** Reference loop timed just before the round. *)
}

let requests r = Array.fold_left (fun n t -> n + Array.length t) 0 r.trips

let latencies r =
  Array.concat
    (Array.to_list
       (Array.map (Array.map (fun (t : Tcp.trip) -> t.received -. t.sent)) r.trips))

let stat kv key = Option.value ~default:0. (List.assoc_opt key kv)
let delta r key = stat r.after key -. stat r.before key
let client_cpu () = let t = Unix.times () in t.tms_utime +. t.tms_stime

let run_round ?trace ~exe (script : Script.t) =
  let ref_ms = (Host.sample ()).loop_ms in
  let t0 = now () in
  let d = Tcp.spawn exe in
  Fun.protect
    ~finally:(fun () -> Tcp.kill d)
    (fun () ->
      let conns = Array.init Script.connections (fun _ -> Tcp.connect d.port) in
      let exchange line =
        { Check.request = line; reply = Tcp.roundtrip conns.(0) line }
      in
      let setup = Array.of_list (List.map exchange script.setup) in
      Array.iter
        (fun (e : Check.exchange) ->
          if not (Check.ok e) then
            failwith (Printf.sprintf "set-up failed: %s -> %s" e.request e.reply))
        setup;
      let setup_s = now () -. t0 in
      let before = Tcp.stats conns.(0) in
      let h0 = Host.sample ~loop:false () in
      let cpu0 = Host.cpu_seconds d.pid and ccpu0 = client_cpu () in
      let t1 = now () in
      let trips = Tcp.drive ?trace conns (Array.map Script.cursor script.conns) in
      let wall_s = now () -. t1 in
      let ccpu1 = client_cpu () and cpu1 = Host.cpu_seconds d.pid in
      let h1 = Host.sample ~loop:false () in
      let after = Tcp.stats conns.(0) in
      let rss_mb = Host.peak_rss_mb d.pid in
      let final = Array.of_list (List.map exchange script.final) in
      Array.iter Tcp.close conns;
      let run =
        {
          Check.setup;
          conns =
            Array.map
              (Array.map (fun (t : Tcp.trip) ->
                   { Check.request = t.line; reply = t.reply }))
              trips;
          final;
        }
      in
      {
        traced = trace <> None;
        setup_s;
        wall_s;
        trips;
        run;
        summary = Check.summarize script run;
        daemon_cpu_s = cpu1 -. cpu0;
        client_cpu_s = ccpu1 -. ccpu0;
        rss_mb;
        before;
        after;
        steal = Host.steal_share h0 h1;
        ref_ms;
      })

(* ---- metrics --------------------------------------------------------- *)

let put = Report.put

let end_to_end table rounds =
  let per f = List.map f rounds in
  let n_rounds = List.length rounds in
  let total = List.fold_left (fun n r -> n + requests r) 0 rounds in
  put table "setup_s" (median (per (fun r -> r.setup_s))) n_rounds;
  put table "throughput_rps"
    (median (per (fun r -> float_of_int (requests r) /. r.wall_s)))
    n_rounds;
  let latency p = median (per (fun r -> 1e3 *. quantile (latencies r) p)) in
  put table "latency_p50_ms" (latency 0.5) total;
  put table "latency_p99_ms" (latency 0.99) total;
  let ok = List.fold_left (fun n r -> n + r.summary.ok) 0 rounds in
  put table ~base:(Printf.sprintf "%d/%d" ok total) "ok_share"
    (ratio (float_of_int ok) (float_of_int total))
    total;
  put table "rss_peak_mb" (median (per (fun r -> r.rss_mb))) n_rounds;
  put table "cpu_us_per_req"
    (median (per (fun r -> 1e6 *. r.daemon_cpu_s /. float_of_int (requests r))))
    n_rounds;
  let s = (List.hd rounds).summary in
  let over ?base f name n = put table ?base name (median (per (fun r -> f r.summary))) n in
  over (fun s -> mean s.jury) "jury_jq_mean" (List.length s.jury);
  over (fun s -> mean s.bounds) "jq_bound_mean" (List.length s.bounds);
  over
    (fun s -> ratio (float_of_int s.votes) (float_of_int s.decided))
    "session_votes_per_task" s.decided;
  over
    ~base:(Printf.sprintf "%d/%d decided sessions" s.right s.decided)
    (fun s -> ratio (float_of_int s.right) (float_of_int s.decided))
    "session_accuracy" s.decided;
  over (fun s -> mean s.fleet) "fleet_jq_mean" (List.length s.fleet);
  over (fun s -> mean s.calib) "calib_error" (List.length s.calib)

let starts_with p s = String.starts_with ~prefix:p s

(* Per-layer figures from the traced rounds, the traced in-process replay
   and the daemon's [stats] deltas. *)
let per_layer table ~(script : Script.t) ~tr ~(reference : Check.run) ~rounds ~verdicts
    ~host =
  let traced = List.filter (fun r -> r.traced) rounds in
  let plain = List.filter (fun r -> not r.traced) rounds in
  let nt = List.length traced in
  let med f = median (List.map f traced) in
  let count name key = put table name (med (fun r -> delta r key)) nt in
  let timed = Trace.timed in
  (* Connection plane: round trip minus the in-process decode, submit and
     encode of the same request.  When the other connection's request was
     already in flight as this one was sent, the single executor served
     that one first: its remaining part, at most its in-process time, is
     subtracted too.  Only light round trips count, where that subtracted
     time is under [light]: the replay runs at another moment than the
     rounds, and a few percent of host drift on a millisecond of solver
     work would swamp the residue.  Cold-solve has none. *)
  let inproc = Hashtbl.create 4096 in
  Trace.iter tr (fun _ s ->
      if
        timed s.req
        && (s.name = "wire.decode" || starts_with "service.submit." s.name
           || starts_with "wire.encode." s.name)
      then
        Hashtbl.replace inproc s.req
          (Trace.duration s +. Option.value ~default:0. (Hashtbl.find_opt inproc s.req)));
  let cost c i =
    Option.value ~default:nan (Hashtbl.find_opt inproc (Trace.conn_req c i))
  in
  let light = 200e-6 in
  let residues = ref [] and seen = ref 0 and behind = ref 0 in
  List.iter
    (fun r ->
      Array.iteri
        (fun c trips ->
          Array.iteri
            (fun i (t : Tcp.trip) ->
              incr seen;
              let wait = ref 0. in
              Array.iteri
                (fun o others ->
                  if o <> c then
                    match Tcp.in_flight others t.sent with
                    | Some j ->
                        incr behind;
                        wait :=
                          !wait +. Float.min (cost o j) (others.(j).received -. t.sent)
                    | None -> ())
                r.trips;
              let work = cost c i +. !wait in
              if work < light then
                residues := (t.received -. t.sent -. work) :: !residues)
            trips)
        r.trips)
    traced;
  let residues = Array.of_list !residues in
  put table
    ~base:
      (Printf.sprintf "%d light of %d round trips, %d behind the other connection"
         (Array.length residues) !seen !behind)
    "server.residue_us_p50" (1e6 *. quantile residues 0.5) (Array.length residues);
  put table "client.cpu_us_per_req"
    (median (List.map (fun r -> 1e6 *. r.client_cpu_s /. float_of_int (requests r)) plain))
    (List.length plain);
  let spans name = Trace.durations ~keep:timed tr name in
  let p50 name key =
    let d = spans name in
    put table key (1e6 *. quantile d 0.5) (Array.length d)
  in
  p50 "wire.decode" "wire.decode_us";
  List.iter
    (fun v ->
      p50 ("wire.encode." ^ v) ("wire.encode_us." ^ v);
      let d = spans ("service.submit." ^ v) in
      put table ("service.submit_us_p50." ^ v) (1e6 *. quantile d 0.5) (Array.length d);
      put table ("service.submit_us_p99." ^ v) (1e6 *. quantile d 0.99) (Array.length d);
      let self = Trace.self_times ~keep:timed tr ("service.submit." ^ v) in
      put table ("service.self_us." ^ v) (1e6 *. quantile self 0.5) (Array.length self))
    Report.verbs;
  let replies = Array.concat (Array.to_list reference.conns) in
  put table "wire.reply_bytes_mean"
    (mean
       (Array.to_list
          (Array.map
             (fun (e : Check.exchange) -> float_of_int (String.length e.reply + 1))
             replies)))
    (Array.length replies);
  (* Dispatch and memos, from the daemon's counters. *)
  let pool_jq =
    Array.fold_left
      (fun n (e : Check.exchange) ->
        if starts_with "jq pool=" e.request then n + 1 else n)
      0 replies
  in
  let memo_hits = med (fun r -> delta r "jq_memo_hits") in
  put table
    ~base:(Printf.sprintf "%.0f hits / %d pool-jq requests" memo_hits pool_jq)
    "service.jq_memo_hit_share" (ratio memo_hits (float_of_int pool_jq)) nt;
  count "service.jq_memo_hits" "jq_memo_hits";
  let jq_req = med (fun r -> delta r "req_jq")
  and saved = med (fun r -> delta r "batched_saved") in
  put table
    ~base:(Printf.sprintf "%.0f coalesced / %.0f jq requests" saved jq_req)
    "service.batched_share" (ratio saved jq_req) nt;
  count "service.batched_saved" "batched_saved";
  count "service.batches" "batches";
  count "service.overloads" "overloads";
  let hits = med (fun r -> delta r "cache_hits")
  and misses = med (fun r -> delta r "cache_misses") in
  put table
    ~base:(Printf.sprintf "%.0f hits / %.0f lookups" hits (hits +. misses))
    "cache.hit_rate" (ratio hits (hits +. misses)) nt;
  count "cache.hits" "cache_hits";
  count "cache.misses" "cache_misses";
  (* Kernels and solver, from the shadow calls. *)
  p50 "jq.bucket" "jq.bucket_us";
  p50 "jq.multiclass" "jq.multiclass_us";
  count "jq.evals" "jq_evals";
  count "jq.flat_fallbacks" "jq_flat_fallbacks";
  let ms name key =
    let d = spans name in
    put table key (1e3 *. quantile d 0.5) (Array.length d)
  in
  ms "jsp.anneal" "jsp.anneal_ms_p50";
  ms "jsp.replay" "jsp.replay_ms_p50";
  let solves =
    Array.fold_left
      (fun n (e : Check.exchange) ->
        match Serve.Wire.decode_request e.request with
        | Ok (Serve.Wire.Select _) -> n + 1
        | Ok (Serve.Wire.Table { budgets; _ }) -> n + List.length budgets
        | _ -> n)
      0 replies
  in
  let solves = float_of_int solves +. med (fun r -> delta r "recal_runs") in
  put table
    ~base:(Printf.sprintf "%.0f misses / %.0f solves" misses solves)
    "jsp.score_misses_per_solve" (ratio misses solves) nt;
  (* Stateful planes, from [stats]: quantiles over the daemon's recent
     samples after the timed phase, counters differenced. *)
  let gauge name key scale =
    let present = List.filter (fun r -> List.mem_assoc key r.after) traced in
    put table name
      (median (List.map (fun r -> stat r.after key /. scale) present))
      (List.length present)
  in
  gauge "session.verb_us_p50" "session_verb_ns_p50" 1e3;
  gauge "session.verb_us_p99" "session_verb_ns_p99" 1e3;
  put table
    ~base:(Printf.sprintf "of %.0f opened" (med (fun r -> delta r "sessions_opened")))
    "session.invalidated"
    (med (fun r -> delta r "sessions_invalidated"))
    nt;
  (* Sessions invalidated by their own deciding vote, from an in-process
     pass whose conversations send [decide truth=] after every vote that
     ended a session.  The timed conversations close such a session
     instead, so none of their requests fails. *)
  let sessions = Script.sessions script in
  if sessions > 0 then begin
    let probe = Replay.run ~probe:true script in
    let stale =
      Array.fold_left
        (Array.fold_left (fun n (e : Check.exchange) ->
             match Check.decode e with
             | Some
                 ( Serve.Wire.Session_decide _,
                   Serve.Wire.Error { code = Serve.Wire.Unknown_session; _ } ) ->
                 n + 1
             | _ -> n))
        0 probe.conns
    in
    put table
      ~base:(Printf.sprintf "of %d sessions" sessions)
      "session.self_invalidated" (float_of_int stale) sessions
  end;
  gauge "calib.ingest_us_p99" "ingest_ns_p99" 1e3;
  count "calib.ingests" "ingests";
  count "calib.drift_flags" "drift_flags";
  count "calib.recal_runs" "recal_runs";
  gauge "fleet.assign_us_p50" "fleet_assign_ns_p50" 1e3;
  gauge "fleet.assign_us_p99" "fleet_assign_ns_p99" 1e3;
  List.iter
    (fun k -> count ("fleet." ^ k) ("fleet_" ^ k))
    [
      "inner_solves"; "full_solves"; "delta_solves"; "resyncs"; "price_rounds";
      "proposal_hits";
    ];
  let traced_verdicts =
    List.concat (List.map2 (fun r v -> if r.traced then [ v ] else []) rounds verdicts)
  in
  let over_verdicts f =
    median (List.map (fun v -> float_of_int (f v)) traced_verdicts)
  in
  put table
    ~base:
      (Printf.sprintf "of %.0f fleet replies"
         (over_verdicts (fun (v : Check.verdict) -> v.fleet_replies)))
    "fleet.reply_mismatches"
    (over_verdicts (fun (v : Check.verdict) -> v.fleet_mismatches))
    nt;
  (* Metrics recording cost, timed on a private registry. *)
  let m = Serve.Metrics.create () in
  let batch = 100_000 in
  let record =
    List.init 5 (fun _ ->
        let t0 = now () in
        for _ = 1 to batch do
          Serve.Metrics.record m ~shard:0 ~verb:"select" ~latency:1e-4 ~ok:true
        done;
        1e9 *. (now () -. t0) /. float_of_int batch)
  in
  put table "metrics.record_ns" (median record) (5 * batch);
  let (h0 : Host.sample), (h1 : Host.sample) = host in
  put table "host.steal_share" (Host.steal_share h0 h1) 2;
  put table "host.ref_loop_ms" (median [ h0.loop_ms; h1.loop_ms ]) 2;
  let p50_of rs = median (List.map (fun r -> quantile (latencies r) 0.5) rs) in
  put table "trace.overhead_us_p50" (1e6 *. (p50_of traced -. p50_of plain)) nt

(* ---- main ------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload warm-reads|cold-solve|write-churn --seed N \
     --seconds S --trace 0|1 [--daemon PATH]";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref false and exe = ref "_build/default/bin/optjs_cli.exe" in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := Script.of_name w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string_opt s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | "--daemon" :: p :: rest -> exe := p; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workload, seed, seconds =
    match (!workload, !seed, !seconds) with
    | Some w, Some s, Some t when t > 0. -> (w, s, t)
    | _ -> usage ()
  in
  if not (Sys.file_exists !exe) then begin
    prerr_endline ("daemon binary not found: " ^ !exe);
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Exit through [at_exit] on a termination signal, so the running daemon
     is killed and reaped too. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  (* The same minor heap as the daemon's executor, so shadow kernel calls
     collect as often as the calls they stand in for. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 4 * 1024 * 1024 };
  let script = Script.generate workload ~seed in
  (* The reference first, while this process's heap is small: major
     collections of the rounds' records would otherwise slow the timed
     in-process calls. *)
  let tr = Trace.create () in
  let reference = Replay.run ?trace:(if !trace then Some tr else None) script in
  let h0 = Host.sample () in
  let t_start = now () in
  let min_rounds = if !trace then 4 else 3 in
  let rec go i acc =
    if i >= min_rounds && now () -. t_start >= seconds then List.rev acc
    else
      let trace = if !trace && i mod 2 = 1 then Some (tr, i) else None in
      go (i + 1) (run_round ?trace ~exe:!exe script :: acc)
  in
  let rounds = go 0 [] in
  let h1 = Host.sample () in
  let verdicts = List.map (fun r -> Check.compare_with ~reference r.run) rounds in
  let mismatches =
    List.fold_left (fun n (v : Check.verdict) -> n + v.mismatches) 0 verdicts
  in
  let fleet_bad = List.fold_left (fun n r -> n + r.summary.fleet_bad) 0 rounds in
  let correct = mismatches = 0 && fleet_bad = 0 in
  let attempted = List.fold_left (fun n r -> n + requests r) 0 rounds in
  let failed = List.fold_left (fun n r -> n + requests r - r.summary.ok) 0 rounds in
  let table = Report.create () in
  let plain = List.filter (fun r -> not r.traced) rounds in
  end_to_end table plain;
  if !trace then
    per_layer table ~script ~tr ~reference ~rounds ~verdicts ~host:(h0, h1);
  Printf.printf "daemonbench %s seed=%d rounds=%d (%d traced) requests/round=%d\n"
    (Script.name workload) seed (List.length rounds)
    (List.length rounds - List.length plain)
    (requests (List.hd rounds));
  Printf.printf "host: steal_share %.4f  ref_loop_ms before %.2f after %.2f\n"
    (Host.steal_share h0 h1) h0.loop_ms h1.loop_ms;
  Printf.printf
    "replies: masked digest %s  non-fleet mismatches %d  fleet mismatches %s  \
     fleet budget/score violations %d\n"
    (Check.digest reference) mismatches
    (String.concat ","
       (List.map
          (fun (v : Check.verdict) -> string_of_int v.fleet_mismatches)
          verdicts))
    fleet_bad;
  List.iter
    (fun (v : Check.verdict) ->
      Option.iter (Printf.printf "first mismatch: %s\n") v.first)
    verdicts;
  List.iteri
    (fun i r ->
      let lat = latencies r in
      Printf.printf
        "round %d%s: setup %.4fs  %.1f req/s  p50 %.4fms  p99 %.3fms  daemon \
         cpu %.1fus/req  steal %.2f%%  ref_loop %.2fms\n"
        i (if r.traced then " (traced)" else "") r.setup_s
        (float_of_int (requests r) /. r.wall_s)
        (1e3 *. quantile lat 0.5) (1e3 *. quantile lat 0.99)
        (1e6 *. r.daemon_cpu_s /. float_of_int (requests r))
        (100. *. r.steal) r.ref_ms)
    rounds;
  print_endline "end-to-end (untraced rounds):";
  Report.print_table table (Report.end_to_end @ Report.workload_quality);
  if !trace then begin
    print_endline "per-layer (traced rounds and in-process replay):";
    Report.print_table table Report.per_layer;
    (try Sys.mkdir ".bench_tmp" 0o755 with Sys_error _ -> ());
    let path =
      Printf.sprintf ".bench_tmp/spans-%s-%d.tsv" (Script.name workload) seed
    in
    Trace.write tr path;
    Printf.printf "spans: %d written to %s\n" tr.len path
  end;
  print_endline
    (Report.json ~correct ~attempted ~failed table
       (if !trace then Report.per_layer else Report.end_to_end));
  if not correct then exit 1
