let ring_size = 2048  (* per shard; quantiles merge the shards' rings *)

type shard = {
  lock : Mutex.t;  (* one writer domain + the snapshot thread: uncontended *)
  mutable requests : int;
  mutable ok : int;
  mutable errors : int;
  mutable overloads : int;
  mutable deadlines : int;
  mutable batches : int;
  mutable batched_saved : int;
  mutable jq_memo_hits : int;
  mutable select_memo_hits : int;
  mutable steals : int;
  mutable solver_cache : Jsp.Objective_cache.stats;  (* summed over solves *)
  per_verb : (string, int ref) Hashtbl.t;
  histogram : Prob.Histogram.t;      (* seconds, [0, 1] in 10 ms buckets *)
  ring : float array;                (* recent latencies, seconds *)
  mutable ring_len : int;
  mutable ring_next : int;
  mutable jq_evals : int;
  mutable jq_flat_fallbacks : int;   (* flat-kernel evals that fell back *)
  jq_histogram : Prob.Histogram.t;   (* kernel eval ns, [0, 10 ms) buckets *)
  jq_ring : float array;             (* recent kernel eval times, ns *)
  mutable jq_ring_len : int;
  mutable jq_ring_next : int;
  mutable session_verbs : int;
  session_histogram : Prob.Histogram.t;  (* session verb eval ns *)
  session_ring : float array;            (* recent session verb times, ns *)
  mutable session_ring_len : int;
  mutable session_ring_next : int;
  mutable ingests : int;                 (* applied report/recal calls *)
  mutable votes_ingested : int;
  mutable recal_runs : int;              (* standing juries re-solved *)
  ingest_histogram : Prob.Histogram.t;   (* ingest (calibration) ns *)
  ingest_ring : float array;             (* recent ingest times, ns *)
  mutable ingest_ring_len : int;
  mutable ingest_ring_next : int;
  mutable fleet_assigns : int;           (* fleet submits assigned *)
  mutable fleet_releases : int;          (* fleet tasks released *)
  fleet_histogram : Prob.Histogram.t;    (* fleet assign ns *)
  fleet_ring : float array;              (* recent fleet assign times, ns *)
  mutable fleet_ring_len : int;
  mutable fleet_ring_next : int;
}

type t = {
  started_at : float;                (* monotonic; uptime is a difference *)
  shards : shard array;              (* executors 0 .. n-1, submitter at n *)
  sources_lock : Mutex.t;
  mutable session_sources : (unit -> Session.Store.stats) list;
  mutable gauge_sources : (unit -> (string * float) list) list;
}

let fresh_shard () =
  {
    lock = Mutex.create ();
    requests = 0;
    ok = 0;
    errors = 0;
    overloads = 0;
    deadlines = 0;
    batches = 0;
    batched_saved = 0;
    jq_memo_hits = 0;
    select_memo_hits = 0;
    steals = 0;
    solver_cache = Jsp.Objective_cache.empty_stats;
    per_verb = Hashtbl.create 8;
    histogram = Prob.Histogram.create ~lo:0. ~hi:1. ~buckets:100;
    ring = Array.make ring_size 0.;
    ring_len = 0;
    ring_next = 0;
    jq_evals = 0;
    jq_flat_fallbacks = 0;
    jq_histogram = Prob.Histogram.create ~lo:0. ~hi:1e7 ~buckets:100;
    jq_ring = Array.make ring_size 0.;
    jq_ring_len = 0;
    jq_ring_next = 0;
    session_verbs = 0;
    session_histogram = Prob.Histogram.create ~lo:0. ~hi:1e7 ~buckets:100;
    session_ring = Array.make ring_size 0.;
    session_ring_len = 0;
    session_ring_next = 0;
    ingests = 0;
    votes_ingested = 0;
    recal_runs = 0;
    ingest_histogram = Prob.Histogram.create ~lo:0. ~hi:1e8 ~buckets:100;
    ingest_ring = Array.make ring_size 0.;
    ingest_ring_len = 0;
    ingest_ring_next = 0;
    fleet_assigns = 0;
    fleet_releases = 0;
    fleet_histogram = Prob.Histogram.create ~lo:0. ~hi:1e8 ~buckets:100;
    fleet_ring = Array.make ring_size 0.;
    fleet_ring_len = 0;
    fleet_ring_next = 0;
  }

let create ?(shards = 1) () =
  if shards <= 0 then invalid_arg "Metrics.create: shards <= 0";
  {
    started_at = Clock.now ();
    shards = Array.init (shards + 1) (fun _ -> fresh_shard ());
    sources_lock = Mutex.create ();
    session_sources = [];
    gauge_sources = [];
  }

let shards t = Array.length t.shards
let submitter t = Array.length t.shards - 1

let with_shard t i f =
  let s = t.shards.(i) in
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) (fun () -> f s)

let record t ~shard ~verb ~latency ~ok =
  with_shard t shard (fun s ->
      s.requests <- s.requests + 1;
      if ok then s.ok <- s.ok + 1 else s.errors <- s.errors + 1;
      (match Hashtbl.find_opt s.per_verb verb with
      | Some r -> incr r
      | None -> Hashtbl.add s.per_verb verb (ref 1));
      Prob.Histogram.add s.histogram latency;
      s.ring.(s.ring_next) <- latency;
      s.ring_next <- (s.ring_next + 1) mod ring_size;
      if s.ring_len < ring_size then s.ring_len <- s.ring_len + 1)

let overload t =
  with_shard t (submitter t) (fun s ->
      s.overloads <- s.overloads + 1;
      s.requests <- s.requests + 1;
      s.errors <- s.errors + 1)

let deadline t ~shard =
  with_shard t shard (fun s -> s.deadlines <- s.deadlines + 1)

let batch t ~shard ~size =
  with_shard t shard (fun s ->
      s.batches <- s.batches + 1;
      s.batched_saved <- s.batched_saved + (size - 1))

let jq_memo_hit t ~shard =
  with_shard t shard (fun s -> s.jq_memo_hits <- s.jq_memo_hits + 1)

let select_memo_hit t ~shard =
  with_shard t shard (fun s -> s.select_memo_hits <- s.select_memo_hits + 1)

let solver_cache t ~shard stats =
  with_shard t shard (fun s ->
      s.solver_cache <- Jsp.Objective_cache.merge_stats s.solver_cache stats)

let steal t ~shard = with_shard t shard (fun s -> s.steals <- s.steals + 1)

let jq_eval t ~shard ~ns =
  with_shard t shard (fun s ->
      s.jq_evals <- s.jq_evals + 1;
      Prob.Histogram.add s.jq_histogram ns;
      s.jq_ring.(s.jq_ring_next) <- ns;
      s.jq_ring_next <- (s.jq_ring_next + 1) mod ring_size;
      if s.jq_ring_len < ring_size then s.jq_ring_len <- s.jq_ring_len + 1)

let jq_flat_fallback t ~shard ~count =
  if count > 0 then
    with_shard t shard (fun s ->
        s.jq_flat_fallbacks <- s.jq_flat_fallbacks + count)

let session_verb t ~shard ~ns =
  with_shard t shard (fun s ->
      s.session_verbs <- s.session_verbs + 1;
      Prob.Histogram.add s.session_histogram ns;
      s.session_ring.(s.session_ring_next) <- ns;
      s.session_ring_next <- (s.session_ring_next + 1) mod ring_size;
      if s.session_ring_len < ring_size then
        s.session_ring_len <- s.session_ring_len + 1)

let ingest t ~shard ~votes ~ns =
  with_shard t shard (fun s ->
      s.ingests <- s.ingests + 1;
      s.votes_ingested <- s.votes_ingested + votes;
      Prob.Histogram.add s.ingest_histogram ns;
      s.ingest_ring.(s.ingest_ring_next) <- ns;
      s.ingest_ring_next <- (s.ingest_ring_next + 1) mod ring_size;
      if s.ingest_ring_len < ring_size then
        s.ingest_ring_len <- s.ingest_ring_len + 1)

let recal_run t ~shard ~count =
  if count > 0 then
    with_shard t shard (fun s -> s.recal_runs <- s.recal_runs + count)

let fleet_assign t ~shard ~ns =
  with_shard t shard (fun s ->
      s.fleet_assigns <- s.fleet_assigns + 1;
      Prob.Histogram.add s.fleet_histogram ns;
      s.fleet_ring.(s.fleet_ring_next) <- ns;
      s.fleet_ring_next <- (s.fleet_ring_next + 1) mod ring_size;
      if s.fleet_ring_len < ring_size then
        s.fleet_ring_len <- s.fleet_ring_len + 1)

let fleet_release t ~shard =
  with_shard t shard (fun s -> s.fleet_releases <- s.fleet_releases + 1)

let add_sessions t ~stats =
  Mutex.lock t.sources_lock;
  t.session_sources <- stats :: t.session_sources;
  Mutex.unlock t.sources_lock

let add_gauges t ~gauges =
  Mutex.lock t.sources_lock;
  t.gauge_sources <- gauges :: t.gauge_sources;
  Mutex.unlock t.sources_lock

(* Merged view of every shard: counters and histogram buckets sum, the
   per-verb tables sum, and the rings concatenate.  Each shard is locked
   only for its own copy-out. *)
type merged = {
  m_requests : int;
  m_ok : int;
  m_errors : int;
  m_overloads : int;
  m_deadlines : int;
  m_batches : int;
  m_batched_saved : int;
  m_jq_memo_hits : int;
  m_select_memo_hits : int;
  m_steals : int;
  m_solver_cache : Jsp.Objective_cache.stats;
  m_per_verb : (string, int) Hashtbl.t;
  m_counts : int array;
  m_latencies : float array;
  m_jq_evals : int;
  m_jq_flat_fallbacks : int;
  m_jq_counts : int array;
  m_jq_ns : float array;
  m_session_verbs : int;
  m_session_ns : float array;
  m_ingests : int;
  m_votes_ingested : int;
  m_recal_runs : int;
  m_ingest_ns : float array;
  m_fleet_assigns : int;
  m_fleet_releases : int;
  m_fleet_ns : float array;
}

let merge t =
  let per_verb = Hashtbl.create 8 in
  let counts = ref [||] in
  let rings = ref [] in
  let requests = ref 0 and ok = ref 0 and errors = ref 0 in
  let overloads = ref 0 and deadlines = ref 0 in
  let batches = ref 0 and batched_saved = ref 0 in
  let jq_memo_hits = ref 0 and select_memo_hits = ref 0 and steals = ref 0 in
  let solver_cache = ref Jsp.Objective_cache.empty_stats in
  let jq_evals = ref 0 and jq_flat_fallbacks = ref 0 in
  let jq_counts = ref [||] in
  let jq_rings = ref [] in
  let session_verbs = ref 0 in
  let session_rings = ref [] in
  let ingests = ref 0 and votes_ingested = ref 0 and recal_runs = ref 0 in
  let ingest_rings = ref [] in
  let fleet_assigns = ref 0 and fleet_releases = ref 0 in
  let fleet_rings = ref [] in
  Array.iteri
    (fun i _ ->
      with_shard t i (fun s ->
          requests := !requests + s.requests;
          ok := !ok + s.ok;
          errors := !errors + s.errors;
          overloads := !overloads + s.overloads;
          deadlines := !deadlines + s.deadlines;
          batches := !batches + s.batches;
          batched_saved := !batched_saved + s.batched_saved;
          jq_memo_hits := !jq_memo_hits + s.jq_memo_hits;
          select_memo_hits := !select_memo_hits + s.select_memo_hits;
          steals := !steals + s.steals;
          solver_cache :=
            Jsp.Objective_cache.merge_stats !solver_cache s.solver_cache;
          Hashtbl.iter
            (fun verb r ->
              Hashtbl.replace per_verb verb
                (!r + Option.value ~default:0 (Hashtbl.find_opt per_verb verb)))
            s.per_verb;
          let c = Prob.Histogram.counts s.histogram in
          if Array.length !counts = 0 then counts := c
          else Array.iteri (fun k v -> !counts.(k) <- !counts.(k) + v) c;
          if s.ring_len > 0 then rings := Array.sub s.ring 0 s.ring_len :: !rings;
          jq_evals := !jq_evals + s.jq_evals;
          jq_flat_fallbacks := !jq_flat_fallbacks + s.jq_flat_fallbacks;
          let jc = Prob.Histogram.counts s.jq_histogram in
          if Array.length !jq_counts = 0 then jq_counts := jc
          else Array.iteri (fun k v -> !jq_counts.(k) <- !jq_counts.(k) + v) jc;
          if s.jq_ring_len > 0 then
            jq_rings := Array.sub s.jq_ring 0 s.jq_ring_len :: !jq_rings;
          session_verbs := !session_verbs + s.session_verbs;
          if s.session_ring_len > 0 then
            session_rings :=
              Array.sub s.session_ring 0 s.session_ring_len :: !session_rings;
          ingests := !ingests + s.ingests;
          votes_ingested := !votes_ingested + s.votes_ingested;
          recal_runs := !recal_runs + s.recal_runs;
          if s.ingest_ring_len > 0 then
            ingest_rings :=
              Array.sub s.ingest_ring 0 s.ingest_ring_len :: !ingest_rings;
          fleet_assigns := !fleet_assigns + s.fleet_assigns;
          fleet_releases := !fleet_releases + s.fleet_releases;
          if s.fleet_ring_len > 0 then
            fleet_rings :=
              Array.sub s.fleet_ring 0 s.fleet_ring_len :: !fleet_rings))
    t.shards;
  {
    m_requests = !requests;
    m_ok = !ok;
    m_errors = !errors;
    m_overloads = !overloads;
    m_deadlines = !deadlines;
    m_batches = !batches;
    m_batched_saved = !batched_saved;
    m_jq_memo_hits = !jq_memo_hits;
    m_select_memo_hits = !select_memo_hits;
    m_steals = !steals;
    m_solver_cache = !solver_cache;
    m_per_verb = per_verb;
    m_counts = !counts;
    m_latencies = Array.concat !rings;
    m_jq_evals = !jq_evals;
    m_jq_flat_fallbacks = !jq_flat_fallbacks;
    m_jq_counts = !jq_counts;
    m_jq_ns = Array.concat !jq_rings;
    m_session_verbs = !session_verbs;
    m_session_ns = Array.concat !session_rings;
    m_ingests = !ingests;
    m_votes_ingested = !votes_ingested;
    m_recal_runs = !recal_runs;
    m_ingest_ns = Array.concat !ingest_rings;
    m_fleet_assigns = !fleet_assigns;
    m_fleet_releases = !fleet_releases;
    m_fleet_ns = Array.concat !fleet_rings;
  }

let snapshot t =
  let m = merge t in
  let session_sources, gauge_sources =
    Mutex.lock t.sources_lock;
    let ss = t.session_sources and gs = t.gauge_sources in
    Mutex.unlock t.sources_lock;
    (ss, gs)
  in
  let f = float_of_int in
  let base =
    [
      ("uptime_s", Clock.now () -. t.started_at);
      ("requests", f m.m_requests);
      ("ok", f m.m_ok);
      ("errors", f m.m_errors);
      ("overloads", f m.m_overloads);
      ("deadlines", f m.m_deadlines);
      ("batches", f m.m_batches);
      ("batched_saved", f m.m_batched_saved);
      ("jq_memo_hits", f m.m_jq_memo_hits);
      ("select_memo_hits", f m.m_select_memo_hits);
      ("steals", f m.m_steals);
      ("jq_evals", f m.m_jq_evals);
      ("jq_flat_fallbacks", f m.m_jq_flat_fallbacks);
      ("session_verbs", f m.m_session_verbs);
      ("ingests", f m.m_ingests);
      ("votes_ingested", f m.m_votes_ingested);
      ("recal_runs", f m.m_recal_runs);
      ("fleet_assigns", f m.m_fleet_assigns);
      ("fleet_releases", f m.m_fleet_releases);
    ]
    @ Hashtbl.fold (fun verb n acc -> ("req_" ^ verb, f n) :: acc) m.m_per_verb []
  in
  (* Quantiles and pull sources run outside every shard lock: sorting the
     merged ring is O(n log n), and the sources take their own locks. *)
  let quantiles =
    if Array.length m.m_latencies = 0 then []
    else
      let q p = 1000. *. Prob.Stats.quantile m.m_latencies p in
      [ ("p50_ms", q 0.5); ("p95_ms", q 0.95); ("p99_ms", q 0.99) ]
  in
  let jq_quantiles =
    if Array.length m.m_jq_ns = 0 then []
    else
      let q p = Prob.Stats.quantile m.m_jq_ns p in
      [
        ("jq_eval_ns_p50", q 0.5);
        ("jq_eval_ns_p95", q 0.95);
        ("jq_eval_ns_p99", q 0.99);
      ]
  in
  let session_quantiles =
    if Array.length m.m_session_ns = 0 then []
    else
      let q p = Prob.Stats.quantile m.m_session_ns p in
      [
        ("session_verb_ns_p50", q 0.5);
        ("session_verb_ns_p95", q 0.95);
        ("session_verb_ns_p99", q 0.99);
      ]
  in
  let ingest_quantiles =
    if Array.length m.m_ingest_ns = 0 then []
    else
      let q p = Prob.Stats.quantile m.m_ingest_ns p in
      [
        ("ingest_ns_p50", q 0.5);
        ("ingest_ns_p95", q 0.95);
        ("ingest_ns_p99", q 0.99);
      ]
  in
  let fleet_quantiles =
    if Array.length m.m_fleet_ns = 0 then []
    else
      let q p = Prob.Stats.quantile m.m_fleet_ns p in
      [
        ("fleet_assign_ns_p50", q 0.5);
        ("fleet_assign_ns_p95", q 0.95);
        ("fleet_assign_ns_p99", q 0.99);
      ]
  in
  let sessions =
    List.fold_left
      (fun acc stats -> Session.Store.add_stats acc (stats ()))
      Session.Store.zero_stats session_sources
  in
  let session_rows =
    [
      ("sessions_open", f sessions.Session.Store.open_now);
      ("sessions_opened", f sessions.Session.Store.opened);
      ("sessions_decided", f sessions.Session.Store.decided);
      ("sessions_expired", f sessions.Session.Store.expired);
      ("sessions_invalidated", f sessions.Session.Store.invalidated);
      ("sessions_rejected", f sessions.Session.Store.rejected);
    ]
  in
  let cache_rows =
    let cache = m.m_solver_cache in
    let lookups = cache.Jsp.Objective_cache.hits + cache.misses in
    [
      ("cache_hits", f cache.Jsp.Objective_cache.hits);
      ("cache_misses", f cache.misses);
      ( "cache_hit_rate",
        if lookups = 0 then 0.
        else f cache.Jsp.Objective_cache.hits /. f lookups );
      ("cache_entries", f cache.entries);
      ("cache_evictions", f cache.evictions);
    ]
  in
  let gauge_rows = List.concat_map (fun gauges -> gauges ()) gauge_sources in
  List.sort compare
    (base @ quantiles @ jq_quantiles @ session_quantiles @ ingest_quantiles
   @ fleet_quantiles @ cache_rows @ session_rows @ gauge_rows)

let pp_line ppf t =
  let snap = snapshot t in
  let get key = List.assoc_opt key snap in
  let int_of key = match get key with Some v -> int_of_float v | None -> 0 in
  Format.fprintf ppf "serve: up %.0fs reqs %d ok %d err %d over %d"
    (Option.value ~default:0. (get "uptime_s"))
    (int_of "requests") (int_of "ok") (int_of "errors") (int_of "overloads");
  (match (get "p50_ms", get "p95_ms", get "p99_ms") with
  | Some p50, Some p95, Some p99 ->
      Format.fprintf ppf " lat_ms p50 %.2f p95 %.2f p99 %.2f" p50 p95 p99
  | _ -> ());
  (match get "cache_hit_rate" with
  | Some rate when int_of "cache_hits" + int_of "cache_misses" > 0 ->
      Format.fprintf ppf " cache %.0f%%" (100. *. rate)
  | _ -> ());
  let m = merge t in
  let bounds = t.shards.(0).histogram in
  let nonempty = ref [] in
  Array.iteri
    (fun i c ->
      if c > 0 then
        let lo, hi = Prob.Histogram.bucket_bounds bounds i in
        nonempty :=
          Printf.sprintf "[%.0f,%.0f)ms:%d" (1000. *. lo) (1000. *. hi) c
          :: !nonempty)
    m.m_counts;
  if !nonempty <> [] then
    Format.fprintf ppf " hist %s" (String.concat " " (List.rev !nonempty))
