let ring_size = 2048  (* per shard; quantiles merge the shards' rings *)

type counter =
  | Requests
  | Ok_replies
  | Errors
  | Overloads
  | Deadlines
  | Jq_memo_hits
  | Select_memo_hits
  | Steals
  | Jq_flat_fallbacks
  | Votes_ingested
  | Recal_runs
  | Fleet_releases
  | Cache_hits
  | Cache_misses
  | Cache_entries
  | Cache_evictions
  | Solves

(* The slot functions, [bump] and [push] are inlined: [record] runs them on
   every request, and as calls they cost it a tenth of its time. *)
let[@inline] counter_slot = function
  | Requests -> 0
  | Ok_replies -> 1
  | Errors -> 2
  | Overloads -> 3
  | Deadlines -> 4
  | Jq_memo_hits -> 5
  | Select_memo_hits -> 6
  | Steals -> 7
  | Jq_flat_fallbacks -> 8
  | Votes_ingested -> 9
  | Recal_runs -> 10
  | Fleet_releases -> 11
  | Cache_hits -> 12
  | Cache_misses -> 13
  | Cache_entries -> 14
  | Cache_evictions -> 15
  | Solves -> 16

(* The stats key of each counter, by slot. *)
let counter_keys =
  [|
    "requests"; "ok"; "errors"; "overloads"; "deadlines"; "jq_memo_hits";
    "select_memo_hits"; "steals"; "jq_flat_fallbacks"; "votes_ingested";
    "recal_runs"; "fleet_releases"; "cache_hits"; "cache_misses";
    "cache_entries"; "cache_evictions"; "solves";
  |]

type timer = Latency | Jq_eval | Session_verb | Ingest | Fleet_assign

let[@inline] timer_slot = function
  | Latency -> 0
  | Jq_eval -> 1
  | Session_verb -> 2
  | Ingest -> 3
  | Fleet_assign -> 4

(* By slot: the key counting a timer's samples, the key of each of its
   quantiles, and the factor from the sampled unit to the reported one.
   Request latencies are sampled in seconds and reported in ms; their
   count is [requests], which overloads also move. *)
let timer_keys =
  let ns stem p = stem ^ "_ns_" ^ p in
  [|
    (None, (fun p -> p ^ "_ms"), 1000.);
    (Some "jq_evals", ns "jq_eval", 1.);
    (Some "session_verbs", ns "session_verb", 1.);
    (Some "ingests", ns "ingest", 1.);
    (Some "fleet_assigns", ns "fleet_assign", 1.);
  |]

(* The [ring_size] most recent samples, overwritten oldest first. *)
type ring = { samples : float array; mutable taken : int }

let[@inline] push r x =
  r.samples.(r.taken mod ring_size) <- x;
  r.taken <- r.taken + 1

let recent r = Array.sub r.samples 0 (min r.taken ring_size)

type shard = {
  lock : Mutex.t;  (* one writer domain + the snapshot thread: uncontended *)
  counts : int array;                (* by counter slot *)
  rings : ring array;                (* by timer slot *)
  per_verb : (string, int ref) Hashtbl.t;
  histogram : Prob.Histogram.t;      (* latency s, [0, 1] in 10 ms buckets *)
}

type t = {
  started_at : float;                (* monotonic; uptime is a difference *)
  shards : shard array;              (* executors 0 .. n-1, submitter at n *)
  sources_lock : Mutex.t;
  mutable gauge_sources : (unit -> (string * float) list) list;
}

let fresh_shard () =
  {
    lock = Mutex.create ();
    counts = Array.make (Array.length counter_keys) 0;
    rings =
      Array.init (Array.length timer_keys) (fun _ ->
          { samples = Array.make ring_size 0.; taken = 0 });
    per_verb = Hashtbl.create 8;
    histogram = Prob.Histogram.create ~lo:0. ~hi:1. ~buckets:100;
  }

let create ?(shards = 1) () =
  if shards <= 0 then invalid_arg "Metrics.create: shards <= 0";
  {
    started_at = Clock.now ();
    shards = Array.init (shards + 1) (fun _ -> fresh_shard ());
    sources_lock = Mutex.create ();
    gauge_sources = [];
  }

let submitter t = Array.length t.shards - 1

let with_shard t i f =
  let s = t.shards.(i) in
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) (fun () -> f s)

let[@inline] bump s counter n =
  let i = counter_slot counter in
  s.counts.(i) <- s.counts.(i) + n

let add t ~shard counter n =
  if n > 0 then with_shard t shard (fun s -> bump s counter n)

let sample t ~shard timer x =
  with_shard t shard (fun s -> push s.rings.(timer_slot timer) x)

let record t ~shard ~verb ~latency ~ok =
  with_shard t shard (fun s ->
      bump s Requests 1;
      bump s (if ok then Ok_replies else Errors) 1;
      (match Hashtbl.find_opt s.per_verb verb with
      | Some r -> incr r
      | None -> Hashtbl.add s.per_verb verb (ref 1));
      Prob.Histogram.add s.histogram latency;
      push s.rings.(timer_slot Latency) latency)

let overload t =
  with_shard t (submitter t) (fun s ->
      bump s Overloads 1;
      bump s Requests 1;
      bump s Errors 1)

let add_gauges t ~gauges =
  Mutex.lock t.sources_lock;
  t.gauge_sources <- gauges :: t.gauge_sources;
  Mutex.unlock t.sources_lock

(* Merged view of every shard: counters, per-verb tables and latency
   histogram buckets sum, sample counts sum and the rings concatenate.
   Each shard is locked only for its own copy-out. *)
type merged = {
  totals : int array;                (* by counter slot *)
  verbs : (string, int) Hashtbl.t;
  buckets : int array;
  sampled : int array;               (* by timer slot *)
  recents : float array array;       (* by timer slot *)
}

let merge t =
  let totals = Array.make (Array.length counter_keys) 0 in
  let verbs = Hashtbl.create 8 in
  let buckets = ref [||] in
  let sampled = Array.make (Array.length timer_keys) 0 in
  let recents = Array.make (Array.length timer_keys) [] in
  Array.iteri
    (fun i _ ->
      with_shard t i (fun s ->
          Array.iteri (fun k v -> totals.(k) <- totals.(k) + v) s.counts;
          Hashtbl.iter
            (fun verb r ->
              Hashtbl.replace verbs verb
                (!r + Option.value ~default:0 (Hashtbl.find_opt verbs verb)))
            s.per_verb;
          let c = Prob.Histogram.counts s.histogram in
          if Array.length !buckets = 0 then buckets := c
          else Array.iteri (fun k v -> !buckets.(k) <- !buckets.(k) + v) c;
          Array.iteri
            (fun k r ->
              sampled.(k) <- sampled.(k) + r.taken;
              recents.(k) <- recent r :: recents.(k))
            s.rings))
    t.shards;
  {
    totals;
    verbs;
    buckets = !buckets;
    sampled;
    recents = Array.map Array.concat recents;
  }

(* A timer's rows: its sample count, and its quantiles once it has a
   sample. *)
let timer_rows m k (count_key, quantile_key, scale) =
  let counted =
    match count_key with
    | Some key -> [ (key, float_of_int m.sampled.(k)) ]
    | None -> []
  in
  let samples = m.recents.(k) in
  if Array.length samples = 0 then counted
  else
    List.map
      (fun (p, name) ->
        (quantile_key name, scale *. Prob.Stats.quantile samples p))
      [ (0.5, "p50"); (0.95, "p95"); (0.99, "p99") ]
    @ counted

let snapshot t =
  let m = merge t in
  let gauge_sources =
    Mutex.lock t.sources_lock;
    let gs = t.gauge_sources in
    Mutex.unlock t.sources_lock;
    gs
  in
  let f = float_of_int in
  let hits = m.totals.(counter_slot Cache_hits)
  and misses = m.totals.(counter_slot Cache_misses) in
  let counter_rows =
    ("uptime_s", Clock.now () -. t.started_at)
    :: ( "cache_hit_rate",
         if hits + misses = 0 then 0. else f hits /. f (hits + misses) )
    :: List.mapi
         (fun k key -> (key, f m.totals.(k)))
         (Array.to_list counter_keys)
    @ Hashtbl.fold (fun verb n acc -> ("req_" ^ verb, f n) :: acc) m.verbs []
  in
  (* Quantiles and pull sources run outside every shard lock: sorting a
     merged ring is O(n log n), and the sources take their own locks. *)
  let timer_rows =
    List.concat (List.mapi (timer_rows m) (Array.to_list timer_keys))
  in
  let gauge_rows = List.concat_map (fun gauges -> gauges ()) gauge_sources in
  List.sort compare (counter_rows @ timer_rows @ gauge_rows)

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
    m.buckets;
  if !nonempty <> [] then
    Format.fprintf ppf " hist %s" (String.concat " " (List.rev !nonempty))
