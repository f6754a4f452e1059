(* The metric tables and their printing.  The names and units here are the
   ones BENCHMARK.json lists; a test keeps the two in step. *)

type spec = { name : string; unit : string }

let spec name unit = { name; unit }

(* Every verb some workload sends in its timed phase. *)
let verbs =
  [
    "jq"; "select"; "table"; "quality"; "fleet-status"; "fleet-submit";
    "fleet-release"; "open"; "advise"; "vote"; "decide"; "close"; "report";
  ]

let end_to_end =
  [
    spec "setup_s" "s";
    spec "throughput_rps" "req/s";
    spec "latency_p50_ms" "ms";
    spec "latency_p99_ms" "ms";
    spec "ok_share" "ratio";
    spec "rss_peak_mb" "MiB";
    spec "cpu_us_per_req" "us";
    spec "jury_jq_mean" "JQ";
    spec "jq_bound_mean" "JQ";
  ]

(* Quality figures that only some workloads produce.  They are printed
   with the end-to-end table where they exist, and carried in the traced
   run's per-layer output. *)
let workload_quality =
  [
    spec "session_votes_per_task" "votes";
    spec "session_accuracy" "ratio";
    spec "fleet_jq_mean" "JQ";
    spec "calib_error" "quality";
  ]

let per_verb prefix unit = List.map (fun v -> spec (prefix ^ "." ^ v) unit) verbs

let per_layer =
  List.concat
    [
      [ spec "server.residue_us_p50" "us"; spec "client.cpu_us_per_req" "us" ];
      [ spec "wire.decode_us" "us" ];
      per_verb "wire.encode_us" "us";
      [ spec "wire.reply_bytes_mean" "bytes" ];
      per_verb "service.submit_us_p50" "us";
      per_verb "service.submit_us_p99" "us";
      per_verb "service.self_us" "us";
      [
        spec "service.jq_memo_hit_share" "ratio";
        spec "service.jq_memo_hits" "count";
        spec "service.batched_share" "ratio";
        spec "service.batched_saved" "count";
        spec "service.batches" "count";
        spec "service.overloads" "count";
        spec "cache.hit_rate" "ratio";
        spec "cache.hits" "count";
        spec "cache.misses" "count";
        spec "jq.bucket_us" "us";
        spec "jq.multiclass_us" "us";
        spec "jq.evals" "count";
        spec "jq.flat_fallbacks" "count";
        spec "jsp.anneal_ms_p50" "ms";
        spec "jsp.replay_ms_p50" "ms";
        spec "jsp.score_misses_per_solve" "count";
        spec "session.verb_us_p50" "us";
        spec "session.verb_us_p99" "us";
        spec "session.invalidated" "count";
        spec "session.self_invalidated" "count";
        spec "calib.ingest_us_p99" "us";
        spec "calib.ingests" "count";
        spec "calib.drift_flags" "count";
        spec "calib.recal_runs" "count";
        spec "fleet.assign_us_p50" "us";
        spec "fleet.assign_us_p99" "us";
        spec "fleet.inner_solves" "count";
        spec "fleet.full_solves" "count";
        spec "fleet.delta_solves" "count";
        spec "fleet.resyncs" "count";
        spec "fleet.price_rounds" "count";
        spec "fleet.proposal_hits" "count";
        spec "fleet.reply_mismatches" "count";
        spec "metrics.record_ns" "ns";
        spec "host.steal_share" "ratio";
        spec "host.ref_loop_ms" "ms";
        spec "trace.overhead_us_p50" "us";
      ];
      workload_quality;
    ]

(* A measured value with its sample count and, for ratios, its base. *)
type value = { v : float; n : int; base : string }

type table = (string, value) Hashtbl.t

let create () : table = Hashtbl.create 128

let known = Hashtbl.create 256

let () =
  List.iter (fun s -> Hashtbl.replace known s.name ()) (end_to_end @ per_layer)

let put (t : table) ?(base = "") name v n =
  if not (Hashtbl.mem known name) then invalid_arg ("undeclared metric " ^ name);
  Hashtbl.replace t name { v; n; base }

(* A value that has no samples on this workload reads 0 in the JSON and
   "n/a" in the table. *)
let get (t : table) name =
  match Hashtbl.find_opt t name with
  | Some x when Float.is_finite x.v -> x
  | _ -> { v = 0.; n = 0; base = "" }

let print_table (t : table) specs =
  List.iter
    (fun s ->
      match Hashtbl.find_opt t s.name with
      | Some x when Float.is_finite x.v && x.n > 0 ->
          Printf.printf "  %-32s %14.6g %-7s n=%d%s\n" s.name x.v s.unit x.n
            (if x.base = "" then "" else "  " ^ x.base)
      | _ -> Printf.printf "  %-32s %14s %-7s n=0\n" s.name "n/a" s.unit)
    specs

let json_number v = Printf.sprintf "%.17g" v

let json ~correct ~attempted ~failed (t : table) specs =
  let metrics =
    List.map
      (fun s ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" s.name
          (json_number (get t s.name).v) s.unit)
      specs
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " metrics)
