(* Live worker-quality plane benchmark: what the streaming calibrator
   buys over a static registration, and what it costs to serve.

   Part 1 replays the synthetic AMT dataset (Crowd.Amt_dataset) through a
   Workers.Calib registered with an uninformed base (0.5 everywhere),
   stepping on the serve plane's mini-batch cadence, then forces a full
   recalibration and compares the streaming EM fit per worker against the
   offline Dawid-Skene run over the same votes.  It also scores the final
   blended estimates against the latent qualities, versus what serving the
   static registration would keep using.

   Part 2 drives an in-process Serve.Service through the wire verbs: a
   pool is put, a standing jury selected, then the jury's best worker
   turns into a coin flipper mid-stream.  Gold votes flow through
   [report]; the bench measures how many votes it takes the drift
   detector to flag the spammer, and then scores the re-selected jury
   against the original static one on post-drift simulated tasks.

   Part 3 measures [report] ingest latency through the service (batches
   sized to apply on every call, so each submit pays a calibration step).

   Flags:
     --fast    smaller replay and fewer latency rows (CI)
     --gate    exit 1 unless
               - streaming EM matches offline Dawid-Skene within 1e-6,
               - calibrated estimates beat the static base's error,
               - the spammer is flagged within one drift window of votes,
               - the re-selected jury scores at least the stale one, and
               - ingest p95 stays under the latency bound.

   Results are dumped as BENCH_quality.json, the committed record; a
   --fast run writes BENCH_quality.fast.json instead, so a smoke run
   leaves the record alone. *)

module Wire = Serve.Wire

let alpha = 0.5
let em_match_tolerance = 1e-6
let ingest_p95_gate_ns = 5e7

(* ---- part 1: AMT replay, streaming vs offline ----------------------- *)

type replay = {
  tasks : int;
  votes : int;
  steps : int;
  em_max_diff : float;     (* streaming vs offline EM, per worker *)
  calib_error : float;     (* mean |blend - latent| *)
  base_error : float;      (* mean |0.5 - latent| *)
  empirical_error : float; (* mean |paper's empirical estimate - latent| *)
}

let replay_amt ~n_tasks =
  let dataset = Crowd.Amt_dataset.generate (Prob.Rng.create 11) in
  let open Crowd.Amt_dataset in
  let n_tasks = min n_tasks (Array.length dataset.tasks) in
  let n_workers = dataset.params.n_workers in
  (* Keep every vote in the EM window and disable drift so the offline
     comparison is over the identical retained set — a reset mid-replay
     would legitimately drop votes the offline run still sees. *)
  let config =
    {
      Workers.Calib.default_config with
      Workers.Calib.task_window = max 1024 n_tasks;
      window = 2048;
      drift_z = 1e9;
      spammer_threshold = 1e-9;
    }
  in
  let calib =
    Workers.Calib.create ~config
      ~base:(Workers.Calib.Scalar (Array.make n_workers 0.5))
      ()
  in
  let triples = ref [] in
  let steps = ref 0 in
  let votes_total = ref 0 in
  for task = 0 to n_tasks - 1 do
    let votes =
      Array.to_list dataset.votes.(task)
      |> List.map (fun (worker, v) ->
             let label = Voting.Vote.to_int v in
             triples := (task, worker, label) :: !triples;
             { Workers.Calib.task; worker; label; truth = None })
    in
    votes_total := !votes_total + List.length votes;
    (match Workers.Calib.feed calib votes with
    | Ok _ -> ()
    | Error msg -> failwith ("replay feed: " ^ msg));
    if Workers.Calib.due calib then begin
      ignore (Workers.Calib.step calib);
      incr steps
    end
  done;
  ignore (Workers.Calib.recalibrate calib);
  incr steps;
  let streaming =
    match Workers.Calib.em_qualities calib with
    | Some q -> q
    | None -> failwith "replay: EM never ran"
  in
  (* Offline reference over the same votes in the calibrator's canonical
     ordering (task ids are already dense and ascending here). *)
  let ds_votes =
    List.sort compare !triples
    |> List.map (fun (task, worker, label) ->
           { Workers.Dawid_skene.task; worker; label })
  in
  let offline =
    Workers.Dawid_skene.run ~max_iterations:200 ~smoothing:0.01
      ~n_tasks ~n_workers ~n_labels:2 ds_votes
  in
  let offline_q = Workers.Dawid_skene.binary_qualities offline in
  let em_max_diff = ref 0. in
  Array.iteri
    (fun i q -> em_max_diff := Float.max !em_max_diff (Float.abs (q -. offline_q.(i))))
    streaming;
  let mean_err of_i =
    let acc = Prob.Kahan.create () in
    for i = 0 to n_workers - 1 do
      Prob.Kahan.add acc (Float.abs (of_i i -. dataset.true_qualities.(i)))
    done;
    Prob.Kahan.total acc /. float_of_int n_workers
  in
  {
    tasks = n_tasks;
    votes = !votes_total;
    steps = !steps;
    em_max_diff = !em_max_diff;
    calib_error = mean_err (Workers.Calib.quality calib);
    base_error = mean_err (fun _ -> 0.5);
    empirical_error = mean_err (fun i -> dataset.estimated_qualities.(i));
  }

(* ---- part 2: spammer onset and re-selection ------------------------- *)

type drift_run = {
  votes_to_flag : int;     (* gold votes fed before the flag *)
  window : int;            (* the drift window W the gate compares to *)
  recals : int;
  static_accuracy : float; (* original jury, stale belief weights *)
  live_accuracy : float;   (* re-selected jury, calibrated weights *)
  eval_tasks : int;
}

let latents =
  [| 0.92; 0.85; 0.84; 0.83; 0.7; 0.68; 0.66; 0.64; 0.62; 0.6; 0.58; 0.56 |]

let drift_and_reselect ~eval_tasks =
  let batch = 8 in
  let calib_config =
    { Workers.Calib.default_config with Workers.Calib.batch } in
  let service =
    Serve.Service.create ~calib_config ~domains:1 ~queue_capacity:64 ()
  in
  Fun.protect
    ~finally:(fun () -> Serve.Service.shutdown service)
    (fun () ->
      let submit r = Serve.Service.submit service r in
      let rows =
        Array.to_list (Array.map (fun q -> Wire.Scalar (q, 1.)) latents)
      in
      (match submit (Wire.Pool_put { name = "live"; workers = rows }) with
      | Wire.Pool_info _ -> ()
      | r -> failwith ("pool-put: " ^ Wire.encode_response r));
      let select () =
        match
          submit
            (Wire.Select
               { pool = "live"; budget = 5.; prior = Wire.default_prior; seed = 7 })
        with
        | Wire.Select_result { ids; _ } -> ids
        | r -> failwith ("select: " ^ Wire.encode_response r)
      in
      let static_jury = select () in
      (* Worker 0 goes spammer: gold votes at exactly chance agreement,
         one applied mini-batch at a time until the detector fires. *)
      let fed = ref 0 in
      let recals = ref 0 in
      let flagged = ref false in
      let window = Workers.Calib.default_config.Workers.Calib.drift_window in
      while (not !flagged) && !fed < 4 * window do
        let votes =
          List.init batch (fun i ->
              {
                Workers.Calib.task = 9000 + !fed + i;
                worker = 0;
                label = (!fed + i) mod 2;
                truth = Some 1;
              })
        in
        (match submit (Wire.Report { pool = "live"; votes }) with
        | Wire.Report_result { drifted; recals = r; _ } ->
            fed := !fed + batch;
            recals := !recals + r;
            if List.mem 0 drifted then flagged := true
        | r -> failwith ("report: " ^ Wire.encode_response r));
      done;
      let live_jury = select () in
      let live_belief =
        match submit (Wire.Quality { pool = "live" }) with
        | Wire.Quality_result { workers; _ } ->
            let a = Array.make (Array.length latents) 0.5 in
            List.iter (fun (i, q, _) -> a.(i) <- q) workers;
            a
        | r -> failwith ("quality: " ^ Wire.encode_response r)
      in
      (* Post-drift world: worker 0 now answers at chance.  Score both
         juries on fresh simulated tasks — the static arm still believes
         the registration, the live arm the calibrated readback. *)
      let truth_latents = Array.copy latents in
      truth_latents.(0) <- 0.5;
      let rng = Prob.Rng.create 23 in
      let accuracy jury belief =
        let qualities = Array.of_list (List.map (fun i -> belief.(i)) jury) in
        let correct = ref 0 in
        for _ = 1 to eval_tasks do
          let truth = Crowd.Simulate.sample_truth rng ~alpha in
          let voting =
            Array.of_list
              (List.map
                 (fun i ->
                   Crowd.Simulate.vote rng ~truth ~quality:truth_latents.(i))
                 jury)
          in
          if Voting.Vote.equal (Optjs.aggregate ~alpha ~qualities voting) truth
          then incr correct
        done;
        float_of_int !correct /. float_of_int eval_tasks
      in
      {
        votes_to_flag = !fed;
        window;
        recals = !recals;
        static_accuracy = accuracy static_jury latents;
        live_accuracy = accuracy live_jury live_belief;
        eval_tasks;
      })

(* ---- part 3: ingest latency ----------------------------------------- *)

type ingest_lat = { p50 : float; p95 : float; p99 : float; reports : int }

let ingest_latency ~reports =
  let service = Serve.Service.create ~domains:1 ~queue_capacity:64 () in
  Fun.protect
    ~finally:(fun () -> Serve.Service.shutdown service)
    (fun () ->
      let submit r = Serve.Service.submit service r in
      let n = 16 in
      let rows = List.init n (fun i -> Wire.Scalar (0.55 +. (0.02 *. float_of_int i), 1.)) in
      (match submit (Wire.Pool_put { name = "lat"; workers = rows }) with
      | Wire.Pool_info _ -> ()
      | r -> failwith ("pool-put: " ^ Wire.encode_response r));
      let batch = Workers.Calib.default_config.Workers.Calib.batch in
      let rng = Prob.Rng.create 31 in
      let lats = ref [] in
      for round = 0 to reports - 1 do
        (* Batch-sized reports: every submit applies a calibration step,
           so the timing covers the worst-case ingest path. *)
        let votes =
          List.init batch (fun i ->
              {
                Workers.Calib.task = (round * batch) + i;
                worker = Prob.Rng.int rng n;
                label = Prob.Rng.int rng 2;
                truth = (if Prob.Rng.int rng 4 = 0 then Some 1 else None);
              })
        in
        let t0 = Serve.Clock.now () in
        (match submit (Wire.Report { pool = "lat"; votes }) with
        | Wire.Report_result _ -> ()
        | r -> failwith ("report: " ^ Wire.encode_response r));
        lats := (1e9 *. (Serve.Clock.now () -. t0)) :: !lats
      done;
      let arr = Array.of_list !lats in
      let q p = if Array.length arr = 0 then 0. else Prob.Stats.quantile arr p in
      { p50 = q 0.5; p95 = q 0.95; p99 = q 0.99; reports })

(* ---- driver ---------------------------------------------------------- *)

let () =
  let n_tasks = ref 600 in
  let eval_tasks = ref 2000 in
  let reports = ref 40 in
  let out = ref "BENCH_quality.json" in
  let gate = ref false in
  let rec parse = function
    | [] -> ()
    | "--fast" :: rest ->
        out := "BENCH_quality.fast.json";
        n_tasks := 150;
        eval_tasks := 800;
        reports := 15;
        parse rest
    | "--tasks" :: n :: rest ->
        n_tasks := int_of_string n;
        parse rest
    | "--gate" :: rest ->
        gate := true;
        parse rest
    | arg :: _ -> failwith ("unknown argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let r = replay_amt ~n_tasks:!n_tasks in
  let d = drift_and_reselect ~eval_tasks:!eval_tasks in
  let l = ingest_latency ~reports:!reports in
  let json =
    Printf.sprintf
      "{\"replay_tasks\": %d, \"replay_votes\": %d, \"calib_steps\": %d,\n\
      \ \"em_max_diff\": %.2e, \"calib_error\": %.4f, \"base_error\": %.4f, \
       \"empirical_error\": %.4f,\n\
      \ \"votes_to_flag\": %d, \"drift_window\": %d, \"recals\": %d,\n\
      \ \"static_accuracy\": %.4f, \"live_accuracy\": %.4f, \"eval_tasks\": %d,\n\
      \ \"ingest_p50_ns\": %.0f, \"ingest_p95_ns\": %.0f, \"ingest_p99_ns\": \
       %.0f, \"reports\": %d}"
      r.tasks r.votes r.steps r.em_max_diff r.calib_error r.base_error
      r.empirical_error d.votes_to_flag d.window d.recals d.static_accuracy
      d.live_accuracy d.eval_tasks l.p50 l.p95 l.p99 l.reports
  in
  let oc = open_out !out in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  print_endline json;
  if !gate then begin
    let fail = ref [] in
    if r.em_max_diff > em_match_tolerance then
      fail :=
        Printf.sprintf "em_max_diff %.2e > %.0e" r.em_max_diff em_match_tolerance
        :: !fail;
    if r.calib_error >= r.base_error then
      fail :=
        Printf.sprintf "calib_error %.4f did not beat base %.4f" r.calib_error
          r.base_error
        :: !fail;
    if d.votes_to_flag > d.window then
      fail :=
        Printf.sprintf "spammer flagged after %d votes > window %d"
          d.votes_to_flag d.window
        :: !fail;
    if d.recals < 1 then fail := "no standing jury re-selected" :: !fail;
    if d.live_accuracy < d.static_accuracy then
      fail :=
        Printf.sprintf "live accuracy %.4f below static %.4f" d.live_accuracy
          d.static_accuracy
        :: !fail;
    if l.p95 > ingest_p95_gate_ns then
      fail :=
        Printf.sprintf "ingest p95 %.0f ns > %.0f" l.p95 ingest_p95_gate_ns
        :: !fail;
    match !fail with
    | [] -> print_endline "gate: ok"
    | fs ->
        List.iter (fun f -> Printf.eprintf "gate: %s\n" f) fs;
        exit 1
  end
