(* optjs — command-line front end.

   Subcommands:
     jq       estimate/exactly compute JQ for a quality vector
     select   solve JSP for a synthetic pool or an inline worker list
     table    budget-quality table for an inline worker list
     expt     regenerate one paper experiment (or all) as ASCII tables
     amt      generate the synthetic AMT dataset and print its statistics
     serve    run the jury-selection TCP daemon
     loadgen  closed-loop load generator for the daemon
     session  drive sequential-jury sessions against the daemon
     fleet    drive the shared-pool fleet allocator over the wire *)

open Cmdliner

let parse_floats s =
  List.map
    (fun tok ->
      match float_of_string_opt (String.trim tok) with
      | Some f -> f
      | None -> failwith (Printf.sprintf "not a number: %S" tok))
    (String.split_on_char ',' s)

let alpha_arg =
  let doc = "Prior alpha = Pr(t = 0)." in
  Arg.(value & opt float 0.5 & info [ "a"; "alpha" ] ~doc)

let prior_arg =
  let doc =
    "Comma-separated prior vector p0,p1,... over the task's labels \
     (overrides --alpha; entries in [0,1] summing to 1)."
  in
  Arg.(value & opt (some string) None & info [ "prior" ] ~doc)

let task_of ~alpha ~prior =
  match prior with
  | Some s -> Engine.Task.make ~prior:(Array.of_list (parse_floats s))
  | None -> Engine.Task.binary ~alpha

let binary_alpha task =
  if Engine.Task.labels task <> 2 then
    failwith "inline qualities are binary: the prior must have 2 labels";
  Engine.Task.alpha task

let epool_of_doc = function
  | Workers.Pool_io.Scalar_rows pool -> Engine.Pool.of_workers pool
  | Workers.Pool_io.Matrix_rows confusions ->
      Engine.Pool.of_confusions confusions

let check_labels task epool =
  if
    (not (Engine.Pool.is_empty epool))
    && Engine.Task.labels task <> Engine.Pool.labels epool
  then
    failwith
      (Printf.sprintf "prior has %d labels but the pool has %d"
         (Engine.Task.labels task) (Engine.Pool.labels epool))

let buckets_arg =
  let doc = "numBuckets for the approximation (Algorithm 1)." in
  Arg.(value & opt int Jq.Bucket.default_num_buckets & info [ "buckets" ] ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

(* ---- jq ----------------------------------------------------------- *)

(* The multiclass flat kernel falls back to the hashtable oracle when the
   pruned frontier would still exceed its cell cap — correct but an order
   of magnitude slower.  Surface that silent cliff once per process:
   snapshot the process-wide counter before the work, warn on a delta. *)
let warn_flat_fallback_once =
  let printed = ref false in
  fun before ->
    if (not !printed) && Jq.Multiclass_jq.flat_fallbacks () > before then begin
      printed := true;
      Printf.eprintf
        "optjs: note: the flat multiclass JQ kernel overflowed its frontier \
         cap and fell back to the slower hashtable kernel (results are \
         unaffected); fewer buckets or labels restore the fast path\n"
    end

let file_arg =
  let doc =
    "Load the worker pool from a CSV file (scalar rows name,quality,cost \
     or confusion-matrix rows name,cost,m00,m01,...)."
  in
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~doc)

(* Past the enumeration cap the estimator's certified error bound is the
   honest answer: print the interval [ĴQ, ĴQ + bound] the one-sided
   underestimation guarantee implies instead of silently skipping. *)
let print_certified_interval ~value ~bound =
  Printf.printf
    "exact JQ (BV):     in [%.6f, %.6f] (certified bound; enumeration \
     exceeds --exact-cap)\n"
    value
    (Float.min 1. (value +. bound))

let jq_inline ~qualities ~alpha ~buckets ~exact ~exact_cap =
  let qs = Array.of_list (parse_floats qualities) in
  let stats = Jq.Bucket.estimate_stats ~num_buckets:buckets ~alpha qs in
  Printf.printf "estimated JQ (BV): %.6f  (error bound %.4f%%)\n" stats.value
    (100. *. stats.error_bound);
  if exact then begin
    if Jq.Exact.feasible ?cap:exact_cap (Array.length qs) then begin
      let qualities = Jq.Prior.fold ~alpha qs in
      let exact_jq =
        match exact_cap with
        | None -> Jq.Exact.jq_optimal ~alpha ~qualities
        | Some cap -> Jq.Exact.jq_optimal_capped ~cap ~alpha ~qualities
      in
      Printf.printf "exact JQ (BV):     %.6f\n" exact_jq
    end
    else
      print_certified_interval ~value:stats.value
        ~bound:(stats.value *. stats.error_bound)
  end;
  Printf.printf "JQ under MV:       %.6f\n" (Jq.Mv_closed.jq ~alpha ~qualities:qs)

let jq_pool ~path ~task ~buckets ~exact ~exact_cap =
  let epool = epool_of_doc (Workers.Pool_io.load_doc path) in
  check_labels task epool;
  let before = Jq.Multiclass_jq.flat_fallbacks () in
  let scored =
    Engine.Objective.bv_bucket_scored ~num_buckets:buckets () ~task epool
  in
  warn_flat_fallback_once before;
  Printf.printf "estimated JQ (BV): %.6f  (error bound %.4f%%)\n"
    scored.Engine.Objective.score
    (100. *. scored.Engine.Objective.bound);
  if exact then begin
    let n = Engine.Pool.size epool in
    let feasible =
      match Engine.Pool.repr epool with
      | Engine.Pool.Binary _ -> Jq.Exact.feasible ?cap:exact_cap n
      | Engine.Pool.Matrix _ ->
          Voting.Multiclass.enumeration_fits ?cap:exact_cap
            ~labels:(Engine.Pool.labels epool) ~n ()
    in
    if feasible then
      Printf.printf "exact JQ (BV):     %.6f\n"
        (Engine.Objective.score
           (Engine.Objective.bv_exact_capped ?cap:exact_cap ())
           ~task epool)
    else
      print_certified_interval ~value:scored.Engine.Objective.score
        ~bound:scored.Engine.Objective.bound
  end;
  match Engine.Pool.to_workers epool with
  | Some pool when Engine.Task.is_binary task ->
      Printf.printf "JQ under MV:       %.6f\n"
        (Jq.Mv_closed.jq ~alpha:(Engine.Task.alpha task)
           ~qualities:(Workers.Pool.qualities pool))
  | _ -> ()

let jq_cmd =
  let run file qualities alpha prior buckets exact exact_cap =
    let task = task_of ~alpha ~prior in
    match (file, qualities) with
    | Some path, _ -> jq_pool ~path ~task ~buckets ~exact ~exact_cap
    | None, Some qualities ->
        jq_inline ~qualities ~alpha:(binary_alpha task) ~buckets ~exact
          ~exact_cap
    | None, None -> failwith "provide --qualities or --file"
  in
  let qualities_opt =
    let doc = "Comma-separated worker qualities, e.g. 0.9,0.6,0.6." in
    Arg.(value & opt (some string) None & info [ "q"; "qualities" ] ~doc)
  in
  let exact =
    Arg.(
      value & flag
      & info [ "exact" ]
          ~doc:
            "Also compute the exact JQ by enumeration (binary: n <= 20; \
             multi-class: l^n within the enumeration cap).")
  in
  let exact_cap =
    Arg.(
      value
      & opt (some int) None
      & info [ "exact-cap" ]
          ~doc:
            "Cap on enumerated votings for --exact (default: 2^20 binary, \
             2^22 multi-class; binary juries top out at 25 workers \
             regardless).  Past the cap the certified interval from the \
             bucket estimator's error bound is printed instead.")
  in
  Cmd.v
    (Cmd.info "jq" ~doc:"Compute the Jury Quality of a pool or quality vector.")
    Term.(
      const run $ file_arg $ qualities_opt $ alpha_arg $ prior_arg $ buckets_arg
      $ exact $ exact_cap)

(* ---- select ------------------------------------------------------- *)

let budget_arg =
  let doc = "Budget B." in
  Arg.(required & opt (some float) None & info [ "b"; "budget" ] ~doc)

let pool_of qualities costs =
  let qs = parse_floats qualities and cs = parse_floats costs in
  if List.length qs <> List.length cs then
    failwith "qualities and costs must have the same length";
  Workers.Pool.of_list
    (List.mapi
       (fun id (q, c) -> Workers.Worker.make ~id ~quality:q ~cost:c ())
       (List.combine qs cs))

let select_cmd =
  let qualities_opt =
    Arg.(value & opt (some string) None & info [ "q"; "qualities" ] ~doc:"Worker qualities.")
  in
  let costs_opt =
    Arg.(value & opt (some string) None & info [ "c"; "costs" ] ~doc:"Worker costs.")
  in
  let run file qualities costs alpha prior budget seed =
    let epool =
      match (file, qualities, costs) with
      | Some path, _, _ -> epool_of_doc (Workers.Pool_io.load_doc path)
      | None, Some q, Some c -> Engine.Pool.of_workers (pool_of q c)
      | None, _, _ -> failwith "provide --file or both --qualities and --costs"
    in
    let task = task_of ~alpha ~prior in
    check_labels task epool;
    let rng = Prob.Rng.create seed in
    let result =
      match Engine.Pool.repr epool with
      | Engine.Pool.Binary pool ->
          (* The binary stack's full portfolio: special cases, annealing
             and greedy sweeps — exactly what `select` always ran. *)
          Jsp.Solver.map_jury Engine.Pool.of_workers
            (Optjs.select_jury ~rng ~alpha:(Engine.Task.alpha task) ~budget
               pool)
      | Engine.Pool.Matrix _ ->
          Jsp.Annealing.solve_engine ~rng ~task ~budget epool
    in
    Format.printf "jury: %a@." Engine.Pool.pp result.Jsp.Solver.jury;
    Printf.printf "estimated JQ: %.6f\ncost: %g (budget %g)\n"
      result.Jsp.Solver.score
      (Engine.Pool.total_cost result.Jsp.Solver.jury)
      budget
  in
  Cmd.v
    (Cmd.info "select" ~doc:"Solve JSP for an inline or CSV-loaded worker list.")
    Term.(
      const run $ file_arg $ qualities_opt $ costs_opt $ alpha_arg $ prior_arg
      $ budget_arg $ seed_arg)

(* ---- table -------------------------------------------------------- *)

let table_cmd =
  let budgets_arg =
    let doc = "Comma-separated budgets for the table rows." in
    Arg.(value & opt string "5,10,15,20" & info [ "budgets" ] ~doc)
  in
  let figure1 =
    Arg.(value & flag & info [ "figure1" ] ~doc:"Use the paper's Figure-1 workers A-G.")
  in
  let qualities_opt =
    Arg.(value & opt (some string) None & info [ "q"; "qualities" ] ~doc:"Worker qualities.")
  in
  let costs_opt =
    Arg.(value & opt (some string) None & info [ "c"; "costs" ] ~doc:"Worker costs.")
  in
  let run figure1 file qualities costs alpha prior budgets seed =
    let epool =
      if figure1 then Engine.Pool.of_workers (Workers.Generator.figure1_pool ())
      else
        match (file, qualities, costs) with
        | Some path, _, _ -> epool_of_doc (Workers.Pool_io.load_doc path)
        | None, Some q, Some c -> Engine.Pool.of_workers (pool_of q c)
        | None, _, _ ->
            failwith "provide --figure1, --file, or both --qualities and --costs"
    in
    let task = task_of ~alpha ~prior in
    check_labels task epool;
    let budgets = parse_floats budgets in
    match Engine.Pool.repr epool with
    | Engine.Pool.Binary pool ->
        let alpha = Engine.Task.alpha task in
        let table =
          if Workers.Pool.size pool <= Jsp.Enumerate.max_pool then
            (* Exact rows are independent pure solves, so they fan out
               across domains (each with its own kernel workspace); the
               order-preserving map keeps the table byte-identical to a
               sequential build. *)
            Array.to_list
              (Expt.Parallel.map_array
                 ~domains:
                   (min (List.length budgets)
                      (Expt.Parallel.recommended_domains ()))
                 (fun budget ->
                   let result =
                     Jsp.Enumerate.solve Engine.Objective.bv_exact ~alpha ~budget
                       pool
                   in
                   {
                     Jsp.Table.budget;
                     jury = result.Jsp.Solver.jury;
                     quality = result.Jsp.Solver.score;
                     required = Jsp.Budget.jury_cost result.Jsp.Solver.jury;
                   })
                 (Array.of_list budgets))
          else
            let rng = Prob.Rng.create seed in
            Optjs.budget_quality_table ~rng ~alpha ~budgets pool
        in
        Format.printf "%a" Jsp.Table.pp table
    | Engine.Pool.Matrix _ ->
        (* A matrix pool is scored from scratch, so its rows share one
           score table: a row reads the exact scores earlier rows
           computed. *)
        let memo = Jsp.Objective_cache.create ~n:(Engine.Pool.size epool) () in
        List.iter
          (fun budget ->
            let before = Jq.Multiclass_jq.flat_fallbacks () in
            let result =
              Jsp.Annealing.solve_engine ~memo
                ~rng:(Prob.Rng.create seed) ~task ~budget epool
            in
            warn_flat_fallback_once before;
            let jury = result.Jsp.Solver.jury in
            Printf.printf "%g | {%s} | %.1f%% | %g\n" budget
              (String.concat ", "
                 (List.map string_of_int (Engine.Pool.ids jury)))
              (100. *. result.Jsp.Solver.score)
              (Engine.Pool.total_cost jury))
          budgets
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Print a budget-quality table (Figure 1).")
    Term.(
      const run $ figure1 $ file_arg $ qualities_opt $ costs_opt $ alpha_arg
      $ prior_arg $ budgets_arg $ seed_arg)

(* ---- expt --------------------------------------------------------- *)

let expt_cmd =
  let id_arg =
    let doc = "Experiment id (fig1, fig2, fig6a..fig10d, tab3) or 'all'." in
    Arg.(value & pos 0 string "all" & info [] ~docv:"ID" ~doc)
  in
  let reps_arg =
    Arg.(value & opt (some int) None & info [ "reps" ] ~doc:"Replications per point.")
  in
  let questions_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "questions" ] ~doc:"Synthetic-AMT questions for fig10 sweeps.")
  in
  let fast_arg =
    Arg.(value & flag & info [ "fast" ] ~doc:"Smoke-test configuration (tiny reps).")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv-dir" ] ~doc:"Also write each table as CSV into this directory.")
  in
  let run id reps questions fast seed csv_dir =
    let config = if fast then Expt.Config.fast else Expt.Config.default in
    let config = Expt.Config.with_seed seed config in
    let config =
      match reps with Some r -> Expt.Config.with_reps r config | None -> config
    in
    let config =
      match questions with
      | Some q -> Expt.Config.with_questions q config
      | None -> config
    in
    let emit table =
      Expt.Report.print table;
      match csv_dir with
      | Some dir -> ignore (Expt.Report.save_csv ~dir table)
      | None -> ()
    in
    match String.lowercase_ascii id with
    | "all" -> List.iter emit (Expt.Experiments.all ~config ())
    | "ablations" -> List.iter emit (Expt.Ablations.all ~config ())
    | name -> (
        let driver =
          match Expt.Experiments.by_id name with
          | Some _ as d -> d
          | None -> Expt.Ablations.by_id name
        in
        match driver with
        | Some driver -> emit (driver ~config ())
        | None ->
            failwith
              (Printf.sprintf "unknown experiment %S; known: %s" name
                 (String.concat ", "
                    (Expt.Experiments.ids @ Expt.Ablations.ids))))
  in
  Cmd.v
    (Cmd.info "expt" ~doc:"Regenerate paper experiments.")
    Term.(
      const run $ id_arg $ reps_arg $ questions_arg $ fast_arg $ seed_arg $ csv_arg)

(* ---- frontier ------------------------------------------------------ *)

let frontier_cmd =
  let figure1 =
    Arg.(value & flag & info [ "figure1" ] ~doc:"Use the paper's Figure-1 workers A-G.")
  in
  let run figure1 file alpha =
    let pool =
      if figure1 then Workers.Generator.figure1_pool ()
      else
        match file with
        | Some path -> Workers.Pool_io.load path
        | None -> failwith "provide --figure1 or --file"
    in
    if Workers.Pool.size pool > Jsp.Enumerate.max_pool then
      failwith "exact frontier needs a pool of at most 20 workers";
    let points = Jsp.Frontier.exact Engine.Objective.bv_exact ~alpha pool in
    Format.printf "%a" Jsp.Frontier.pp points
  in
  Cmd.v
    (Cmd.info "frontier" ~doc:"Print the exact budget-quality Pareto frontier.")
    Term.(const run $ figure1 $ file_arg $ alpha_arg)

(* ---- online --------------------------------------------------------- *)

let online_cmd =
  let policy_arg =
    let policies =
      [
        ("quality", Crowd.Online.By_quality);
        ("cost", Crowd.Online.By_cost);
        ("random", Crowd.Online.Random_order);
        ("gain", Crowd.Online.By_information_gain);
      ]
    in
    let doc = "Ask policy: quality, cost, random, or gain." in
    Arg.(value & opt (enum policies) Crowd.Online.By_information_gain & info [ "policy" ] ~doc)
  in
  let confidence_arg =
    Arg.(value & opt float 0.95 & info [ "confidence" ] ~doc:"Posterior stopping threshold.")
  in
  let tasks_arg =
    Arg.(value & opt int 1000 & info [ "tasks" ] ~doc:"Simulated tasks.")
  in
  let n_arg =
    Arg.(value & opt int 25 & info [ "n" ] ~doc:"Pool size (synthetic Gaussian pool).")
  in
  let run policy confidence budget alpha tasks n seed =
    let rng = Prob.Rng.create seed in
    let pool = Workers.Generator.gaussian_pool rng Workers.Generator.default n in
    let s =
      Crowd.Online.simulate_many rng ~policy ~confidence ~budget ~alpha ~tasks pool
    in
    Printf.printf "tasks: %d\naccuracy: %.4f\nmean cost/task: %.4f\nmean votes/task: %.2f\n"
      s.Crowd.Online.tasks s.Crowd.Online.accuracy s.Crowd.Online.mean_cost
      s.Crowd.Online.mean_votes
  in
  Cmd.v
    (Cmd.info "online" ~doc:"Simulate adaptive (online) vote collection.")
    Term.(
      const run $ policy_arg $ confidence_arg $ budget_arg $ alpha_arg $ tasks_arg
      $ n_arg $ seed_arg)

(* ---- estimate ------------------------------------------------------- *)

let estimate_cmd =
  let votes_arg =
    let doc = "Votes CSV (task,worker,vote[,truth])." in
    Arg.(required & opt (some string) None & info [ "votes" ] ~doc)
  in
  let method_arg =
    let doc = "Estimator: 'gold' (needs truth column) or 'em' (Dawid-Skene)." in
    Arg.(value & opt (enum [ ("gold", `Gold); ("em", `Em) ]) `Em & info [ "method" ] ~doc)
  in
  let run votes_path method_ =
    let records = Crowd.Votes_io.load votes_path in
    let n_tasks, n_workers, n_labels = Crowd.Votes_io.dimensions records in
    if n_workers = 0 then failwith "no votes in file";
    Printf.printf "# %d votes, %d tasks, %d workers, %d labels\n"
      (List.length records) n_tasks n_workers n_labels;
    (match method_ with
    | `Gold ->
        let histories = Crowd.Votes_io.histories records in
        Printf.printf "worker,quality,answers\n";
        Array.iter
          (fun h ->
            match Workers.History.empirical_quality h with
            | Some q ->
                Printf.printf "%d,%.4f,%d\n" (Workers.History.worker_id h) q
                  (Workers.History.graded_count h)
            | None ->
                Printf.printf "%d,,%d\n" (Workers.History.worker_id h)
                  (Workers.History.length h))
          histories
    | `Em ->
        let result =
          Workers.Dawid_skene.run ~n_tasks ~n_workers
            ~n_labels:(max 2 n_labels)
            (Crowd.Votes_io.to_dawid_skene records)
        in
        Printf.printf "# EM converged in %d iterations (log-likelihood %.2f)\n"
          result.Workers.Dawid_skene.iterations
          result.Workers.Dawid_skene.log_likelihood;
        if n_labels <= 2 then begin
          Printf.printf "worker,quality\n";
          Array.iteri
            (fun w q -> Printf.printf "%d,%.4f\n" w q)
            (Workers.Dawid_skene.binary_qualities result)
        end
        else begin
          Printf.printf "worker,diagonal_accuracy\n";
          Array.iteri
            (fun w m ->
              let l = Array.length m in
              let diag = ref 0. in
              for j = 0 to l - 1 do
                diag := !diag +. m.(j).(j)
              done;
              Printf.printf "%d,%.4f\n" w (!diag /. float_of_int l))
            result.Workers.Dawid_skene.confusions
        end)
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Estimate worker qualities from a votes CSV (gold or Dawid-Skene EM).")
    Term.(const run $ votes_arg $ method_arg)

(* ---- serve --------------------------------------------------------- *)

let port_arg ~default =
  Arg.(value & opt int default & info [ "port" ] ~doc:"TCP port (0 = ephemeral).")

let serve_cmd =
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ]
          ~doc:"Executor domains (default: recommended for this host).")
  in
  let queue_arg =
    Arg.(
      value & opt int 256
      & info [ "queue-cap" ] ~doc:"Work-queue bound (admission control).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~doc:"Per-request deadline in seconds (none by default).")
  in
  let log_arg =
    Arg.(
      value
      & opt (some float) (Some 10.)
      & info [ "log-interval" ] ~doc:"Seconds between stderr metric lines (0 = off).")
  in
  let session_cap_arg =
    Arg.(
      value
      & opt int Session.Store.default_cap
      & info [ "session-cap" ]
          ~doc:"Most open sessions per shard (admission control).")
  in
  let session_ttl_arg =
    Arg.(
      value
      & opt float Session.Store.default_ttl
      & info [ "session-ttl" ] ~doc:"Idle-session expiry in seconds.")
  in
  let calib_batch_arg =
    Arg.(
      value
      & opt int Workers.Calib.default_config.Workers.Calib.batch
      & info [ "calib-batch" ]
          ~doc:
            "Reported votes buffered before a mini-batch calibration step \
             runs (and the pool version bumps).")
  in
  let calib_window_arg =
    Arg.(
      value
      & opt int Workers.Calib.default_config.Workers.Calib.window
      & info [ "calib-window" ]
          ~doc:"Per-worker history ring capacity for calibration.")
  in
  let max_conns_arg =
    Arg.(
      value & opt int 1024
      & info [ "max-conns" ]
          ~doc:
            "Most simultaneously open connections; excess accepts are shed \
             with an err overload line.")
  in
  let idle_timeout_arg =
    Arg.(
      value & opt float 30.
      & info [ "idle-timeout" ]
          ~doc:
            "Seconds a partial request line may sit unfinished before the \
             connection is closed (slow-loris defense; 0 disables).  \
             Connections idling between complete requests are never reaped.")
  in
  let run port domains queue_cap deadline log_interval session_cap session_ttl
      calib_batch calib_window max_conns idle_timeout file =
    (* Executor domains size their own minor heaps (Serve.Service); the
       event loop keeps the runtime default, since with warm reads
       answered from memos minor collections are rare and each one
       sweeps this domain's whole minor heap. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let calib_config =
      {
        Workers.Calib.default_config with
        Workers.Calib.batch = calib_batch;
        window = calib_window;
      }
    in
    let service =
      Serve.Service.create ?domains ~queue_capacity:queue_cap ?deadline
        ~session_cap ~session_ttl ~calib_config ()
    in
    (match file with
    | Some path ->
        let pool = epool_of_doc (Workers.Pool_io.load_doc path) in
        ignore
          (Serve.Registry.upsert (Serve.Service.registry service) ~name:"default"
             pool);
        Printf.printf "loaded pool 'default' (%d workers, %d labels) from %s\n"
          (Engine.Pool.size pool) (Engine.Pool.labels pool) path
    | None -> ());
    let server =
      Serve.Server.create ~max_conns ~idle_timeout ~port service
    in
    Printf.printf
      "optjs serve: listening on 127.0.0.1:%d (%d domains, queue %d, conn cap %d)\n%!"
      (Serve.Server.port server)
      (Serve.Service.domains service)
      queue_cap max_conns;
    let log_interval =
      match log_interval with Some i when i > 0. -> Some i | _ -> None
    in
    Serve.Server.run ?log_interval server
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the jury-selection TCP daemon.")
    Term.(
      const run $ port_arg ~default:7071 $ domains_arg $ queue_arg $ deadline_arg
      $ log_arg $ session_cap_arg $ session_ttl_arg $ calib_batch_arg
      $ calib_window_arg $ max_conns_arg $ idle_timeout_arg $ file_arg)

(* ---- loadgen ------------------------------------------------------- *)

(* Closed-loop load generator: each connection thread sends one request,
   waits for the reply, and repeats until the deadline.  Overload and
   deadline replies are valid protocol outcomes and counted separately;
   only undecodable or mismatched replies count as protocol errors (and
   make the command exit nonzero, which is what `make serve-smoke`
   asserts). *)

type lg_counters = {
  mutable sent : int;
  mutable ok : int;
  mutable overloaded : int;
  mutable deadlined : int;
  mutable server_errors : int;
  mutable protocol_errors : int;
  mutable fleet_submitted : int;
  mutable fleet_released : int;
  mutable latencies : float list;  (* seconds, newest first *)
}

let lg_fresh () =
  {
    sent = 0;
    ok = 0;
    overloaded = 0;
    deadlined = 0;
    server_errors = 0;
    protocol_errors = 0;
    fleet_submitted = 0;
    fleet_released = 0;
    latencies = [];
  }

let lg_connect host port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let lg_roundtrip ic oc request =
  output_string oc (Serve.Wire.encode_request request);
  output_char oc '\n';
  flush oc;
  Serve.Wire.decode_response (input_line ic)

let lg_mix_parse s =
  List.map
    (fun tok ->
      match String.split_on_char ':' (String.trim tok) with
      | [ kind; weight ] -> (
          match (kind, int_of_string_opt weight) with
          | ( ("jq" | "jqpool" | "select" | "table" | "session" | "report"
              | "quality" | "fleet"),
              Some w )
            when w > 0 ->
              (kind, w)
          | _ -> failwith (Printf.sprintf "bad mix entry %S" tok))
      | _ -> failwith (Printf.sprintf "bad mix entry %S" tok))
    (String.split_on_char ',' s)

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"Server address.")

let loadgen_cmd =
  let connections_arg =
    Arg.(value & opt int 4 & info [ "connections" ] ~doc:"Concurrent connections.")
  in
  let duration_arg =
    Arg.(value & opt float 5. & info [ "duration" ] ~doc:"Run time in seconds.")
  in
  let mix_arg =
    Arg.(
      value
      & opt string "jqpool:6,select:3,jq:2,table:1"
      & info [ "mix" ]
          ~doc:
            "Weighted request mix over jq, jqpool, select, table, session \
             (a session entry runs a whole open-advise-vote-close \
             conversation, each verb counted as one request), report (a \
             calibration vote batch sampled from the generator's known \
             qualities), quality (per-worker readback) and fleet (each \
             draw submits a concurrent task into the shared-pool \
             allocator until the connection holds --fleet-depth of them, \
             then releases the oldest as decided — a steady-state \
             contention workload).")
  in
  let fleet_depth_arg =
    Arg.(
      value & opt int 8
      & info [ "fleet-depth" ]
          ~doc:
            "Concurrent fleet tasks each connection keeps resident (the \
             contention knob: connections x depth juries compete for one \
             shared pool).")
  in
  let pool_size_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "pool-size" ]
          ~doc:
            "Synthetic pool size (default 40, or 12 for matrix pools — \
             tuple-key scoring grows steeply in the jury size).")
  in
  let labels_arg =
    Arg.(
      value & opt int 2
      & info [ "labels" ]
          ~doc:
            "Task labels: 2 registers a scalar pool, more a \
             confusion-matrix pool (and prior-vector requests).")
  in
  let lg_budget_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "b"; "budget" ]
          ~doc:
            "Budget for select/table requests (default 12, or 6 for \
             matrix pools).")
  in
  let pools_arg =
    Arg.(
      value & opt int 1
      & info [ "pools" ]
          ~doc:
            "Distinct pools to register and spread connections over — \
             each connection sticks to one pool, so the server's \
             pool-affinity sharding sees several independent streams.")
  in
  let run host port connections duration mix pool_size labels budget pools
      fleet_depth seed =
    (* A daemon dying mid-reply must show up as a counted error, not kill
       the generator with SIGPIPE. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    if connections <= 0 then failwith "connections must be positive";
    if duration <= 0. then failwith "duration must be positive";
    if labels < 2 then failwith "labels must be at least 2";
    if pools <= 0 then failwith "pools must be positive";
    if fleet_depth <= 0 then failwith "fleet-depth must be positive";
    let pool_size =
      match pool_size with Some n -> n | None -> if labels = 2 then 40 else 12
    in
    let budget =
      match budget with Some b -> b | None -> if labels = 2 then 12. else 6.
    in
    let mix = lg_mix_parse mix in
    let kinds =
      Array.concat
        (List.map (fun (kind, w) -> Array.make w kind) mix)
    in
    let pool_names =
      Array.init pools (fun i ->
          if pools = 1 then "loadgen" else Printf.sprintf "loadgen-%d" i)
    in
    let pool_prior = List.init labels (fun _ -> 1. /. float_of_int labels) in
    (* One-time setup on its own connection: register the target pools. *)
    let pool =
      Workers.Generator.gaussian_pool (Prob.Rng.create seed)
        Workers.Generator.default pool_size
    in
    let workers =
      if labels = 2 then
        List.map
          (fun w ->
            Serve.Wire.Scalar (Workers.Worker.quality w, Workers.Worker.cost w))
          (Workers.Pool.to_list pool)
      else
        (* Reuse the scalar generator's qualities as diagonals: each worker
           votes the truth with its quality and spreads the rest evenly. *)
        List.map
          (fun w ->
            let d = Workers.Worker.quality w in
            let off = (1. -. d) /. float_of_int (labels - 1) in
            let matrix =
              Array.init labels (fun j ->
                  Array.init labels (fun v -> if j = v then d else off))
            in
            Serve.Wire.Matrix_row (matrix, Workers.Worker.cost w))
          (Workers.Pool.to_list pool)
    in
    (let fd, ic, oc = lg_connect host port in
     Array.iter
       (fun name ->
         match
           lg_roundtrip ic oc (Serve.Wire.Pool_put { name; workers })
         with
         | Ok (Serve.Wire.Pool_info _) -> ()
         | Ok r ->
             failwith
               ("pool-put: unexpected reply " ^ Serve.Wire.encode_response r)
         | Error e -> failwith ("pool-put: " ^ e))
       pool_names;
     Unix.close fd);
    let request_of ~pool_name rng = function
      | "jq" ->
          (* Inline qualities are the binary model whatever the pool. *)
          let qs =
            List.init 5 (fun _ -> 0.5 +. Prob.Rng.float rng 0.45)
          in
          Serve.Wire.Jq
            {
              source = Serve.Wire.Inline qs;
              prior = Serve.Wire.default_prior;
              num_buckets = Jq.Bucket.default_num_buckets;
            }
      | "jqpool" ->
          Serve.Wire.Jq
            {
              source = Serve.Wire.Named pool_name;
              prior = pool_prior;
              num_buckets = Jq.Bucket.default_num_buckets;
            }
      | "select" ->
          Serve.Wire.Select
            {
              pool = pool_name;
              budget;
              prior = pool_prior;
              seed = Prob.Rng.int rng 16;
            }
      | "table" ->
          Serve.Wire.Table
            {
              pool = pool_name;
              budgets = [ budget /. 2.; budget ];
              prior = pool_prior;
              seed = Prob.Rng.int rng 16;
            }
      | "report" ->
          (* Votes sampled from the generator's known qualities, a quarter
             of them gold — so the server's calibrators converge toward
             the uploaded pool rather than drifting randomly. *)
          let votes =
            List.init 8 (fun _ ->
                let task = Prob.Rng.int rng 4096 in
                let worker = Prob.Rng.int rng pool_size in
                let truth = Prob.Rng.int rng labels in
                let q = Workers.Worker.quality (Workers.Pool.get pool worker) in
                let label =
                  if Prob.Rng.float rng 1. < q then truth
                  else (truth + 1 + Prob.Rng.int rng (labels - 1)) mod labels
                in
                {
                  Workers.Calib.task;
                  worker;
                  label;
                  truth =
                    (if Prob.Rng.float rng 1. < 0.25 then Some truth else None);
                })
          in
          Serve.Wire.Report { pool = pool_name; votes }
      | "quality" -> Serve.Wire.Quality { pool = pool_name }
      | _ -> assert false
    in
    let expected_kind request response =
      match (request, response) with
      | Serve.Wire.Jq _, Serve.Wire.Jq_result _
      | Serve.Wire.Select _, Serve.Wire.Select_result _
      | Serve.Wire.Table _, Serve.Wire.Table_result _
      | ( ( Serve.Wire.Session_open _ | Serve.Wire.Session_vote _
          | Serve.Wire.Session_advise _ | Serve.Wire.Session_decide _
          | Serve.Wire.Session_close _ ),
          Serve.Wire.Session_result _ )
      | ( (Serve.Wire.Report _ | Serve.Wire.Recal _),
          Serve.Wire.Report_result _ )
      | Serve.Wire.Quality _, Serve.Wire.Quality_result _
      | Serve.Wire.Fleet_submit _, Serve.Wire.Fleet_task _
      | Serve.Wire.Fleet_status _, (Serve.Wire.Fleet_task _ | Serve.Wire.Fleet_summary _)
      | Serve.Wire.Fleet_release _, Serve.Wire.Fleet_released _ ->
          true
      | _ -> false
    in
    let t_start = Serve.Clock.now () in
    let t_end = t_start +. duration in
    let results = Array.init connections (fun _ -> lg_fresh ()) in
    let worker i =
      let counters = results.(i) in
      let pool_name = pool_names.(i mod Array.length pool_names) in
      let rng = Prob.Rng.create (seed + (1000 * (i + 1))) in
      let sessions = ref 0 in
      try
        let fd, ic, oc = lg_connect host port in
        let timed request =
          let t0 = Serve.Clock.now () in
          let reply = lg_roundtrip ic oc request in
          let t1 = Serve.Clock.now () in
          counters.sent <- counters.sent + 1;
          counters.latencies <- (t1 -. t0) :: counters.latencies;
          (match reply with
          | Ok response when expected_kind request response ->
              counters.ok <- counters.ok + 1
          | Ok (Serve.Wire.Error { code = Serve.Wire.Overload; _ }) ->
              counters.overloaded <- counters.overloaded + 1
          | Ok (Serve.Wire.Error { code = Serve.Wire.Deadline; _ }) ->
              counters.deadlined <- counters.deadlined + 1
          | Ok (Serve.Wire.Error _) ->
              counters.server_errors <- counters.server_errors + 1
          | Ok _ | Error _ ->
              counters.protocol_errors <- counters.protocol_errors + 1);
          reply
        in
        (* One whole session conversation: open, follow advice voting a
           sample from the generator's known quality, close.  Every verb
           is a counted, latency-tracked request of its own. *)
        let run_session () =
          incr sessions;
          let task_id = Printf.sprintf "lg%d-%d-%d" seed i !sessions in
          let truth = Prob.Rng.int rng labels in
          let vote_of w =
            let q = Workers.Worker.quality (Workers.Pool.get pool w) in
            if Prob.Rng.float rng 1. < q then truth
            else (truth + 1 + Prob.Rng.int rng (labels - 1)) mod labels
          in
          let still_open = function
            | Ok (Serve.Wire.Session_result { state = Serve.Wire.Sess_open; _ })
              ->
                true
            | _ -> false
          in
          let reply =
            ref
              (timed
                 (Serve.Wire.Session_open
                    {
                      pool = pool_name;
                      task = task_id;
                      prior = pool_prior;
                      budget;
                      confidence = Serve.Wire.default_confidence;
                      gain_floor = 0.;
                      policy = Session.Policy.default;
                    }))
          in
          let steps = ref 0 in
          while !reply |> still_open && !steps <= pool_size do
            incr steps;
            match
              timed
                (Serve.Wire.Session_advise
                   { pool = pool_name; task = task_id; k = 3 })
            with
            | Ok
                (Serve.Wire.Session_result
                   { state = Serve.Wire.Sess_open; advice = _ :: _ as advice; _ })
              ->
                (* Batch solicitation: vote down the advised list until the
                   session leaves the open state. *)
                List.iter
                  (fun w ->
                    if still_open !reply then
                      reply :=
                        timed
                          (Serve.Wire.Session_vote
                             {
                               pool = pool_name;
                               task = task_id;
                               worker = w;
                               label = vote_of w;
                             }))
                  advice
            | r -> reply := r
          done;
          (* Closing the loop on the quality plane: the decide carries the
             simulated ground truth, so the session's votes feed the
             pool's calibrator as gold examples. *)
          ignore
            (timed
               (Serve.Wire.Session_decide
                  { pool = pool_name; task = task_id; truth = Some truth }));
          ignore
            (timed (Serve.Wire.Session_close { pool = pool_name; task = task_id }))
        in
        (* Steady-state contention: submit concurrent fleet tasks until
           this connection holds --fleet-depth of them, then cycle by
           releasing the oldest as decided.  Connections x depth juries
           stay resident on the shared pool for the whole run. *)
        let fleet_resident = Queue.create () in
        let fleet_seq = ref 0 in
        let release_oldest () =
          let id = Queue.pop fleet_resident in
          ignore
            (timed
               (Serve.Wire.Fleet_release
                  { pool = pool_name; task = id; decided = true }));
          counters.fleet_released <- counters.fleet_released + 1
        in
        let run_fleet () =
          if Queue.length fleet_resident >= fleet_depth then release_oldest ()
          else begin
            incr fleet_seq;
            let id = Printf.sprintf "fl%d-%d-%d" seed i !fleet_seq in
            ignore
              (timed
                 (Serve.Wire.Fleet_submit
                    {
                      pool = pool_name;
                      task = id;
                      prior = pool_prior;
                      budget;
                      tier = !fleet_seq mod 3;
                      target = 0.;
                    }));
            Queue.push id fleet_resident;
            counters.fleet_submitted <- counters.fleet_submitted + 1
          end
        in
        while Serve.Clock.now () < t_end do
          match kinds.(Prob.Rng.int rng (Array.length kinds)) with
          | "session" -> run_session ()
          | "fleet" -> run_fleet ()
          | kind -> ignore (timed (request_of ~pool_name rng kind))
        done;
        (* Drain this connection's resident fleet tasks so the run leaves
           the server's allocators empty. *)
        while not (Queue.is_empty fleet_resident) do
          release_oldest ()
        done;
        Unix.close fd
      with exn ->
        Printf.eprintf "loadgen connection %d: %s\n" i (Printexc.to_string exn);
        counters.protocol_errors <- counters.protocol_errors + 1
    in
    let threads =
      List.init connections (fun i -> Thread.create worker i)
    in
    List.iter Thread.join threads;
    let per_thread = Array.to_list results in
    let wall = Serve.Clock.now () -. t_start in
    let total = lg_fresh () in
    List.iter
      (fun c ->
        total.sent <- total.sent + c.sent;
        total.ok <- total.ok + c.ok;
        total.overloaded <- total.overloaded + c.overloaded;
        total.deadlined <- total.deadlined + c.deadlined;
        total.server_errors <- total.server_errors + c.server_errors;
        total.protocol_errors <- total.protocol_errors + c.protocol_errors;
        total.fleet_submitted <- total.fleet_submitted + c.fleet_submitted;
        total.fleet_released <- total.fleet_released + c.fleet_released;
        total.latencies <- c.latencies @ total.latencies)
      per_thread;
    Printf.printf "requests: %d in %.2fs (%.0f req/s)\n" total.sent wall
      (float_of_int total.sent /. wall);
    Printf.printf "ok: %d  overload: %d  deadline: %d  server-err: %d\n"
      total.ok total.overloaded total.deadlined total.server_errors;
    Printf.printf "protocol_errors: %d\n" total.protocol_errors;
    if List.mem_assoc "fleet" mix then
      Printf.printf
        "fleet: depth %d  submitted %d  released %d  still-resident %d\n"
        fleet_depth total.fleet_submitted total.fleet_released
        (total.fleet_submitted - total.fleet_released);
    (match total.latencies with
    | [] -> ()
    | lats ->
        let arr = Array.of_list lats in
        let q p = 1000. *. Prob.Stats.quantile arr p in
        Printf.printf "latency_ms: p50 %.2f  p95 %.2f  p99 %.2f\n" (q 0.5)
          (q 0.95) (q 0.99));
    (* Server-side view: memo hits and solver-cache counters under this
       load. *)
    (let fd, ic, oc = lg_connect host port in
     (match lg_roundtrip ic oc Serve.Wire.Stats with
     | Ok (Serve.Wire.Stats_result stats) ->
         print_endline "server stats:";
         List.iter
           (fun (key, v) -> Printf.printf "  %s: %g\n" key v)
           stats
     | _ -> print_endline "server stats: unavailable");
     Unix.close fd);
    if total.protocol_errors > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Closed-loop load generator for the serve daemon.")
    Term.(
      const run $ host_arg $ port_arg ~default:7071 $ connections_arg
      $ duration_arg $ mix_arg $ pool_size_arg $ labels_arg $ lg_budget_arg
      $ pools_arg $ fleet_depth_arg $ seed_arg)

(* ---- session ------------------------------------------------------- *)

(* Thin client over the session verbs.  Replies are printed as raw wire
   lines — the same bytes `nc` would show — so scripted callers can diff
   them and the docs' walkthrough matches exactly.  `drive` is the
   closed-loop variant: register a synthetic pool, open one session, and
   follow the server's advice (sampling votes from the generator's known
   qualities) until it reaches a terminal state. *)

let session_cmd =
  let action_arg =
    let actions =
      [
        ("open", `Open); ("vote", `Vote); ("advise", `Advise);
        ("decide", `Decide); ("close", `Close); ("drive", `Drive);
      ]
    in
    let doc =
      "Action: open, vote, advise, decide, close, or drive (register a \
       synthetic pool, open a session and follow the policy's advice to \
       a decision)."
    in
    Arg.(
      required
      & pos 0 (some (enum actions)) None
      & info [] ~docv:"ACTION" ~doc)
  in
  let pool_name_arg =
    Arg.(value & opt string "default" & info [ "pool" ] ~doc:"Pool name.")
  in
  let task_id_arg =
    Arg.(
      value & opt string "t0"
      & info [ "task" ] ~doc:"Task id (shares the pool-name charset).")
  in
  let session_budget_arg =
    Arg.(value & opt float 10. & info [ "b"; "budget" ] ~doc:"Session budget.")
  in
  let confidence_arg =
    Arg.(
      value
      & opt float Serve.Wire.default_confidence
      & info [ "confidence" ]
          ~doc:"Posterior stopping threshold, in (1/labels, 1].")
  in
  let floor_arg =
    Arg.(
      value & opt float 0.
      & info [ "floor" ] ~doc:"Marginal-gain floor (0 disables).")
  in
  let session_policy_arg =
    let policies =
      List.map (fun p -> (Session.Policy.to_string p, p)) Session.Policy.all
    in
    Arg.(
      value
      & opt (enum policies) Session.Policy.default
      & info [ "policy" ]
          ~doc:"Solicitation policy: gain, jq, quality, or cheap.")
  in
  let worker_arg =
    Arg.(
      value & opt (some int) None
      & info [ "worker" ] ~doc:"Worker index (vote).")
  in
  let k_arg =
    Arg.(
      value & opt int 1
      & info [ "k" ] ~doc:"Advice batch size: top-K workers per advise.")
  in
  let truth_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "truth" ]
          ~doc:
            "Ground-truth label for decide: the session's votes feed the \
             pool's calibrator as gold examples.")
  in
  let label_arg =
    Arg.(
      value & opt (some int) None & info [ "label" ] ~doc:"Vote label (vote).")
  in
  let drive_pool_size_arg =
    Arg.(
      value & opt int 25
      & info [ "pool-size" ] ~doc:"Synthetic pool size for drive.")
  in
  let run host port action pool task_id alpha prior budget confidence floor
      policy worker label k truth pool_size seed =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let task = task_of ~alpha ~prior in
    let prior = Array.to_list (Engine.Task.prior task) in
    let fd, ic, oc = lg_connect host port in
    let round request =
      match lg_roundtrip ic oc request with
      | Ok r ->
          print_endline (Serve.Wire.encode_response r);
          r
      | Error e -> failwith ("undecodable reply: " ^ e)
    in
    let open_request =
      Serve.Wire.Session_open
        {
          pool; task = task_id; prior; budget; confidence;
          gain_floor = floor; policy;
        }
    in
    (match action with
    | `Open -> ignore (round open_request)
    | `Vote -> (
        match (worker, label) with
        | Some worker, Some label ->
            ignore
              (round (Serve.Wire.Session_vote { pool; task = task_id; worker; label }))
        | _ -> failwith "vote needs --worker and --label")
    | `Advise ->
        ignore (round (Serve.Wire.Session_advise { pool; task = task_id; k }))
    | `Decide ->
        ignore
          (round (Serve.Wire.Session_decide { pool; task = task_id; truth }))
    | `Close ->
        ignore (round (Serve.Wire.Session_close { pool; task = task_id }))
    | `Drive ->
        if Engine.Task.labels task <> 2 then
          failwith "drive simulates binary pools; use --alpha, not --prior";
        let rng = Prob.Rng.create seed in
        let wpool =
          Workers.Generator.gaussian_pool rng Workers.Generator.default
            pool_size
        in
        let workers =
          List.map
            (fun w ->
              Serve.Wire.Scalar
                (Workers.Worker.quality w, Workers.Worker.cost w))
            (Workers.Pool.to_list wpool)
        in
        (match lg_roundtrip ic oc (Serve.Wire.Pool_put { name = pool; workers }) with
        | Ok (Serve.Wire.Pool_info _) -> ()
        | Ok r ->
            failwith
              ("pool-put: unexpected reply " ^ Serve.Wire.encode_response r)
        | Error e -> failwith ("pool-put: " ^ e));
        let truth =
          if Prob.Rng.float rng 1. < Engine.Task.alpha task then 0 else 1
        in
        let still_open = function
          | Serve.Wire.Session_result { state = Serve.Wire.Sess_open; _ } ->
              true
          | _ -> false
        in
        let r = ref (round open_request) in
        let steps = ref 0 in
        while still_open !r && !steps <= pool_size do
          incr steps;
          match
            round (Serve.Wire.Session_advise { pool; task = task_id; k })
          with
          | Serve.Wire.Session_result
              { state = Serve.Wire.Sess_open; advice = _ :: _ as advice; _ } ->
              List.iter
                (fun i ->
                  if still_open !r then begin
                    let q = Workers.Worker.quality (Workers.Pool.get wpool i) in
                    let vote =
                      if Prob.Rng.float rng 1. < q then truth else 1 - truth
                    in
                    r :=
                      round
                        (Serve.Wire.Session_vote
                           { pool; task = task_id; worker = i; label = vote })
                  end)
                advice
          | reply -> r := reply
        done;
        (* Feed the conversation back into the quality plane: decide with
           the simulated truth turns the session into gold calibration
           data before the close drops it. *)
        ignore
          (round
             (Serve.Wire.Session_decide
                { pool; task = task_id; truth = Some truth }));
        ignore (round (Serve.Wire.Session_close { pool; task = task_id }));
        Printf.printf "# truth was %d\n" truth);
    Unix.close fd
  in
  Cmd.v
    (Cmd.info "session"
       ~doc:"Drive sequential-jury sessions against the serve daemon.")
    Term.(
      const run $ host_arg $ port_arg ~default:7071 $ action_arg
      $ pool_name_arg $ task_id_arg $ alpha_arg $ prior_arg
      $ session_budget_arg $ confidence_arg $ floor_arg $ session_policy_arg
      $ worker_arg $ label_arg $ k_arg $ truth_arg $ drive_pool_size_arg
      $ seed_arg)

(* ---- fleet --------------------------------------------------------- *)

(* Thin client over the fleet verbs, plus a closed-loop drive: register a
   synthetic pool, submit a wave of concurrent tasks, inspect the shared
   allocation, release half as decided, and show the delta re-solved
   remainder.  Replies are printed as raw wire lines, like the session
   client's. *)

let fleet_cmd =
  let action_arg =
    let actions =
      [
        ("submit", `Submit); ("status", `Status); ("release", `Release);
        ("drive", `Drive);
      ]
    in
    let doc =
      "Action: submit (admit one concurrent task and print its assigned \
       jury), status (one task's assignment, or the pool's allocator \
       summary without --task), release (free a task's jury), or drive \
       (register a synthetic pool, submit a wave of concurrent tasks, \
       then release half of them as decided)."
    in
    Arg.(
      required
      & pos 0 (some (enum actions)) None
      & info [] ~docv:"ACTION" ~doc)
  in
  let pool_name_arg =
    Arg.(value & opt string "default" & info [ "pool" ] ~doc:"Pool name.")
  in
  let task_id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "task" ] ~doc:"Task id (shares the pool-name charset).")
  in
  let fleet_budget_arg =
    Arg.(value & opt float 10. & info [ "b"; "budget" ] ~doc:"Per-task budget.")
  in
  let tier_arg =
    Arg.(
      value & opt int 0
      & info [ "tier" ] ~doc:"Priority tier (0 = highest; weights 10^-tier).")
  in
  let target_arg =
    Arg.(
      value & opt float 0.
      & info [ "target" ] ~doc:"Soft quality target in [0,1] (0 = none).")
  in
  let decided_arg =
    Arg.(
      value & flag
      & info [ "decided" ]
          ~doc:"Release as decided (the task reached its answer) rather \
                than withdrawn.")
  in
  let tasks_arg =
    Arg.(
      value & opt int 12
      & info [ "tasks" ] ~doc:"Concurrent tasks submitted by drive.")
  in
  let drive_pool_size_arg =
    Arg.(
      value & opt int 40
      & info [ "pool-size" ] ~doc:"Synthetic pool size for drive.")
  in
  let run host port action pool task_id alpha prior budget tier target decided
      tasks pool_size seed =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let taskv = task_of ~alpha ~prior in
    let prior = Array.to_list (Engine.Task.prior taskv) in
    let fd, ic, oc = lg_connect host port in
    let round request =
      match lg_roundtrip ic oc request with
      | Ok r ->
          print_endline (Serve.Wire.encode_response r);
          r
      | Error e -> failwith ("undecodable reply: " ^ e)
    in
    (match action with
    | `Submit ->
        let task =
          match task_id with
          | Some id -> id
          | None -> failwith "submit needs --task"
        in
        ignore
          (round
             (Serve.Wire.Fleet_submit { pool; task; prior; budget; tier; target }))
    | `Status ->
        ignore (round (Serve.Wire.Fleet_status { pool; task = task_id }))
    | `Release ->
        let task =
          match task_id with
          | Some id -> id
          | None -> failwith "release needs --task"
        in
        ignore
          (round (Serve.Wire.Fleet_release { pool; task; decided }))
    | `Drive ->
        if Engine.Task.labels taskv <> 2 then
          failwith "drive registers a binary pool; use --alpha, not --prior";
        let rng = Prob.Rng.create seed in
        let wpool =
          Workers.Generator.gaussian_pool rng Workers.Generator.default
            pool_size
        in
        let workers =
          List.map
            (fun w ->
              Serve.Wire.Scalar
                (Workers.Worker.quality w, Workers.Worker.cost w))
            (Workers.Pool.to_list wpool)
        in
        (match lg_roundtrip ic oc (Serve.Wire.Pool_put { name = pool; workers }) with
        | Ok (Serve.Wire.Pool_info _) -> ()
        | Ok r ->
            failwith
              ("pool-put: unexpected reply " ^ Serve.Wire.encode_response r)
        | Error e -> failwith ("pool-put: " ^ e));
        let id_of i = Printf.sprintf "fl%d-%d" seed i in
        for i = 0 to tasks - 1 do
          ignore
            (round
               (Serve.Wire.Fleet_submit
                  {
                    pool;
                    task = id_of i;
                    prior;
                    budget;
                    tier = i mod 3;
                    target;
                  }))
        done;
        ignore (round (Serve.Wire.Fleet_status { pool; task = None }));
        (* Decide every other task: each release delta re-solves the
           juries that wanted the freed workers. *)
        for i = 0 to tasks - 1 do
          if i mod 2 = 0 then
            ignore
              (round
                 (Serve.Wire.Fleet_release
                    { pool; task = id_of i; decided = true }))
        done;
        ignore (round (Serve.Wire.Fleet_status { pool; task = None })));
    Unix.close fd
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Drive the shared-pool fleet allocator against the serve daemon.")
    Term.(
      const run $ host_arg $ port_arg ~default:7071 $ action_arg
      $ pool_name_arg $ task_id_arg $ alpha_arg $ prior_arg $ fleet_budget_arg
      $ tier_arg $ target_arg $ decided_arg $ tasks_arg $ drive_pool_size_arg
      $ seed_arg)

(* ---- quality ------------------------------------------------------- *)

(* Thin client over the quality-plane verbs: per-worker readback, forced
   recalibration, and ad-hoc vote reporting.  Replies are printed as raw
   wire lines, like the session client's. *)

let quality_cmd =
  let action_arg =
    let actions = [ ("show", `Show); ("recal", `Recal); ("report", `Report) ] in
    let doc =
      "Action: show (per-worker quality readback), recal (force a full \
       calibration step), or report (ingest --votes)."
    in
    Arg.(
      required
      & pos 0 (some (enum actions)) None
      & info [] ~docv:"ACTION" ~doc)
  in
  let pool_name_arg =
    Arg.(value & opt string "default" & info [ "pool" ] ~doc:"Pool name.")
  in
  let votes_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "votes" ]
          ~doc:
            "Comma-separated task:worker:label[:truth] votes for report \
             (the wire's own vote syntax).")
  in
  let parse_vote tok =
    let ints = List.map int_of_string_opt (String.split_on_char ':' tok) in
    match ints with
    | [ Some task; Some worker; Some label ] ->
        { Workers.Calib.task; worker; label; truth = None }
    | [ Some task; Some worker; Some label; Some g ] ->
        { Workers.Calib.task; worker; label; truth = Some g }
    | _ ->
        failwith
          (Printf.sprintf "bad vote %S: expected task:worker:label[:truth]" tok)
  in
  let run host port action pool votes =
    let fd, ic, oc = lg_connect host port in
    let round request =
      match lg_roundtrip ic oc request with
      | Ok r -> print_endline (Serve.Wire.encode_response r)
      | Error e -> failwith ("undecodable reply: " ^ e)
    in
    (match action with
    | `Show -> round (Serve.Wire.Quality { pool })
    | `Recal -> round (Serve.Wire.Recal { pool })
    | `Report ->
        let votes =
          match votes with
          | None -> failwith "report needs --votes"
          | Some s ->
              List.map parse_vote
                (List.filter
                   (fun tok -> tok <> "")
                   (List.map String.trim (String.split_on_char ',' s)))
        in
        if votes = [] then failwith "report needs at least one vote";
        round (Serve.Wire.Report { pool; votes }));
    Unix.close fd
  in
  Cmd.v
    (Cmd.info "quality"
       ~doc:"Inspect and drive a pool's live worker-quality plane.")
    Term.(
      const run $ host_arg $ port_arg ~default:7071 $ action_arg
      $ pool_name_arg $ votes_arg)

(* ---- amt ---------------------------------------------------------- *)

let amt_cmd =
  let run seed =
    let dataset = Crowd.Amt_dataset.generate (Prob.Rng.create seed) in
    let s = Crowd.Amt_dataset.statistics dataset in
    Printf.printf "workers: %d\n" s.n_workers;
    Printf.printf "mean estimated quality: %.4f (paper: 0.71)\n"
      s.mean_estimated_quality;
    Printf.printf "estimated quality > 0.8: %d (paper: 40)\n" s.above_080;
    Printf.printf "estimated quality < 0.6: %d (paper: ~13)\n" s.below_060;
    Printf.printf "answered all questions: %d (paper: 2)\n" s.answered_all;
    Printf.printf "answered the minimum: %d (paper: 67)\n" s.answered_min;
    Printf.printf "mean answers per worker: %.2f (paper: 93.75)\n"
      s.mean_answers_per_worker
  in
  Cmd.v
    (Cmd.info "amt" ~doc:"Generate the synthetic AMT dataset and print statistics.")
    Term.(const run $ seed_arg)

(* A [Failure], [Invalid_argument] or [Sys_error] escaping a command is
   its input refused (lists of different lengths, a quality outside
   [0, 1], a missing file): it is reported on one line with cmdliner's
   exit code for a bad command line, as a bad option value is. *)
let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let optjs =
    Cmd.group ~default
      (Cmd.info "optjs" ~version:Optjs.version
         ~doc:"Optimal Jury Selection System (EDBT 2015 reproduction).")
      [
        jq_cmd; select_cmd; table_cmd; frontier_cmd; online_cmd; estimate_cmd;
        expt_cmd; amt_cmd; serve_cmd; loadgen_cmd; session_cmd; fleet_cmd;
        quality_cmd;
      ]
  in
  exit
    (try Cmd.eval ~catch:false optjs with
    | Failure msg | Invalid_argument msg | Sys_error msg ->
        prerr_endline ("optjs: " ^ msg);
        Cmd.Exit.cli_error)
