(* Fleet allocator benchmark: price-based shared-pool assignment at 1k
   and 10k concurrent tasks on one pool.

   Each row bulk-loads n tasks (a handful of distinct signatures, so the
   shared-inner-solve path is exercised the way a platform's task mix
   would) through [submit_all], then drives a steady-state churn of
   single-task decide/arrive cycles — the delta path.  Reported per row:

   - bulk allocation throughput (tasks/s) and the aggregate JQ of the
     price-based result vs the independent-greedy-with-eviction
     baseline on the identical instance;
   - non-overlap violations (must be zero by construction);
   - delta submit/release latency quantiles over the churn;
   - the cost of one delta re-solve after a single decide vs one cold
     full re-allocation of every resident task.

   Flags:
     --fast    1k + 2k rows and a shorter churn (CI)
     --gate    exit 1 unless, on the largest row: aggregate strictly
               beats the greedy baseline, violations = 0, delta-submit
               p95 stays under 50 ms, and the delta re-solve is >= 5x
               faster than the cold full re-allocation

   Results are dumped as BENCH_fleet.json, the committed record; a --fast
   run writes BENCH_fleet.fast.json instead, so a smoke run leaves the
   record alone. *)

let pool_size = 200
let submit_p95_gate_ns = 50e6
let delta_speedup_gate = 5.

let quantile samples p =
  if Array.length samples = 0 then 0. else Prob.Stats.quantile samples p

(* A platform's task mix: a few priors, budgets and tiers — many tasks,
   few signatures, which is what the proposal cache feeds on. *)
let spec_of i =
  let alphas = [| 0.3; 0.5; 0.7 |] in
  let budgets = [| 2.; 4. |] in
  Fleet.Spec.make
    ~tier:(i mod 3)
    ~id:(Printf.sprintf "t%d" i)
    ~prior:
      (let a = alphas.(i mod Array.length alphas) in
       [| a; 1. -. a |])
    ~budget:budgets.(i / 3 mod Array.length budgets)
    ()

type row = {
  tasks : int;
  bulk_s : float;
  tasks_per_s : float;
  aggregate : float;
  baseline : float;
  violations : int;
  contention : float;
  submit_p50 : float;
  submit_p95 : float;
  submit_p99 : float;
  release_p50 : float;
  release_p95 : float;
  delta_ns : float;
  full_ns : float;
  delta_speedup : float;
  price_rounds : int;
  inner_solves : int;
  proposal_hits : int;
}

let run_row ~tasks ~churn =
  let pool =
    Engine.Pool.of_workers
      (Workers.Generator.gaussian_pool (Prob.Rng.create 7)
         Workers.Generator.default pool_size)
  in
  let t = Fleet.Allocator.create ~pool ~version:1 () in
  let specs = List.init tasks spec_of in
  let t0 = Serve.Clock.now () in
  ignore (Fleet.Allocator.submit_all t specs);
  let bulk_s = Serve.Clock.now () -. t0 in
  let aggregate = Fleet.Allocator.aggregate t in
  let baseline = Fleet.Allocator.baseline_aggregate t in
  let violations = Fleet.Allocator.violations t in
  let contention = Fleet.Allocator.contention t in
  (* Steady-state churn: decide the oldest resident, admit a fresh
     arrival — every cycle runs the delta path twice. *)
  let submit_lats = Array.make churn 0. in
  let release_lats = Array.make churn 0. in
  for i = 0 to churn - 1 do
    let old_id = Printf.sprintf "t%d" i in
    let r0 = Serve.Clock.now () in
    ignore (Fleet.Allocator.release t ~id:old_id ~decided:true);
    release_lats.(i) <- 1e9 *. (Serve.Clock.now () -. r0);
    let s0 = Serve.Clock.now () in
    ignore (Fleet.Allocator.submit t (spec_of (tasks + i)));
    submit_lats.(i) <- 1e9 *. (Serve.Clock.now () -. s0)
  done;
  if Fleet.Allocator.violations t <> 0 then
    failwith "non-overlap violated after churn";
  (* One delta re-solve after a single decide, vs one cold full
     re-allocation of everything resident — the acceptance ratio. *)
  let d0 = Serve.Clock.now () in
  ignore (Fleet.Allocator.release t ~id:(Printf.sprintf "t%d" churn) ~decided:true);
  let delta_ns = 1e9 *. (Serve.Clock.now () -. d0) in
  let f0 = Serve.Clock.now () in
  Fleet.Allocator.reallocate t;
  let full_ns = 1e9 *. (Serve.Clock.now () -. f0) in
  let st = Fleet.Allocator.stats t in
  {
    tasks;
    bulk_s;
    tasks_per_s = float_of_int tasks /. Float.max 1e-9 bulk_s;
    aggregate;
    baseline;
    violations;
    contention;
    submit_p50 = quantile submit_lats 0.5;
    submit_p95 = quantile submit_lats 0.95;
    submit_p99 = quantile submit_lats 0.99;
    release_p50 = quantile release_lats 0.5;
    release_p95 = quantile release_lats 0.95;
    delta_ns;
    full_ns;
    delta_speedup = full_ns /. Float.max 1. delta_ns;
    price_rounds = st.price_rounds;
    inner_solves = st.inner_solves;
    proposal_hits = st.proposal_hits;
  }

let row_json r =
  Printf.sprintf
    "{\"tasks\": %d, \"bulk_s\": %.4f, \"tasks_per_s\": %.0f,\n\
    \  \"aggregate\": %.4f, \"baseline\": %.4f, \"violations\": %d, \
     \"contention\": %.3f,\n\
    \  \"submit_p50_ns\": %.0f, \"submit_p95_ns\": %.0f, \"submit_p99_ns\": \
     %.0f,\n\
    \  \"release_p50_ns\": %.0f, \"release_p95_ns\": %.0f,\n\
    \  \"delta_ns\": %.0f, \"full_ns\": %.0f, \"delta_speedup\": %.1f,\n\
    \  \"price_rounds\": %d, \"inner_solves\": %d, \"proposal_hits\": %d}"
    r.tasks r.bulk_s r.tasks_per_s r.aggregate r.baseline r.violations
    r.contention r.submit_p50 r.submit_p95 r.submit_p99 r.release_p50
    r.release_p95 r.delta_ns r.full_ns r.delta_speedup r.price_rounds
    r.inner_solves r.proposal_hits

let () =
  let sizes = ref [ 1_000; 10_000 ] in
  let churn = ref 200 in
  let out = ref "BENCH_fleet.json" in
  let gate = ref false in
  let rec parse = function
    | [] -> ()
    | "--fast" :: rest ->
        out := "BENCH_fleet.fast.json";
        sizes := [ 1_000; 2_000 ];
        churn := 60;
        parse rest
    | "--gate" :: rest ->
        gate := true;
        parse rest
    | arg :: _ -> failwith ("unknown argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let rows = List.map (fun tasks -> run_row ~tasks ~churn:!churn) !sizes in
  let json =
    Printf.sprintf "{\"pool_size\": %d, \"rows\": [\n%s\n]}" pool_size
      (String.concat ",\n" (List.map row_json rows))
  in
  let oc = open_out !out in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  print_endline json;
  if !gate then begin
    let fail = ref [] in
    List.iter
      (fun r ->
        let tag msg = Printf.sprintf "%d tasks: %s" r.tasks msg in
        if r.violations <> 0 then
          fail := tag (Printf.sprintf "%d violations" r.violations) :: !fail;
        if r.aggregate <= r.baseline then
          fail :=
            tag
              (Printf.sprintf "aggregate %.4f does not beat baseline %.4f"
                 r.aggregate r.baseline)
            :: !fail;
        if r.submit_p95 > submit_p95_gate_ns then
          fail :=
            tag
              (Printf.sprintf "submit p95 %.0f ns > %.0f" r.submit_p95
                 submit_p95_gate_ns)
            :: !fail)
      rows;
    (let widest = List.nth rows (List.length rows - 1) in
     if widest.delta_speedup < delta_speedup_gate then
       fail :=
         Printf.sprintf "%d tasks: delta %.1fx < %.0fx vs full re-solve"
           widest.tasks widest.delta_speedup delta_speedup_gate
         :: !fail);
    match !fail with
    | [] -> print_endline "gate: ok"
    | fs ->
        List.iter (fun f -> Printf.eprintf "gate: %s\n" f) fs;
        exit 1
  end
