(* The reference: the same script replayed sequentially through an
   in-process service created with the daemon's settings (one executor
   domain, default queue, batching, session and calibration settings).

   With a trace, each request is split into [wire.decode], a
   [service.submit.<verb>] and a [wire.encode.<verb>] span, and stateless
   requests get shadow calls with identical inputs recorded as children of
   the submit span: [Jq.Bucket.estimate_stats] for inline jq (and the
   daemon's incremental evaluator for pool jq), [Engine.Objective] for
   matrix pools and [Jsp.Annealing.solve_engine] for each select/table row.
   Whether a shadow solve runs against a fresh or a warm score memo follows
   what the service did, read off its [cache_misses] and [jq_memo_hits]
   counters around the submit. *)

module W = Serve.Wire

let verb line =
  match String.index_opt line ' ' with Some i -> String.sub line 0 i | None -> line

type shadows = {
  memos : (string * int * float list * float * int, Jsp.Objective_cache.t) Hashtbl.t;
  incs : (float * int, Jq.Incremental.t) Hashtbl.t;
}

let stat svc key =
  Option.value ~default:0. (List.assoc_opt key (Serve.Service.stats svc))

let task_of prior = Engine.Task.make ~prior:(Array.of_list prior)

let solve ~memo ~seed ~prior ~budget pool =
  Jsp.Annealing.solve_engine ~num_buckets:Script.buckets ~memo
    ~rng:(Prob.Rng.create seed) ~task:(task_of prior) ~budget pool

let shadow_solves tr sh ~parent ~req ~cold ~name ~version ~prior ~seed pool budgets =
  List.iter
    (fun budget ->
      let key = (name, version, prior, budget, seed) in
      let fresh () = Jsp.Objective_cache.create ~n:(Engine.Pool.size pool) () in
      let memo =
        match (cold, Hashtbl.find_opt sh.memos key) with
        | false, Some m -> m
        | false, None ->
            (* The service's memo was warmed by a solve the script does not
               show (a drift-triggered re-selection); warm ours the same
               way, untimed. *)
            let m = fresh () in
            ignore (solve ~memo:m ~seed ~prior ~budget pool);
            m
        | true, _ -> fresh ()
      in
      Hashtbl.replace sh.memos key memo;
      let id, result =
        Trace.span tr
          ~name:(if cold then "jsp.anneal" else "jsp.replay")
          ~parent ~req
          (fun () -> solve ~memo ~seed ~prior ~budget pool)
      in
      match Engine.Pool.repr pool with
      | Engine.Pool.Matrix _ ->
          ignore
            (Trace.span tr ~name:"jq.multiclass" ~parent:id ~req (fun () ->
                 Engine.Objective.bv_bucket_scored ~num_buckets:Script.buckets ()
                   ~task:(task_of prior) result.Jsp.Solver.jury))
      | Engine.Pool.Binary _ -> ())
    budgets

(* Reused across requests, as the service reuses its evaluator. *)
let incremental sh ~alpha ~num_buckets =
  match Hashtbl.find_opt sh.incs (alpha, num_buckets) with
  | Some inc -> inc
  | None ->
      let inc = Jq.Incremental.create ~num_buckets ~alpha () in
      Hashtbl.replace sh.incs (alpha, num_buckets) inc;
      inc

let traced_exchange tr sh svc ~req line =
  let _, request =
    Trace.span tr ~name:"wire.decode" ~parent:(-1) ~req (fun () ->
        W.decode_request line)
  in
  let request =
    match request with
    | Ok r -> r
    | Error msg -> failwith (Printf.sprintf "script line %S: %s" line msg)
  in
  let v = verb line in
  let registry = Serve.Service.registry svc in
  let lookup name = Serve.Registry.find registry name in
  let watched =
    match request with W.Jq _ | W.Select _ | W.Table _ -> true | _ -> false
  in
  let before_pool =
    match request with
    | W.Jq { source = W.Named name; _ } | W.Select { pool = name; _ }
    | W.Table { pool = name; _ } ->
        lookup name
    | _ -> None
  in
  let misses0 = if watched then stat svc "cache_misses" else 0.
  and memo_hits0 = if watched then stat svc "jq_memo_hits" else 0. in
  let parent, response =
    Trace.span tr ~name:("service.submit." ^ v) ~parent:(-1) ~req (fun () ->
        Serve.Service.submit svc request)
  in
  let _, reply =
    Trace.span tr ~name:("wire.encode." ^ v) ~parent:(-1) ~req (fun () ->
        W.encode_response response)
  in
  (if watched then
     let cold = stat svc "cache_misses" > misses0 in
     let memo_hit = stat svc "jq_memo_hits" > memo_hits0 in
     match (request, before_pool) with
     | W.Jq { source = W.Inline qs; prior = alpha :: _; num_buckets }, _ ->
         ignore
           (Trace.span tr ~name:"jq.bucket" ~parent ~req (fun () ->
                Jq.Bucket.estimate_stats ~num_buckets ~alpha (Array.of_list qs)))
     | W.Jq { source = W.Named _; prior; num_buckets }, Some (pool, _)
       when not memo_hit -> (
         match Engine.Pool.repr pool with
         | Engine.Pool.Binary scalars ->
             ignore
               (Trace.span tr ~name:"jq.bucket" ~parent ~req (fun () ->
                    let inc = incremental sh ~alpha:(List.hd prior) ~num_buckets in
                    Jq.Incremental.reset inc;
                    Array.iter (Jq.Incremental.add_worker inc)
                      (Workers.Pool.qualities scalars);
                    (Jq.Incremental.value inc, Jq.Incremental.error_bound inc)))
         | Engine.Pool.Matrix _ ->
             ignore
               (Trace.span tr ~name:"jq.multiclass" ~parent ~req (fun () ->
                    Engine.Objective.bv_bucket_scored ~num_buckets ()
                      ~task:(task_of prior) pool)))
     | W.Select { pool = name; budget; prior; seed }, Some (pool, version) ->
         shadow_solves tr sh ~parent ~req ~cold ~name ~version ~prior ~seed pool
           [ budget ]
     | W.Table { pool = name; budgets; prior; seed }, Some (pool, version) ->
         shadow_solves tr sh ~parent ~req ~cold ~name ~version ~prior ~seed pool
           budgets
     | _ -> ());
  { Check.request = line; reply }

let plain_exchange svc line =
  match W.decode_request line with
  | Ok r ->
      { Check.request = line; reply = W.encode_response (Serve.Service.submit svc r) }
  | Error msg -> failwith (Printf.sprintf "script line %S: %s" line msg)

let run ?trace ?probe (script : Script.t) =
  let svc = Serve.Service.create ~domains:1 () in
  let sh = { memos = Hashtbl.create 64; incs = Hashtbl.create 4 } in
  let exchange ~req line =
    match trace with
    | None -> plain_exchange svc line
    | Some tr -> traced_exchange tr sh svc ~req line
  in
  Fun.protect
    ~finally:(fun () -> Serve.Service.shutdown svc)
    (fun () ->
      let setup =
        Array.of_list
          (List.mapi (fun i l -> exchange ~req:(Trace.setup_req i) l) script.setup)
      in
      let conns =
        Array.mapi
          (fun c steps ->
            let cur = Script.cursor ?probe steps in
            let acc = ref [] in
            let rec go i line =
              let e = exchange ~req:(Trace.conn_req c i) line in
              acc := e :: !acc;
              match Script.advance cur e.reply with
              | Some next -> go (i + 1) next
              | None -> ()
            in
            Option.iter (go 0) (Script.start cur);
            Array.of_list (List.rev !acc))
          script.conns
      in
      let final =
        Array.of_list
          (List.mapi (fun i l -> exchange ~req:(Trace.final_req i) l) script.final)
      in
      { Check.setup; conns; final })
