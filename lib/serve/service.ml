let recommended_domains () = min 8 (Domain.recommended_domain_count ())

(* A one-shot mailbox: the submitting thread blocks in [await] until the
   executor [fill]s it.  Executors always fill every job they pop or
   steal, and shutdown drains every shard, so a submitted job cannot be
   dropped. *)
module Cell = struct
  type t = {
    lock : Mutex.t;
    cond : Condition.t;
    mutable value : Wire.response option;
  }

  let create () =
    { lock = Mutex.create (); cond = Condition.create (); value = None }

  let fill t v =
    Mutex.lock t.lock;
    t.value <- Some v;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock

  let await t =
    Mutex.lock t.lock;
    while t.value = None do
      Condition.wait t.cond t.lock
    done;
    let v = Option.get t.value in
    Mutex.unlock t.lock;
    v
end

type job = {
  request : Wire.request;   (* A request [eval] could not answer inline. *)
  submitted : float;        (* Monotonic (Clock.now). *)
  deadline : float;         (* Absolute monotonic; [infinity] when unset. *)
  complete : Wire.response -> unit;
      (* Exactly-once completion: a blocking submit fills a Cell, an
         async submit hands the response to the event loop.  Runs on the
         executor domain, so it must stay cheap and never raise. *)
}

(* A bounded memo: on reaching its cap it is emptied wholesale (the
   Jsp.Objective_cache epoch rule), so no per-entry bookkeeping runs on a
   hit.  Its mutex is held for one find or one add, never across a
   computation, so a reader on the event thread cannot wait behind a
   solve. *)
module Memo = struct
  type ('k, 'v) t = { cap : int; table : ('k, 'v) Hashtbl.t; lock : Mutex.t }

  let create cap = { cap; table = Hashtbl.create 64; lock = Mutex.create () }

  let find t key =
    Mutex.lock t.lock;
    let v = Hashtbl.find_opt t.table key in
    Mutex.unlock t.lock;
    v

  let add t key value =
    Mutex.lock t.lock;
    if Hashtbl.length t.table >= t.cap then Hashtbl.reset t.table;
    Hashtbl.replace t.table key value;
    Mutex.unlock t.lock
end

(* One solved jury row: what a select reply or a table row carries. *)
type row = { ids : int list; score : float; cost : float }

(* Per-executor compute state, touched only by the executor's own domain. *)
type exec = {
  shard : int;              (* This executor's queue and metrics shard. *)
  incs : (float * int, Jq.Incremental.t) Memo.t;
      (* (alpha, buckets) -> reusable fixed-width evaluator (binary pools). *)
  workspace : Jq.Workspace.t;
      (* Dense-kernel scratch, owned by this executor domain alone: jq
         evaluations at steady state reuse its buffers instead of
         allocating.  Never handed to another domain (see Jq.Workspace). *)
  scores : (string * int * float list, Jsp.Objective_cache.t) Memo.t;
      (* (pool, version, prior) -> the score table every solve on this
         executor shares when it scores that pool from scratch.  Those
         scores are pure, so a hit is the float a fresh evaluation would
         give, whichever solve stored it. *)
}

let row_memo_cap = 1024
let jq_memo_cap = 128
let inc_cap = 8

(* Score tables per executor, and entries per table; either cap empties
   its map wholesale.  4096 entries hold every subset of
   a 12-worker pool.  Such an entry measures 84 bytes (hashtable cell,
   boxed float, a key of the 16-byte salt and the selection bitset; a
   larger pool adds n/8 bytes of key), so a full table takes about 340 KB
   and an executor's 16 tables at most about 5.4 MB. *)
let score_tables_cap = 16
let score_table_capacity = 4096

(* A shard's store: its state behind a mutex, and the gauge row [stats]
   reads, measured from the state and republished before each locked call
   releases the mutex, so a snapshot takes no store lock. *)
type ('s, 'g) store = {
  lock : Mutex.t;
  state : 's;
  gauges : 'g Atomic.t;
  measure : 's -> 'g;
}

let store state measure =
  { lock = Mutex.create (); state; gauges = Atomic.make (measure state); measure }

let with_store store f =
  Mutex.lock store.lock;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set store.gauges (store.measure store.state);
      Mutex.unlock store.lock)
    (fun () -> f store.state)

type t = {
  registry : Registry.t;
  metrics : Metrics.t;
  rows : (string * int * float list * float * int, row) Memo.t;
      (* (pool, version, prior, budget, seed) -> solved row, shared by every
         executor and the submitting threads.  Annealing is a deterministic
         function of that key (the bucket count is fixed per service), so
         a hit answers exactly what a fresh solve would. *)
  jq_memo : (string * int * float list * int, float * float * int) Memo.t;
      (* (pool, version, prior, buckets) -> (value, bound, n). *)
  queue : job Dispatch.t;
  queue_capacity : int;
  n_domains : int;
  deadline : float option;
  num_buckets : int;
  objective : Engine.Objective.t;
      (* OPTJS at [num_buckets]: what every jury row is solved with. *)
  inline_rr : int Atomic.t;   (* Spreads affinity-free requests. *)
  session_stores : (Session.Store.t, Session.Store.stats) store array;
      (* One store per shard, indexed by the pool-name hash — the same
         affinity that routes session verbs, so a session's whole
         lifetime normally runs on its home executor's store.  The mutex
         (not shard ownership) is what guarantees consistency: a stolen
         or spilled session job still locks the session's *home* store,
         so state never splits across shards. *)
  fleet_stores : ((string, Fleet.Allocator.t) Hashtbl.t, int list) store array;
      (* One allocator per pool, homed on the pool's affinity shard like
         session stores: same-pool fleet verbs serialize on one warm
         allocator (prices, proposal cache, memos), and the lock — not
         shard ownership — is what keeps a stolen fleet job
         consistent. *)
  shutdown_lock : Mutex.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let registry t = t.registry
let metrics t = t.metrics
let domains t = t.n_domains

let count t exec counter n = Metrics.add t.metrics ~shard:exec.shard counter n

(* Sample [timer] with the nanoseconds elapsed since [t0]. *)
let time_since t exec timer t0 =
  Metrics.sample t.metrics ~shard:exec.shard timer (1e9 *. (Clock.now () -. t0))

(* ---- where a request runs -------------------------------------------- *)

(* Every request is evaluated at a site: first on the submitting thread,
   then, if that raises, on an executor, which computes what no memo
   holds.  The registry lock and the memo locks are held for one lookup or
   one publication, never across a computation, so both sites take them
   outright.  On the submitting thread a read answers only from memos and
   resident state, and takes a fleet-store lock, which a fleet solve holds
   throughout, only with try_lock: anything to compute or a busy store
   raises [Needs_executor], and the request is queued instead.  Its memo
   hits are tallied in [hits] and counted once the request is answered, so
   one that falls back is not counted twice. *)
type caller = { mutable hits : Metrics.counter list }
type site = Executor of exec | Caller of caller

exception Needs_executor

(* The executor to compute on; the submitting thread computes nothing. *)
let executor = function Executor exec -> exec | Caller _ -> raise Needs_executor

let count_hit t site counter =
  match site with
  | Executor exec -> count t exec counter 1
  | Caller c -> c.hits <- counter :: c.hits

(* ---- evaluation ------------------------------------------------------ *)

let incremental_for exec ~alpha ~num_buckets =
  let key = (alpha, num_buckets) in
  match Memo.find exec.incs key with
  | Some inc -> inc
  | None ->
      let inc = Jq.Incremental.create ~num_buckets ~alpha () in
      Memo.add exec.incs key inc;
      inc

let unknown_pool name =
  Wire.Error
    { code = Wire.Unknown_pool; message = Printf.sprintf "no pool %S" name }

let unknown_session message = Wire.Error { code = Wire.Unknown_session; message }
let bad_request message = Wire.Error { code = Wire.Bad_request; message }

let unknown_task ~pool_name ~task_name =
  Wire.Error
    {
      code = Wire.Unknown_task;
      message = Printf.sprintf "no fleet task %s/%s" pool_name task_name;
    }

let session_store t name =
  t.session_stores.(Hashtbl.hash name mod Array.length t.session_stores)

let fleet_store t name =
  t.fleet_stores.(Hashtbl.hash name mod Array.length t.fleet_stores)

let prior_mismatch ~prior ~labels =
  Wire.Error
    {
      code = Wire.Bad_request;
      message =
        Printf.sprintf "prior has %d labels but pool has %d"
          (List.length prior) labels;
    }

let task_of_prior prior = Engine.Task.make ~prior:(Array.of_list prior)

(* The named pool and its version, or the error reply when it is unknown
   or its label count disagrees with the prior. *)
let checked_pool t ~name ~prior =
  match Registry.find t.registry name with
  | None -> Error (unknown_pool name)
  | Some (pool, version) ->
      let labels = Engine.Pool.labels pool in
      if List.length prior <> labels then Error (prior_mismatch ~prior ~labels)
      else Ok (pool, version)

(* Pool-jq: memoized per pool version; a binary-pool miss reuses the
   executor's fixed-width incremental evaluator (reset + one add pass per
   member), a matrix-pool miss runs the tuple-key bucket estimator. *)
let eval_jq_pool t site ~name ~prior ~num_buckets =
  match checked_pool t ~name ~prior with
  | Error reply -> reply
  | Ok (pool, version) ->
      let key = (name, version, prior, num_buckets) in
      let value, bound, n =
        match Memo.find t.jq_memo key with
        | Some hit ->
            count_hit t site Metrics.Jq_memo_hits;
            hit
        | None ->
            let exec = executor site in
            let t0 = Clock.now () in
            let entry =
              match Engine.Pool.repr pool with
              | Engine.Pool.Binary scalars ->
                  let alpha = List.hd prior in
                  let inc = incremental_for exec ~alpha ~num_buckets in
                  Jq.Incremental.reset inc;
                  Array.iter (Jq.Incremental.add_worker inc)
                    (Workers.Pool.qualities scalars);
                  ( Jq.Incremental.value inc,
                    Jq.Incremental.error_bound inc,
                    Workers.Pool.size scalars )
              | Engine.Pool.Matrix _ ->
                  let scored =
                    Engine.Objective.bv_bucket_scored ~num_buckets
                      ~workspace:exec.workspace ()
                      ~task:(task_of_prior prior) pool
                  in
                  count t exec Metrics.Jq_flat_fallbacks
                    scored.Engine.Objective.flat_fallbacks;
                  ( scored.Engine.Objective.score,
                    scored.Engine.Objective.bound,
                    Engine.Pool.size pool )
            in
            time_since t exec Metrics.Jq_eval t0;
            Memo.add t.jq_memo key entry;
            entry
      in
      Wire.Jq_result { value; error_bound = bound; n }

let eval_jq_inline t exec ~qualities ~prior ~num_buckets =
  match prior with
  | [ alpha; _ ] ->
      let t0 = Clock.now () in
      let stats =
        Jq.Bucket.estimate_stats ~workspace:exec.workspace ~num_buckets ~alpha
          (Array.of_list qualities)
      in
      time_since t exec Metrics.Jq_eval t0;
      Wire.Jq_result
        {
          value = stats.Jq.Bucket.value;
          error_bound = stats.Jq.Bucket.error_bound;
          n = List.length qualities;
        }
  | _ ->
      Wire.Error
        {
          code = Wire.Bad_request;
          message = "inline qualities are binary: prior must have 2 labels";
        }

(* The executor's score table for one pool version and prior.  A version
   bump keys a new table; the old one goes at the next wholesale reset. *)
let score_table exec ~pool_name ~version ~prior pool =
  let key = (pool_name, version, prior) in
  match Memo.find exec.scores key with
  | Some table -> table
  | None ->
      let table =
        Jsp.Objective_cache.create ~capacity:score_table_capacity
          ~n:(Engine.Pool.size pool) ()
      in
      Memo.add exec.scores key table;
      table

(* A memo hit skips the annealer and stores nothing.  A miss runs it and
   stores the row once the solve has returned.  On a pool scored from
   scratch the solve reads and fills the executor's score table for the
   pool version; an accumulator solve builds its own fresh table, as its
   path-dependent values could serve no other solve.  Either way the row
   is what a never-seen key gets.  An executor checks the memo even for a
   read the submitting thread just missed: a duplicate queued behind a
   miss is answered from the row that miss stored. *)
let solve_select t site ~pool ~version ~pool_name ~budget ~prior ~seed =
  let key = (pool_name, version, prior, budget, seed) in
  match Memo.find t.rows key with
  | Some row ->
      count_hit t site Metrics.Select_memo_hits;
      row
  | None ->
      let exec = executor site in
      let memo =
        if Engine.Objective.incremental t.objective pool then None
        else Some (score_table exec ~pool_name ~version ~prior pool)
      in
      let result =
        Jsp.Annealing.solve_engine ~objective:t.objective ?memo
          ~rng:(Prob.Rng.create seed) ~task:(task_of_prior prior) ~budget pool
      in
      count t exec Metrics.Solves 1;
      Option.iter
        (fun (c : Jsp.Objective_cache.stats) ->
          count t exec Metrics.Cache_hits c.hits;
          count t exec Metrics.Cache_misses c.misses;
          count t exec Metrics.Cache_entries c.entries;
          count t exec Metrics.Cache_evictions c.evictions)
        result.Jsp.Solver.cache;
      let jury = result.Jsp.Solver.jury in
      let row =
        {
          ids = Engine.Pool.ids jury;
          score = result.Jsp.Solver.score;
          cost = Engine.Pool.total_cost jury;
        }
      in
      Memo.add t.rows key row;
      row

let eval_select t site ~name ~budget ~prior ~seed =
  match checked_pool t ~name ~prior with
  | Error reply -> reply
  | Ok (pool, version) ->
      let row =
        solve_select t site ~pool ~version ~pool_name:name ~budget ~prior ~seed
      in
      Registry.note_standing t.registry ~name ~budget ~prior ~seed;
      Wire.Select_result { ids = row.ids; score = row.score; cost = row.cost }

(* Each row is solved exactly as the equivalent [select] (same memo key,
   fresh RNG from the same seed on a miss), so a table is byte-wise
   consistent with row-by-row selects. *)
let eval_table t site ~name ~budgets ~prior ~seed =
  match checked_pool t ~name ~prior with
  | Error reply -> reply
  | Ok (pool, version) ->
      let rows =
        List.map
          (fun budget ->
            let row =
              solve_select t site ~pool ~version ~pool_name:name ~budget ~prior
                ~seed
            in
            { Wire.budget; ids = row.ids; quality = row.score; required = row.cost })
          budgets
      in
      Wire.Table_result rows

(* ---- quality plane --------------------------------------------------- *)

(* Drift-triggered re-selection: re-solve every standing spec recorded for
   the pool against its freshly bumped version, then clear the stale flag.
   Each spec goes through [solve_select] exactly as the equivalent
   [select] would, so it fills the version-keyed memo row a client
   re-issuing the original request reads. *)
let reselect_standing t exec ~name =
  match Registry.find t.registry name with
  | None -> 0
  | Some (pool, version) ->
      let specs = Registry.standing t.registry name in
      List.iter
        (fun (budget, prior, seed) ->
          ignore
            (solve_select t (Executor exec) ~pool ~version ~pool_name:name ~budget
               ~prior ~seed))
        specs;
      Registry.clear_stale t.registry ~name;
      count t exec Metrics.Recal_runs (List.length specs);
      List.length specs

(* Run one calibration call against the registry: time it as an ingest,
   count the votes it applied, and re-solve the standing juries it left
   stale.  Returns the [report] reply. *)
let calibrate t exec ~name call =
  let t0 = Clock.now () in
  Result.map
    (fun (r : Registry.ingest) ->
      time_since t exec Metrics.Ingest t0;
      count t exec Metrics.Votes_ingested r.applied;
      let recals = if r.stale then reselect_standing t exec ~name else 0 in
      Wire.Report_result
        {
          name;
          version = r.version;
          applied = r.applied;
          pending = r.pending;
          drifted =
            List.map (fun (d : Workers.Calib.drift) -> d.worker) r.drifted;
          stale = r.stale;
          recals;
        })
    (call ())

let eval_report t exec ~name votes =
  match
    calibrate t exec ~name (fun () -> Registry.report t.registry ~name votes)
  with
  | Ok reply -> reply
  | Error `Unknown_pool -> unknown_pool name
  | Error (`Invalid msg) -> bad_request msg

let eval_recal t exec ~name =
  match calibrate t exec ~name (fun () -> Registry.recal t.registry ~name) with
  | Ok reply -> reply
  | Error `Unknown_pool -> unknown_pool name

let eval_quality t ~name =
  match Registry.quality t.registry ~name with
  | None -> unknown_pool name
  | Some (workers, version) -> Wire.Quality_result { name; version; workers }

(* Decided sessions feed the quality plane exactly once: their votes enter
   the pool's calibrator as gold examples when [decide] carried a truth
   label, ungraded otherwise.  Runs after the session store lock is
   released (the calibrator has its own mutex, and a drift flag here can
   trigger a solver run). *)
let ingest_session_votes t exec ~pool_name ~task_name ~truth votes =
  let task_id = Hashtbl.hash task_name in
  let calib_votes =
    List.map
      (fun (worker, label) ->
        { Workers.Calib.task = task_id; worker; label; truth })
      votes
  in
  ignore
    (calibrate t exec ~name:pool_name (fun () ->
         Registry.report t.registry ~name:pool_name calib_votes))

(* ---- session verbs -------------------------------------------------- *)

(* Every session verb answers with the full session snapshot.  The reply
   is a pure function of (pool contents, vote history, request) — the
   clock only feeds idle-expiry bookkeeping — so warm and cold replays
   stay byte-identical, matching the jq/select determinism contract. *)
let session_reply ~pool_name ~task_name ?(closed = false) ?advice session =
  let state, decision, certified, reason =
    match Session.Task.progress session with
    | Session.Task.Soliciting -> (Wire.Sess_open, None, false, None)
    | Session.Task.Decided { label; certified; reason } ->
        (Wire.Sess_decided, Some label, certified, Some reason)
    | Session.Task.Exhausted { label; reason } ->
        ( Wire.Sess_exhausted,
          Some label,
          Session.Task.certified_now session,
          Some reason )
  in
  let next = Session.Task.next session in
  let advice =
    match advice with
    | Some a -> a
    | None -> ( match next with None -> [] | Some i -> [ i ])
  in
  Wire.Session_result
    {
      pool = pool_name;
      task = task_name;
      state = (if closed then Wire.Sess_closed else state);
      posterior = Array.to_list (Session.Task.posterior session);
      votes = Session.Task.votes_seen session;
      spent = Session.Task.spent session;
      next;
      advice;
      decision;
      certified;
      reason;
    }

let terminal session =
  match Session.Task.progress session with
  | Session.Task.Soliciting -> false
  | Session.Task.Decided _ | Session.Task.Exhausted _ -> true

let eval_session_open t exec ~pool_name ~task_name ~prior ~budget ~confidence
    ~gain_floor ~policy =
  match Registry.find t.registry pool_name with
  | None -> unknown_pool pool_name
  | Some (pool, version) ->
      if List.length prior <> Engine.Pool.labels pool then
        prior_mismatch ~prior ~labels:(Engine.Pool.labels pool)
      else (
        match
          Session.Task.create ~workspace:exec.workspace ~pool
            ~pool_version:version ~task:(task_of_prior prior) ~budget
            ~confidence ~gain_floor ~policy ~now:(Clock.now ()) ()
        with
        | Error msg -> bad_request msg
        | Ok session ->
            with_store (session_store t pool_name) (fun store ->
                match
                  Session.Store.open_session store ~pool:pool_name
                    ~task:task_name ~session ~now:(Clock.now ())
                with
                | `Ok ->
                    if terminal session then Session.Store.note_decided store;
                    session_reply ~pool_name ~task_name session
                | `Exists ->
                    bad_request
                      (Printf.sprintf "session %s/%s already open" pool_name
                         task_name)
                | `Full ->
                    Wire.Error
                      {
                        code = Wire.Overload;
                        message = "session store full";
                      }))

(* Look up a live session under its home store's lock and run [f] on it.
   The registry is consulted first so a pool-put between two votes
   invalidates a soliciting session here, not at some later sweep. *)
let with_session t ~pool_name ~task_name f =
  match Registry.find t.registry pool_name with
  | None -> unknown_pool pool_name
  | Some (_, version) ->
      with_store (session_store t pool_name) (fun store ->
          match
            Session.Store.find store ~pool:pool_name ~task:task_name
              ~now:(Clock.now ()) ~version
          with
          | `Missing ->
              unknown_session
                (Printf.sprintf "no session %s/%s" pool_name task_name)
          | `Expired ->
              unknown_session
                (Printf.sprintf "session %s/%s idle-expired" pool_name
                   task_name)
          | `Invalidated ->
              unknown_session
                (Printf.sprintf
                   "session %s/%s invalidated by a pool update" pool_name
                   task_name)
          | `Found session -> f store session)

let eval_session_vote t exec ~pool_name ~task_name ~worker ~label =
  let feed = ref None in
  let response =
    with_session t ~pool_name ~task_name (fun store session ->
        let was_open = not (terminal session) in
        match
          Session.Task.vote ~workspace:exec.workspace session ~worker ~label
            ~now:(Clock.now ())
        with
        | Error msg -> bad_request msg
        | Ok () ->
            if was_open && terminal session then begin
              Session.Store.note_decided store;
              if Session.Task.mark_fed session then
                feed := Some (Session.Task.votes session)
            end;
            session_reply ~pool_name ~task_name session)
  in
  (match !feed with
  | Some votes when votes <> [] ->
      ingest_session_votes t exec ~pool_name ~task_name ~truth:None votes
  | _ -> ());
  response

let eval_session_advise t exec ~pool_name ~task_name ~k =
  with_session t ~pool_name ~task_name (fun _store session ->
      let advice =
        Session.Task.advise_k ~workspace:exec.workspace session ~k
          ~now:(Clock.now ())
      in
      session_reply ~pool_name ~task_name ~advice session)

let eval_session_decide t exec ~pool_name ~task_name ~truth =
  let feed = ref None in
  let response =
    with_session t ~pool_name ~task_name (fun store session ->
        let labels = Engine.Task.labels (Session.Task.task session) in
        match truth with
        | Some g when g < 0 || g >= labels ->
            bad_request
              (Printf.sprintf "truth %d out of range for %d labels" g labels)
        | _ ->
            let was_open = not (terminal session) in
            Session.Task.decide session ~now:(Clock.now ());
            if was_open then Session.Store.note_decided store;
            if Session.Task.mark_fed session then
              feed := Some (Session.Task.votes session);
            session_reply ~pool_name ~task_name session)
  in
  (match !feed with
  | Some votes when votes <> [] ->
      ingest_session_votes t exec ~pool_name ~task_name ~truth votes
  | _ -> ());
  response

let eval_session_close t ~pool_name ~task_name =
  with_store (session_store t pool_name) (fun store ->
      match Session.Store.remove store ~pool:pool_name ~task:task_name with
      | None ->
          unknown_session
            (Printf.sprintf "no session %s/%s" pool_name task_name)
      | Some session -> session_reply ~pool_name ~task_name ~closed:true session)

(* Every session verb is timed as one. *)
let session_verb t exec f =
  let t0 = Clock.now () in
  let response = f exec in
  time_since t exec Metrics.Session_verb t0;
  response

(* ---- fleet verbs ---------------------------------------------------- *)

(* Look up the pool's shared allocator under its home store's lock,
   creating it on first touch and resyncing it when the registry version
   moved — quality-plane batches and pool-puts invalidate fleet state by
   the same version rule as every other per-pool cache.  The allocator
   fans inner solves itself, so it runs with [domains = 1] here: the
   service's parallelism is across shards, not within one verb.  On the
   submitting thread the store lock, which a fleet solve holds throughout,
   is only tried, and only an allocator already at the registry's version
   is read: creating one, or resyncing it (a full re-solve), is left to an
   executor.  Such a read changes nothing, so it republishes no gauges. *)
let with_fleet t site ~pool_name f =
  match Registry.find t.registry pool_name with
  | None -> unknown_pool pool_name
  | Some (pool, version) -> (
      let fleet = fleet_store t pool_name in
      match site with
      | Caller _ ->
          if not (Mutex.try_lock fleet.lock) then raise Needs_executor;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock fleet.lock)
            (fun () ->
              match Hashtbl.find_opt fleet.state pool_name with
              | Some alloc when Fleet.Allocator.pool_version alloc = version ->
                  f alloc
              | _ -> raise Needs_executor)
      | Executor _ ->
          with_store fleet (fun store ->
              let alloc =
                match Hashtbl.find_opt store pool_name with
                | Some a ->
                    Fleet.Allocator.set_pool a ~pool ~version;
                    a
                | None ->
                    let config =
                      { Fleet.Allocator.default_config with
                        num_buckets = t.num_buckets;
                      }
                    in
                    let a = Fleet.Allocator.create ~config ~pool ~version () in
                    Hashtbl.add store pool_name a;
                    a
              in
              f alloc))

let fleet_task_reply ~pool_name (a : Fleet.Allocator.assignment) =
  Wire.Fleet_task
    {
      pool = pool_name;
      task = a.id;
      jury = a.jury;
      score = a.score;
      cost = a.cost;
      tier = a.tier;
    }

let eval_fleet_submit t exec ~pool_name ~task_name ~prior ~budget ~tier ~target
    =
  with_fleet t (Executor exec) ~pool_name (fun alloc ->
      let labels = Engine.Pool.labels (Fleet.Allocator.pool alloc) in
      if List.length prior <> labels then prior_mismatch ~prior ~labels
      else
        match
          Fleet.Spec.make ~tier ~target ~id:task_name
            ~prior:(Array.of_list prior) ~budget ()
        with
        | exception Invalid_argument msg -> bad_request msg
        | spec -> (
            let t0 = Clock.now () in
            match Fleet.Allocator.submit alloc spec with
            | exception Invalid_argument msg -> bad_request msg
            | assignment ->
                time_since t exec Metrics.Fleet_assign t0;
                fleet_task_reply ~pool_name assignment))

let eval_fleet_status t site ~pool_name ~task_name =
  with_fleet t site ~pool_name (fun alloc ->
      match task_name with
      | Some task_name -> (
          match Fleet.Allocator.find alloc ~id:task_name with
          | None -> unknown_task ~pool_name ~task_name
          | Some assignment -> fleet_task_reply ~pool_name assignment)
      | None ->
          let assigned =
            List.length
              (List.filter
                 (fun (a : Fleet.Allocator.assignment) -> a.jury <> [])
                 (Fleet.Allocator.assignments alloc))
          in
          Wire.Fleet_summary
            {
              pool = pool_name;
              version = Fleet.Allocator.pool_version alloc;
              epoch = Fleet.Allocator.epoch alloc;
              tasks = Fleet.Allocator.task_count alloc;
              assigned;
              claimed = Fleet.Allocator.claimed alloc;
              priced = Fleet.Allocator.priced alloc;
              aggregate = Fleet.Allocator.aggregate alloc;
            })

let eval_fleet_release t exec ~pool_name ~task_name ~decided =
  with_fleet t (Executor exec) ~pool_name (fun alloc ->
      match Fleet.Allocator.release alloc ~id:task_name ~decided with
      | None -> unknown_task ~pool_name ~task_name
      | Some (assignment : Fleet.Allocator.assignment) ->
          count t exec Metrics.Fleet_releases 1;
          Wire.Fleet_released
            {
              pool = pool_name;
              task = task_name;
              freed = List.length assignment.jury;
            })

(* The [fleet_*] counters, each summed over a shard store's allocators:
   the row a fleet store publishes, in this order.  [stats] adds up the
   shards' rows, and derives [fleet_contention] from the priced count and
   the pools' total size. *)
let fleet_counters : (string * (Fleet.Allocator.t -> int)) list =
  let stat f alloc = f (Fleet.Allocator.stats alloc) in
  [
    ("fleet_pools", fun _ -> 1);
    ("fleet_tasks", Fleet.Allocator.task_count);
    ("fleet_claimed", Fleet.Allocator.claimed);
    ("fleet_priced", Fleet.Allocator.priced);
    ("fleet_full_solves", stat (fun s -> s.full_solves));
    ("fleet_delta_solves", stat (fun s -> s.delta_solves));
    ("fleet_price_rounds", stat (fun s -> s.price_rounds));
    ("fleet_inner_solves", stat (fun s -> s.inner_solves));
    ("fleet_proposal_hits", stat (fun s -> s.proposal_hits));
    ("fleet_conflicts", stat (fun s -> s.conflicts));
    ("fleet_resyncs", stat (fun s -> s.resyncs));
    ("capacity", fun alloc -> Engine.Pool.size (Fleet.Allocator.pool alloc));
  ]

let fleet_row allocs =
  List.map
    (fun (_, count) -> Hashtbl.fold (fun _ alloc n -> n + count alloc) allocs 0)
    fleet_counters

let fleet_gauges t =
  let sums =
    Array.fold_left
      (fun acc fleet -> List.map2 ( + ) acc (Atomic.get fleet.gauges))
      (List.map (fun _ -> 0) fleet_counters)
      t.fleet_stores
  in
  let rows = List.map2 (fun (key, _) n -> (key, float_of_int n)) fleet_counters sums in
  let capacity = List.assoc "capacity" rows in
  ( "fleet_contention",
    if capacity = 0. then 0. else List.assoc "fleet_priced" rows /. capacity )
  :: List.remove_assoc "capacity" rows

(* Summed session-store counters across every shard store: the
   [sessions_*] rows of [stats]. *)
let session_gauges t =
  let s =
    Array.fold_left
      (fun acc sessions -> Session.Store.add_stats acc (Atomic.get sessions.gauges))
      Session.Store.zero_stats t.session_stores
  in
  let f = float_of_int in
  [
    ("sessions_open", f s.Session.Store.open_now);
    ("sessions_opened", f s.opened);
    ("sessions_decided", f s.decided);
    ("sessions_expired", f s.expired);
    ("sessions_invalidated", f s.invalidated);
    ("sessions_rejected", f s.rejected);
  ]

let stats t =
  let f = float_of_int in
  List.sort compare
    (Metrics.snapshot t.metrics
    @ [
        ("domains", f t.n_domains);
        ("queue_len", f (Dispatch.length t.queue));
        ("queue_capacity", f t.queue_capacity);
        ("stale_pools", f (Registry.stale_pools t.registry));
        ("drift_flags", f (Registry.drift_total t.registry));
      ])

(* Wire decoding already validated the rows (uniform kind and ℓ, entries
   in range, stochastic matrix rows), so construction can only fail on a
   request built without the codec. *)
let eval_pool_put t ~name workers =
  let mixed () = invalid_arg "pool-put: cannot mix scalar and matrix rows" in
  match
    match workers with
    | Wire.Matrix_row _ :: _ ->
        Engine.Pool.of_confusions
          (Array.of_list
             (List.mapi
                (fun id -> function
                  | Wire.Matrix_row (matrix, cost) ->
                      Workers.Confusion.make ~id ~matrix ~cost ()
                  | Wire.Scalar _ -> mixed ())
                workers))
    | _ ->
        Engine.Pool.of_workers
          (Workers.Pool.of_list
             (List.mapi
                (fun id -> function
                  | Wire.Scalar (quality, cost) ->
                      Workers.Worker.make ~id ~quality ~cost ()
                  | Wire.Matrix_row _ -> mixed ())
                workers))
  with
  | pool ->
      let version = Registry.upsert t.registry ~name pool in
      Wire.Pool_info { name; version; size = Engine.Pool.size pool }
  | exception Invalid_argument msg -> bad_request msg

(* The one evaluation of every verb, at [site].  An arm that calls
   [executor site] is always queued; every other verb is answered on the
   submitting thread whenever its memos and the fleet store's try-lock
   allow.  The control-plane verbs (ping, stats, pool-list, pool-put)
   need no executor. *)
let eval t site request =
  match request with
  | Wire.Ping -> Wire.Pong
  | Wire.Stats -> Wire.Stats_result (stats t)
  | Wire.Pool_list -> Wire.Pool_entries (Registry.list t.registry)
  | Wire.Pool_put { name; workers } -> eval_pool_put t ~name workers
  | Wire.Jq { source = Wire.Named name; prior; num_buckets } ->
      eval_jq_pool t site ~name ~prior ~num_buckets
  | Wire.Jq { source = Wire.Inline qualities; prior; num_buckets } ->
      eval_jq_inline t (executor site) ~qualities ~prior ~num_buckets
  | Wire.Select { pool; budget; prior; seed } ->
      eval_select t site ~name:pool ~budget ~prior ~seed
  | Wire.Table { pool; budgets; prior; seed } ->
      eval_table t site ~name:pool ~budgets ~prior ~seed
  | Wire.Session_open { pool; task; prior; budget; confidence; gain_floor; policy }
    ->
      session_verb t (executor site) (fun exec ->
          eval_session_open t exec ~pool_name:pool ~task_name:task ~prior ~budget
            ~confidence ~gain_floor ~policy)
  | Wire.Session_vote { pool; task; worker; label } ->
      session_verb t (executor site) (fun exec ->
          eval_session_vote t exec ~pool_name:pool ~task_name:task ~worker ~label)
  | Wire.Session_advise { pool; task; k } ->
      session_verb t (executor site) (fun exec ->
          eval_session_advise t exec ~pool_name:pool ~task_name:task ~k)
  | Wire.Session_decide { pool; task; truth } ->
      session_verb t (executor site) (fun exec ->
          eval_session_decide t exec ~pool_name:pool ~task_name:task ~truth)
  | Wire.Session_close { pool; task } ->
      session_verb t (executor site) (fun _ ->
          eval_session_close t ~pool_name:pool ~task_name:task)
  | Wire.Report { pool; votes } -> eval_report t (executor site) ~name:pool votes
  | Wire.Quality { pool } -> eval_quality t ~name:pool
  | Wire.Recal { pool } -> eval_recal t (executor site) ~name:pool
  | Wire.Fleet_submit { pool; task; prior; budget; tier; target } ->
      eval_fleet_submit t (executor site) ~pool_name:pool ~task_name:task ~prior
        ~budget ~tier ~target
  | Wire.Fleet_status { pool; task } ->
      eval_fleet_status t site ~pool_name:pool ~task_name:task
  | Wire.Fleet_release { pool; task; decided } ->
      eval_fleet_release t (executor site) ~pool_name:pool ~task_name:task
        ~decided

let response_ok = function Wire.Error _ -> false | _ -> true

(* Count the reply before handing it over, so a [stats] the client sends
   once it has the reply already includes it. *)
let record t ~shard ~start request response =
  Metrics.record t.metrics ~shard ~verb:(Wire.verb request)
    ~latency:(Clock.now () -. start)
    ~ok:(response_ok response)

let process t exec (job : job) =
  let response =
    if Clock.now () > job.deadline then begin
      count t exec Metrics.Deadlines 1;
      Wire.Error { code = Wire.Deadline; message = "expired in queue" }
    end
    else
      try eval t (Executor exec) job.request
      with exn ->
        Wire.Error { code = Wire.Internal; message = Printexc.to_string exn }
  in
  record t ~shard:exec.shard ~start:job.submitted job.request response;
  job.complete response

(* Annealing solves allocate heavily, and in a multi-domain runtime every
   minor collection is a stop-the-world handshake across all domains, so
   an executor's minor heap is 1M words (8 MB), four times the runtime
   default.  Peak RSS follows how much of that heap is touched between
   collections, and with replies encoded without [Printf] the event
   thread starts few of them, so the executor fills most of its heap.
   Against the 32 MB this replaced, one-domain cold solves peaked at 24
   instead of 44 MiB, with throughput, p99 and CPU per request inside
   run-to-run spread (pair by pair about 3% slower); 16 MB peaked at
   34 MiB with a 12% worse p99, and 2 MB at 18 MiB for 8% more CPU per
   request (docs/perf.md, "Reply encoding"). *)
let executor_minor_heap_words = 1024 * 1024

let executor_loop t exec =
  Gc.set { (Gc.get ()) with minor_heap_size = executor_minor_heap_words };
  let rec loop () =
    match Dispatch.pop t.queue ~shard:exec.shard with
    | None -> ()
    | Some (job, origin) ->
        if origin = `Stolen then count t exec Metrics.Steals 1;
        process t exec job;
        loop ()
  in
  loop ()

(* ---- lifecycle and submission -------------------------------------- *)

let create ?domains:(n_domains = recommended_domains ()) ?(queue_capacity = 256)
    ?deadline ?(num_buckets = Jq.Bucket.default_num_buckets)
    ?(session_cap = Session.Store.default_cap)
    ?(session_ttl = Session.Store.default_ttl) ?calib_config () =
  if n_domains <= 0 then invalid_arg "Service.create: domains <= 0";
  if queue_capacity <= 0 then invalid_arg "Service.create: queue_capacity <= 0";
  if num_buckets <= 0 then invalid_arg "Service.create: num_buckets <= 0";
  (match deadline with
  | Some d when d <= 0. || Float.is_nan d ->
      invalid_arg "Service.create: deadline <= 0"
  | _ -> ());
  let t =
    {
      registry = Registry.create ?calib_config ();
      metrics = Metrics.create ~shards:n_domains ();
      rows = Memo.create (row_memo_cap * n_domains);
      jq_memo = Memo.create (jq_memo_cap * n_domains);
      queue = Dispatch.create ~shards:n_domains ~capacity:queue_capacity;
      queue_capacity;
      n_domains;
      deadline;
      num_buckets;
      objective = Jsp.Annealing.default_objective ~num_buckets ();
      inline_rr = Atomic.make 0;
      session_stores =
        Array.init n_domains (fun _ ->
            store
              (Session.Store.create ~cap:session_cap ~ttl:session_ttl ())
              Session.Store.stats);
      fleet_stores =
        Array.init n_domains (fun _ -> store (Hashtbl.create 4) fleet_row);
      shutdown_lock = Mutex.create ();
      closed = false;
      workers = [];
    }
  in
  Metrics.add_gauges t.metrics ~gauges:(fun () -> session_gauges t);
  Metrics.add_gauges t.metrics ~gauges:(fun () -> fleet_gauges t);
  t.workers <-
    List.init n_domains (fun shard ->
        let exec =
          {
            shard;
            incs = Memo.create inc_cap;
            workspace = Jq.Workspace.create ();
            scores = Memo.create score_tables_cap;
          }
        in
        Domain.spawn (fun () -> executor_loop t exec));
  t

let enqueue t ~start request ~complete =
  let job =
    {
      request;
      submitted = start;
      deadline = (match t.deadline with Some d -> start +. d | None -> infinity);
      complete;
    }
  in
  (* Same-pool requests land on the same shard and its warm state;
     requests without a pool spread round-robin (any executor computes the
     identical reply). *)
  let affinity =
    match Wire.pool request with
    | Some name -> Hashtbl.hash name
    | None -> Atomic.fetch_and_add t.inline_rr 1
  in
  match Dispatch.push t.queue ~affinity job with
  | `Ok -> ()
  | `Closed ->
      let response =
        Wire.Error { code = Wire.Shutdown; message = "service draining" }
      in
      record t ~shard:(Metrics.submitter t.metrics) ~start request response;
      complete response
  | `Overload ->
      Metrics.overload t.metrics;
      complete
        (Wire.Error
           {
             code = Wire.Overload;
             message = Printf.sprintf "queue full (%d waiting)" t.queue_capacity;
           })

(* One submission path for both faces: a request is first evaluated on
   the calling thread, and answered (and [complete]d) there when that
   needs no executor and no lock another thread holds; otherwise it is
   enqueued with [complete] as its continuation.  [complete] is called
   exactly once — synchronously for inline replies, admission rejections
   and drain refusals, from an executor domain otherwise — and outside
   the handler, so a raising continuation is never also enqueued.  Inline
   replies, and the memo hits they tallied, are counted on the submitter
   shard; they keep answering while the service drains. *)
let dispatch t request ~complete =
  let start = Clock.now () in
  let caller = { hits = [] } in
  match eval t (Caller caller) request with
  | response ->
      let shard = Metrics.submitter t.metrics in
      List.iter (fun counter -> Metrics.add t.metrics ~shard counter 1) caller.hits;
      record t ~shard ~start request response;
      complete response
  | exception _ ->
      (* [Needs_executor], or a failure the executor reports as an
         internal error. *)
      enqueue t ~start request ~complete

let submit t request =
  let cell = Cell.create () in
  dispatch t request ~complete:(Cell.fill cell);
  Cell.await cell

let submit_async t request ~k = dispatch t request ~complete:k

let shutdown t =
  let workers =
    Mutex.protect t.shutdown_lock (fun () ->
        if t.closed then []
        else begin
          t.closed <- true;
          Dispatch.close t.queue;
          let w = t.workers in
          t.workers <- [];
          w
        end)
  in
  List.iter Domain.join workers
