(* Seeded request scripts.  A script is a pure function of (workload,
   seed), and the daemon only ever sees its encoded lines.

   Each workload has a fixed request count per connection, never a time
   budget, so quality figures and masked replies repeat exactly for a
   given seed.  The sizes below keep one script round between one and two
   seconds on a 2-vCPU host, so a 30-second run holds 14-40 rounds. *)

module W = Serve.Wire

type workload = Warm_reads | Cold_solve | Write_churn

let workloads = [ Warm_reads; Cold_solve; Write_churn ]

let name = function
  | Warm_reads -> "warm-reads"
  | Cold_solve -> "cold-solve"
  | Write_churn -> "write-churn"

let of_name s = List.find_opt (fun w -> name w = s) workloads

(* A reply-driven adaptive conversation: open, then [advise k=3] and vote
   down the advised workers until the session leaves the open state, then
   [close].  A session still open when its advice runs out is ended with a
   gold [decide truth=] before the close.  [labels.(w)] is the vote worker
   [w] casts when asked, drawn once from its generating quality, so the
   conversation depends only on the daemon's (deterministic) replies. *)
type session = {
  pool : string;
  task : string;
  truth : int;
  budget : float;
  labels : int array;
}

type step = Line of string | Session of session

type t = {
  workload : workload;
  seed : int;
  setup : string list;  (** Sent in order on the first connection. *)
  conns : step array array;  (** One closed-loop script per connection. *)
  final : string list;  (** Untimed readback after the script. *)
  qualities : (string * float array) list;
      (** Generating quality of every worker, per pool. *)
}

let connections = 2

(* Pools follow the paper's Gaussian generator (§6.1.1) with lower, tighter
   qualities than its defaults: with [quality_mu] 0.7 and the loadgen
   budget of 12 almost the whole pool is bought and every jury scores 1.0.
   Here budgets of 0.5-4 against a total pool cost of 11-14 bind, and the
   mean jury JQ of each workload stays near 0.9. *)
let params =
  {
    Workers.Generator.default with
    quality_mu = 0.62;
    quality_sigma = 0.1;
    quality_hi = 0.9;
  }

let binary_prior = [ 0.5; 0.5 ]

(* Algorithm-1 resolution of the daemon's select/table scoring. *)
let buckets = Jq.Bucket.default_num_buckets

(* Resolution of [jq] requests: fine enough that the certified error bound
   (0.03-0.11 here) says something; at the default 50 buckets a 40-worker
   pool's bound exceeds 1. *)
let jq_buckets = 400
let pool_size = 40
let matrix_pool_size = 12
let matrix_labels = 3
let fleet_depth = 8

let tag = function Warm_reads -> 1 | Cold_solve -> 2 | Write_churn -> 3
let rng_for workload seed = Prob.Rng.create ((seed * 7919) + tag workload)

(* The pools are the same for every seed; the seed drives everything sent
   to them (keys, budgets, solver seeds, request order, votes, truths).
   Drawn per seed, the pools alone moved the daemon's work per request by
   16-22% (quartile spread over ten seeds, best of three passes each), more
   than the bounds this benchmark must hold. *)
let pool_rng workload = Prob.Rng.create (104729 * tag workload)

let round2 x = Float.round (x *. 100.) /. 100.

(* Budgets are shares of the pool's total cost, so every pool buys juries
   of similar size. *)
let cost_share pool share = round2 (Workers.Pool.total_cost pool *. share)
let budget rng pool lo hi = cost_share pool (lo +. Prob.Rng.float rng (hi -. lo))

let scalar_put name pool =
  W.encode_request
    (W.Pool_put
       {
         name;
         workers =
           List.map
             (fun w -> W.Scalar (Workers.Worker.quality w, Workers.Worker.cost w))
             (Workers.Pool.to_list pool);
       })

(* The loadgen's matrix model: each worker reports the truth with its
   scalar quality and spreads the rest evenly over the other labels. *)
let matrix_put name pool =
  let labels = matrix_labels in
  W.encode_request
    (W.Pool_put
       {
         name;
         workers =
           List.map
             (fun w ->
               let d = Workers.Worker.quality w in
               let off = (1. -. d) /. float_of_int (labels - 1) in
               W.Matrix_row
                 ( Array.init labels (fun j ->
                       Array.init labels (fun v -> if j = v then d else off)),
                   Workers.Worker.cost w ))
             (Workers.Pool.to_list pool);
       })

let select pool ?(prior = binary_prior) budget seed =
  W.encode_request (W.Select { pool; budget; prior; seed })

let table pool budgets seed =
  W.encode_request (W.Table { pool; budgets; prior = binary_prior; seed })

let jq_pool pool =
  W.encode_request
    (W.Jq { source = W.Named pool; prior = binary_prior; num_buckets = jq_buckets })

let quality pool = W.encode_request (W.Quality { pool })

let fleet_submit pool task budget tier =
  W.encode_request
    (W.Fleet_submit { pool; task; prior = binary_prior; budget; tier; target = 0. })

(* Whether successive votes of a worker of quality [q] are correct: every
   block of 20 draws holds floor(20 q + u) correct ones, u uniform in
   [0, 1), in shuffled order, so the worker is right with probability [q]
   and its realised accuracy stays close to [q] in every stretch.  With
   independent draws, write-churn's requests per round, which follow its
   session lengths, moved by 13% (quartile spread over ten seeds); with
   these, by 3.5%. *)
let correct_stream rng q =
  let deck = 20 in
  let cards = Array.make deck false and next = ref deck in
  fun () ->
    if !next = deck then begin
      let k = int_of_float ((float_of_int deck *. q) +. Prob.Rng.float rng 1.) in
      Array.iteri (fun i _ -> cards.(i) <- i < k) cards;
      Prob.Rng.shuffle rng cards;
      next := 0
    end;
    let correct = cards.(!next) in
    incr next;
    correct

(* Each workload spreads its traffic over several pools, and each kind of
   request comes in a fixed proportion: every block of a schedule holds
   each kind exactly as often as listed, in a seeded order.  With one pool
   per workload and kinds drawn independently, the number of expensive
   requests (fleet re-solves after a version bump, say) and the pool
   draws moved the work per request by 15-30% from seed to seed. *)
let pools_per_conn = 4

let pool_names prefix c = Array.init pools_per_conn (Printf.sprintf "%s%d-%d" prefix c)

(* [f name pool] over every connection's pools, connection by connection. *)
let across names pools f =
  List.concat
    (Array.to_list
       (Array.map2 (fun ns ps -> Array.to_list (Array.map2 f ns ps)) names pools))

(* [n] items from repeated, independently shuffled copies of [block]. *)
let schedule rng block n =
  let out = Array.make n block.(0) in
  let b = Array.copy block in
  for i = 0 to n - 1 do
    let j = i mod Array.length b in
    if j = 0 then Prob.Rng.shuffle rng b;
    out.(i) <- b.(j)
  done;
  out

let indices n = Array.init n Fun.id

(* Successive shares in [lo, hi): every run of [strata] draws takes one
   value from each [strata]-th of the range, in shuffled order, so each
   stretch of a script covers the range evenly. *)
let share_stream ?(strata = 10) rng ~lo ~hi =
  let order = indices strata and next = ref strata in
  fun () ->
    if !next = strata then begin
      Prob.Rng.shuffle rng order;
      next := 0
    end;
    let j = order.(!next) in
    incr next;
    lo +. ((hi -. lo) *. (float_of_int j +. Prob.Rng.float rng 1.) /. float_of_int strata)

(* Fleet budgets span the same binding range as the other requests'.  The
   eight resident tasks of a pool then ask for more than its total cost
   and compete for workers, and their juries are large enough for the
   allocator's version-seeded annealing (see NOTES.md) to show in the
   replies. *)
let fleet_lo = 0.04
let fleet_hi = 0.3

(* warm-reads: both connections replay keys primed in set-up on shared
   pools.  Two thirds of the requests are select/table replays (annealing
   reruns against the warm score memo); the rest are pool-jq memo hits,
   quality readbacks and per-task fleet-status reads.  Each pool has 5
   select keys and 1 two-row table key: 28 score memos in all, within the
   executor's 32-memo cap. *)
let warm_reads ~seed ~requests =
  let rng = rng_for Warm_reads seed and prng = pool_rng Warm_reads in
  let names = pool_names "wr" 0 in
  let pools =
    Array.map (fun _ -> Workers.Generator.gaussian_pool prng params pool_size) names
  in
  (* The primed keys come with the pools: a replay's cost follows its
     annealing path, and with keys drawn per seed the mean replay cost of
     one seed stood 15% off the others'.  The seed orders the replays. *)
  let key () = Prob.Rng.int prng 1_000_000 in
  let keys =
    Array.map2
      (fun p pool ->
        let selects =
          List.init 5 (fun i ->
              let lo = 0.04 +. (0.044 *. float_of_int i) in
              select p (budget prng pool lo (lo +. 0.044)) (key ()))
        in
        selects
        @ [ table p [ budget prng pool 0.06 0.13; budget prng pool 0.16 0.26 ] (key ()) ])
      names pools
  in
  let replays = Array.of_list (List.concat (Array.to_list keys)) in
  let fleet_pool = names.(0) in
  let tasks = Array.init fleet_depth (Printf.sprintf "f%d") in
  let fleet_share = share_stream rng ~lo:fleet_lo ~hi:fleet_hi in
  let submits =
    Array.to_list
      (Array.mapi
         (fun i task ->
           fleet_submit fleet_pool task (cost_share pools.(0) (fleet_share ())) (i mod 3))
         tasks)
  in
  let status task =
    W.encode_request (W.Fleet_status { pool = fleet_pool; task = Some task })
  in
  let conn () =
    let kinds = schedule rng [| `R; `R; `R; `R; `R; `R; `J; `Q; `F |] requests in
    let replay = schedule rng replays requests in
    let pool = schedule rng names requests in
    let task = schedule rng tasks requests in
    Array.mapi
      (fun i -> function
        | `R -> Line replay.(i)
        | `J -> Line (jq_pool pool.(i))
        | `Q -> Line (quality pool.(i))
        | `F -> Line (status task.(i)))
      kinds
  in
  let conns = Array.init connections (fun _ -> conn ()) in
  let all f = across [| names |] [| pools |] f in
  {
    workload = Warm_reads;
    seed;
    setup =
      all scalar_put @ Array.to_list replays @ all (fun n _ -> jq_pool n) @ submits;
    conns;
    final = [];
    qualities = all (fun n p -> (n, Workers.Pool.qualities p));
  }

(* cold-solve: every request carries a key never seen before (a fresh
   solver seed, a fresh budget or a fresh quality vector), so each one runs
   Algorithms 1-4 or the §7 estimator anew: 40% selects and 20%
   two-row tables on scalar pools, 20% selects on 3-label matrix pools and
   20% inline jq over 30 qualities. *)
let cold_solve ~seed ~requests =
  let rng = rng_for Cold_solve seed and prng = pool_rng Cold_solve in
  let scalar = Array.init connections (pool_names "cs") in
  let matrix = Array.init connections (pool_names "cm") in
  let draw size =
    Array.map (Array.map (fun _ -> Workers.Generator.gaussian_pool prng params size))
  in
  let scalar_pools = draw pool_size scalar
  and matrix_pools = draw matrix_pool_size matrix in
  let matrix_prior =
    List.init matrix_labels (fun _ -> 1. /. float_of_int matrix_labels)
  in
  let fresh_seed = ref (Prob.Rng.int rng 1_000_000) in
  let next_seed () =
    incr fresh_seed;
    !fresh_seed
  in
  let inline_qualities () =
    List.init 30 (fun _ ->
        let q =
          Prob.Rng.gaussian rng ~mu:params.quality_mu ~sigma:params.quality_sigma
        in
        Float.round (Float.min 0.9 (Float.max 0.5 q) *. 1e4) /. 1e4)
  in
  let conn c =
    let kinds = schedule rng [| `S; `S; `S; `S; `T; `T; `M; `M; `J; `J |] requests in
    let ks = schedule rng (indices pools_per_conn) requests in
    let select_share = share_stream rng ~lo:0.04 ~hi:0.3
    and low_row = share_stream rng ~lo:0.04 ~hi:0.15
    and high_row = share_stream rng ~lo:0.15 ~hi:0.3
    and matrix_share = share_stream rng ~lo:0.1 ~hi:0.5 in
    Array.mapi
      (fun i kind ->
        let k = ks.(i) in
        let name = scalar.(c).(k) and pool = scalar_pools.(c).(k) in
        match kind with
        | `S -> Line (select name (cost_share pool (select_share ())) (next_seed ()))
        | `T ->
            let low = cost_share pool (low_row ()) in
            let high = cost_share pool (high_row ()) in
            Line (table name [ low; high ] (next_seed ()))
        | `M ->
            Line
              (select matrix.(c).(k) ~prior:matrix_prior
                 (cost_share matrix_pools.(c).(k) (matrix_share ()))
                 (next_seed ()))
        | `J ->
            Line
              (W.encode_request
                 (W.Jq
                    {
                      source = W.Inline (inline_qualities ());
                      prior = binary_prior;
                      num_buckets = jq_buckets;
                    })))
      kinds
  in
  let conns = Array.init connections conn in
  {
    workload = Cold_solve;
    seed;
    setup =
      across scalar scalar_pools scalar_put @ across matrix matrix_pools matrix_put;
    conns;
    final = [];
    qualities = [];
  }

(* write-churn: each connection owns its pools and mixes adaptive sessions
   (30% of actions, on all but the first pool), report batches of 8 votes
   with a quarter gold (30%), fleet submit/release keeping [fleet_depth]
   tasks resident on its first pool (20%), and jq and select reads that
   miss the caches after every version bump (10% each).  A final untimed
   quality readback measures how far calibration moved from the
   generating qualities. *)
let write_churn ~seed ~actions =
  let rng = rng_for Write_churn seed and prng = pool_rng Write_churn in
  let names = Array.init connections (pool_names "wc") in
  let pools =
    Array.map
      (Array.map (fun _ -> Workers.Generator.gaussian_pool prng params pool_size))
      names
  in
  let conn c =
    (* Each pool has two select keys, read in turn, and the connection's
       eight budgets take one value from each eighth of their range.  Drawn
       independently and picked at random, the keys moved jury_jq_mean by
       1.6% (quartile spread over ten seeds), half its bound. *)
    let select_share = share_stream ~strata:8 rng ~lo:0.05 ~hi:0.2 in
    let keys =
      Array.map2
        (fun p pool ->
          Array.init 2 (fun _ ->
              select p (cost_share pool (select_share ())) (Prob.Rng.int rng 1_000_000)))
        names.(c) pools.(c)
    in
    let next_key = Array.make pools_per_conn 0 in
    (* Session and report votes of each worker come from one stream. *)
    let streams =
      Array.map
        (fun pool -> Array.map (correct_stream rng) (Workers.Pool.qualities pool))
        pools.(c)
    in
    let vote k worker truth = if streams.(k).(worker) () then truth else 1 - truth in
    let sessions = ref 0 and fleet_seq = ref 0 in
    let resident = Queue.create () in
    let fleet_pool = names.(c).(0) in
    let fleet_share = share_stream rng ~lo:fleet_lo ~hi:fleet_hi in
    let steps = ref [] in
    let emit s = steps := s :: !steps in
    let submit () =
      incr fleet_seq;
      let task = Printf.sprintf "t%d-%d" c !fleet_seq in
      Queue.push task resident;
      emit
        (Line
           (fleet_submit fleet_pool task
              (cost_share pools.(c).(0) (fleet_share ()))
              (!fleet_seq mod 3)))
    in
    let kinds =
      schedule rng
        [| `Sess; `Sess; `Sess; `Rep; `Rep; `Rep; `Fleet; `Fleet; `Jq; `Sel |]
        actions
    in
    (* Sessions stay off the fleet pool: the votes of a decided session
       feed calibration, and every batch applied to the fleet pool costs a
       full fleet re-solve (tens of milliseconds).  With only the fixed-size
       report batches landing there, each round makes the same number of
       them whatever the seed; with sessions there too, their count and
       with it the daemon's CPU per request moved by 10% between seeds. *)
    let ks = schedule rng (indices pools_per_conn) actions in
    let session_ks =
      schedule rng (Array.sub (indices pools_per_conn) 1 (pools_per_conn - 1)) actions
    in
    Array.iteri
      (fun i kind ->
        let k = if kind = `Sess then session_ks.(i) else ks.(i) in
        let p = names.(c).(k) in
        match kind with
        | `Sess ->
            incr sessions;
            let truth = Prob.Rng.int rng 2 in
            emit
              (Session
                 {
                   pool = p;
                   task = Printf.sprintf "s%d-%d" c !sessions;
                   truth;
                   budget = budget rng pools.(c).(k) 0.12 0.25;
                   labels = Array.init pool_size (fun w -> vote k w truth);
                 })
        | `Rep ->
            let votes =
              List.init 8 (fun _ ->
                  let task = Prob.Rng.int rng 4096 in
                  let worker = Prob.Rng.int rng pool_size in
                  let truth = Prob.Rng.int rng 2 in
                  let label = vote k worker truth in
                  let gold = Prob.Rng.float rng 1. < 0.25 in
                  {
                    Workers.Calib.task;
                    worker;
                    label;
                    truth = (if gold then Some truth else None);
                  })
            in
            emit (Line (W.encode_request (W.Report { pool = p; votes })))
        | `Fleet ->
            if Queue.length resident >= fleet_depth then
              emit
                (Line
                   (W.encode_request
                      (W.Fleet_release
                         {
                           pool = fleet_pool;
                           task = Queue.pop resident;
                           decided = true;
                         })));
            submit ()
        | `Jq -> emit (Line (jq_pool p))
        | `Sel ->
            let i = next_key.(k) in
            next_key.(k) <- i + 1;
            emit (Line keys.(k).(i mod Array.length keys.(k))))
      kinds;
    Array.of_list (List.rev !steps)
  in
  let conns = Array.init connections conn in
  {
    workload = Write_churn;
    seed;
    setup = across names pools scalar_put;
    conns;
    final = across names pools (fun n _ -> quality n);
    qualities = across names pools (fun n p -> (n, Workers.Pool.qualities p));
  }

(* Cold-solve's p99 is set by the few heaviest solves of its script: at
   600 requests per connection, one seed's p99 stood 20-25% above
   another's in every run. *)
let generate workload ~seed =
  match workload with
  | Warm_reads -> warm_reads ~seed ~requests:1500
  | Cold_solve -> cold_solve ~seed ~requests:1200
  | Write_churn -> write_churn ~seed ~actions:400

let sessions t =
  Array.fold_left
    (Array.fold_left (fun n -> function Session _ -> n + 1 | Line _ -> n))
    0 t.conns

(* ---- session conversations ----------------------------------------- *)

let open_line s =
  W.encode_request
    (W.Session_open
       {
         pool = s.pool;
         task = s.task;
         prior = binary_prior;
         budget = s.budget;
         confidence = W.default_confidence;
         gain_floor = 0.;
         policy = Session.Policy.default;
       })

let advise_line s =
  W.encode_request (W.Session_advise { pool = s.pool; task = s.task; k = 3 })

let vote_line s w =
  W.encode_request
    (W.Session_vote
       { pool = s.pool; task = s.task; worker = w; label = s.labels.(w) })

let decide_line s =
  W.encode_request
    (W.Session_decide { pool = s.pool; task = s.task; truth = Some s.truth })

let close_line s =
  W.encode_request (W.Session_close { pool = s.pool; task = s.task })

type phase = Opening | Advising | Voting of int list | Deciding | Closing

(* Walks one connection's steps.  [start] gives the first request line;
   [advance] takes the reply to the last line and gives the next one, or
   [None] when the script is done.  The TCP client and the in-process
   reference replay both drive scripts through this, so they send the same
   lines whenever they receive the same replies.

   A session that a vote ended has already fed its votes to calibration,
   so a [decide truth=] after it would add nothing, and the conversation
   closes it as the protocol's own example does.  [~probe:true] sends that
   [decide truth=] anyway: it is answered [err unknown-session] exactly
   when the deciding vote invalidated its own session (see NOTES.md). *)
type cursor = {
  steps : step array;
  probe : bool;
  mutable pos : int;
  mutable phase : phase;
  mutable turns : int;
}

let cursor ?(probe = false) steps = { steps; probe; pos = 0; phase = Opening; turns = 0 }

let rec begin_step c =
  if c.pos >= Array.length c.steps then None
  else
    match c.steps.(c.pos) with
    | Line l -> Some l
    | Session s ->
        c.phase <- Opening;
        c.turns <- 0;
        Some (open_line s)

and next_step c =
  c.pos <- c.pos + 1;
  begin_step c

let start = begin_step

(* Advice of a reply that leaves the session open, [None] otherwise. *)
let open_advice reply =
  match W.decode_response reply with
  | Ok (W.Session_result { state = W.Sess_open; advice; _ }) -> Some advice
  | _ -> None

let session_next c s reply =
  let decide () =
    c.phase <- Deciding;
    Some (decide_line s)
  in
  let advise () =
    c.turns <- c.turns + 1;
    if c.turns > Array.length s.labels then decide ()
    else begin
      c.phase <- Advising;
      Some (advise_line s)
    end
  in
  let vote w rest =
    c.phase <- Voting rest;
    Some (vote_line s w)
  in
  let close () =
    c.phase <- Closing;
    Some (close_line s)
  in
  match c.phase with
  | Deciding -> close ()
  | Closing -> None
  | (Opening | Advising | Voting _) as phase -> (
      match (open_advice reply, phase) with
      | None, _ -> if c.probe then decide () else close ()
      | Some _, Opening | Some _, Voting [] -> advise ()
      | Some (w :: rest), Advising | Some _, Voting (w :: rest) -> vote w rest
      | Some [], Advising -> decide ()
      | Some _, (Deciding | Closing) -> assert false)

let advance c reply =
  match c.steps.(c.pos) with
  | Line _ -> next_step c
  | Session s -> (
      match session_next c s reply with Some l -> Some l | None -> next_step c)
