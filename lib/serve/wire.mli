(** Line-delimited wire protocol for the jury-selection service.

    One request per line, one response per line, ASCII throughout — a
    protocol you can drive with [nc].  A request is a verb followed by
    space-separated [key=value] fields; a response line starts with [ok]
    or [err].  The full grammar lives in [docs/serving.md]; examples:

    {v
    jq q=0.9,0.6,0.6 prior=0.5,0.5 buckets=50
    jq pool=default alpha=0.5 buckets=50
    select pool=default budget=10 prior=0.3,0.7 seed=42
    table pool=default budgets=5,10,15 prior=0.2,0.5,0.3 seed=42
    pool-put name=default workers=0.9:3,0.6:1,0.8:2
    pool-put name=m3 workers=0.8;0.1;0.1;0.2;0.7;0.1;0.1;0.2;0.7:2,...
    pool-list
    stats
    ping
    open pool=default task=t1 alpha=0.5 budget=6 confidence=0.97 policy=gain
    vote pool=default task=t1 worker=0 label=1
    advise pool=default task=t1 k=3
    decide pool=default task=t1 truth=1
    close pool=default task=t1
    report pool=default votes=7:0:1,7:1:0:0,8:2:1
    quality pool=default
    recal pool=default
    fleet-submit pool=default task=f1 prior=0.3,0.7 budget=6 tier=0
    fleet-status pool=default task=f1
    fleet-release pool=default task=f1 decide=1
    v}

    Tasks are named by a prior vector [prior=p0,p1,…] over ℓ ≥ 2 labels
    (nonnegative, summing to 1 ±1e-9).  [alpha=x] is accepted on decode as
    sugar for the binary [prior=x,1−x] — the two keys are exclusive, and
    omitting both means the uniform binary prior.  Pool rows are either
    the scalar [quality:cost] or a flattened ℓ×ℓ row-stochastic confusion
    matrix [m00;m01;…;mkk:cost] (row major); one pool holds one worker
    model, so rows must agree in kind and ℓ.

    The codec is strict: {!decode_request} accepts exactly the values the
    service can serve (qualities, priors and matrix entries in [0, 1],
    matrix rows summing to 1, finite nonnegative costs and budgets,
    positive bucket counts, pool names over [A-Za-z0-9_.-]) and returns
    [Error] — never raises — on anything else, so a malformed line costs
    one reply, not a connection.  Floats are rendered
    shortest-round-trip, making [encode] and [decode] exact inverses on
    valid messages (a property test pins this; [alpha=] sugar is the one
    decode-only spelling). *)

(** Where a [jq] query gets its quality vector. *)
type source =
  | Inline of float list  (** Qualities carried in the request. *)
  | Named of string       (** A registered pool's qualities. *)

(** One worker row of a [pool-put]. *)
type pool_row =
  | Scalar of float * float
      (** (quality, cost) — the binary worker model. *)
  | Matrix_row of float array array * float
      (** (ℓ×ℓ row-stochastic confusion matrix, cost) — §7 workers. *)

type request =
  | Ping
  | Jq of { source : source; prior : float list; num_buckets : int }
  | Select of { pool : string; budget : float; prior : float list; seed : int }
  | Table of {
      pool : string;
      budgets : float list;
      prior : float list;
      seed : int;
    }
  | Pool_put of { name : string; workers : pool_row list }
      (** Rows of one kind; ids and names are assigned by position. *)
  | Pool_list
  | Stats
  | Session_open of {
      pool : string;
      task : string;
      prior : float list;
      budget : float;
      confidence : float;  (** Posterior threshold, in (1/ℓ, 1]. *)
      gain_floor : float;  (** 0 disables the marginal-gain floor. *)
      policy : Session.Policy.t;
    }
      (** Open a sequential session keyed by (pool, task id).  Task ids
          share the pool-name charset.  [confidence], [floor] and [policy]
          may be omitted ({!default_confidence}, 0, {!Session.Policy.default}). *)
  | Session_vote of { pool : string; task : string; worker : int; label : int }
      (** Feed one vote: positional worker index, label in [0, ℓ). *)
  | Session_advise of { pool : string; task : string; k : int }
      (** The top-[k] workers to ask next (no state change; [k] defaults
          to 1 and may be omitted on the wire). *)
  | Session_decide of { pool : string; task : string; truth : int option }
      (** Force a terminal decision now.  With [truth=] the session closes
          as a gold example: its votes feed the pool's calibrator carrying
          the ground-truth label. *)
  | Session_close of { pool : string; task : string }
      (** Drop the session, freeing its store slot. *)
  | Report of { pool : string; votes : Workers.Calib.vote list }
      (** Ingest a batch of (task, worker, label[, truth]) votes into the
          pool's streaming calibrator. *)
  | Quality of { pool : string }
      (** Per-worker quality readback. *)
  | Recal of { pool : string }
      (** Force a full calibration step now. *)
  | Fleet_submit of {
      pool : string;
      task : string;
      prior : float list;
      budget : float;
      tier : int;     (** Priority tier, 0 = highest ([tier=] defaults to 0). *)
      target : float; (** Soft quality target in [0, 1]; 0 = none. *)
    }
      (** Admit a task into the pool's shared-pool fleet allocator and
          answer with its assigned jury.  Task ids share the pool-name
          charset; [prior]/[alpha], [tier] and [target] may be omitted. *)
  | Fleet_status of { pool : string; task : string option }
      (** Without [task=]: the pool's allocator summary.  With it: that
          task's current assignment (read-only either way). *)
  | Fleet_release of { pool : string; task : string; decided : bool }
      (** Remove a task (its decision made when [decide=1], withdrawn
          otherwise), free its jury and delta re-solve the neighbours. *)

type error_code =
  | Bad_request      (** Unparseable or invalid request line. *)
  | Unknown_pool     (** Named pool not in the registry. *)
  | Unknown_session  (** No live session under (pool, task): never opened,
                         closed, idle-expired, or invalidated by a pool
                         version bump. *)
  | Unknown_task     (** No resident fleet task under (pool, task). *)
  | Overload         (** Admission control refused: queue or session store full. *)
  | Deadline         (** The request expired before an executor reached it. *)
  | Shutdown         (** The service is draining. *)
  | Internal         (** Executor failure (bug or resource trouble). *)

(** Lifecycle position reported by a session reply. *)
type session_state =
  | Sess_open       (** Soliciting: votes accepted, advice available. *)
  | Sess_decided    (** Terminal with an answer. *)
  | Sess_exhausted  (** Terminal: budget/pool ran out before confidence. *)
  | Sess_closed     (** Reply to [close]: the session is gone. *)

type table_row = {
  budget : float;
  ids : int list;     (** Selected worker ids, in pool order. *)
  quality : float;
  required : float;
}

type response =
  | Pong
  | Jq_result of { value : float; error_bound : float; n : int }
  | Select_result of { ids : int list; score : float; cost : float }
  | Table_result of table_row list
  | Pool_info of { name : string; version : int; size : int }
  | Pool_entries of (string * int * int) list
      (** (name, version, size), sorted by name. *)
  | Stats_result of (string * float) list
      (** Metric (key, value) pairs, sorted by key. *)
  | Session_result of {
      pool : string;
      task : string;
      state : session_state;
      posterior : float list;   (** Normalized, one entry per label. *)
      votes : int;
      spent : float;
      next : int option;        (** Policy advice while [Sess_open]. *)
      advice : int list;        (** Top-K advice — [advise k=K] fills K
                                    entries, other verbs at most one
                                    (equal to [next]). *)
      decision : int option;    (** Argmax label once terminal. *)
      certified : bool;         (** Decision provably cannot flip. *)
      reason : Session.Stopping.reason option;  (** Why it stopped. *)
    }
      (** Every session verb answers with the full session snapshot, so
          clients never need a follow-up read. *)
  | Report_result of {
      name : string;
      version : int;   (** Pool version after the call — bumped iff the
                           batch was applied. *)
      applied : int;   (** Votes folded in now (0 = buffered for later). *)
      pending : int;   (** Votes awaiting the next calibration step. *)
      drifted : int list;  (** Workers flagged by the drift detector. *)
      stale : bool;    (** Standing juries predate a drift flag. *)
      recals : int;    (** Standing juries re-selected by this call. *)
    }
  | Quality_result of {
      name : string;
      version : int;
      workers : (int * float * int) list;
          (** (worker id, quality, votes seen) in pool order. *)
    }
  | Fleet_task of {
      pool : string;
      task : string;
      jury : int list;   (** Assigned pool positions ([] when starved). *)
      score : float;     (** JQ estimate for the task's prior. *)
      cost : float;      (** True cost of the jury. *)
      tier : int;
    }
      (** Reply to [fleet-submit] and per-task [fleet-status]. *)
  | Fleet_summary of {
      pool : string;
      version : int;     (** Pool version the allocator is synced to. *)
      epoch : int;       (** Price epoch (bumps whenever a price moves). *)
      tasks : int;       (** Resident tasks. *)
      assigned : int;    (** Resident tasks holding a nonempty jury. *)
      claimed : int;     (** Pool positions currently on some jury. *)
      priced : int;      (** Positions carrying a nonzero contention price. *)
      aggregate : float; (** Tier-weighted deviation-soft aggregate utility. *)
    }
      (** Reply to pool-level [fleet-status]. *)
  | Fleet_released of { pool : string; task : string; freed : int }
      (** Reply to [fleet-release]: [freed] jury seats returned to the
          pool. *)
  | Error of { code : error_code; message : string }

val valid_pool_name : string -> bool
(** Nonempty, at most 64 chars, all in [A-Za-z0-9_.-]. *)

val error_code_to_string : error_code -> string
(** The wire token, e.g. [Bad_request] ↦ ["bad-request"]. *)

val encode_request : request -> string
(** One line, without the trailing newline. *)

val verb : request -> string
(** The verb token the request's line starts with, e.g. ["fleet-status"]:
    the [<verb>] of the [req_<verb>] stats keys. *)

val pool : request -> string option
(** The request's [pool=] value — what the service routes it by — or
    [None] for ping, stats, pool-list, pool-put and inline [jq]. *)

val default_prior : float list
(** [[0.5; 0.5]] — the binary uniform prior assumed when a request names
    neither [prior=] nor [alpha=]. *)

val default_confidence : float
(** 0.95 — the posterior threshold assumed when [open] omits
    [confidence=]. *)

val session_state_to_string : session_state -> string
(** The wire token, e.g. [Sess_open] ↦ ["open"]. *)

val decode_request : string -> (request, string) result
(** Strict parse of one request line.  [prior]/[alpha], [buckets] and
    [seed] may be omitted (defaults {!default_prior},
    {!Jq.Bucket.default_num_buckets}, 42); all other fields of a verb are
    mandatory, unknown or duplicate keys are errors.  Never raises. *)

val float_to_string : float -> string
(** How every float goes on the wire: [%.12g] when that parses back to the
    same float, else [%.17g].  Renderings are memoized by bit pattern in a
    fixed table shared by all domains. *)

val float_slot : float -> int
(** The memo slot that keeps a float's rendering, for tests that force
    floats to share one. *)

val encode_response : response -> string
(** One line, without the trailing newline, written into a buffer of its
    own. *)

val decode_response : string -> (response, string) result
(** Inverse of {!encode_response} (used by clients: load generator,
    integration tests).  Never raises. *)
