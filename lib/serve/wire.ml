(* Hand-rolled line codec.  Requests and responses are single ASCII lines:
   a verb (or ok/err marker) followed by space-separated key=value fields.
   Composite values use one-character sub-separators that cannot occur in
   the atoms they join: ',' between list elements, ':' inside worker and
   pool rows, '@' inside table rows, '.' between ids (ids are integers, so
   '.' is free).  Empty lists render as "-".

   Everything decodes with explicit (_, string) result — a service must
   answer a malformed line with [err bad-request ...], never die on it. *)

type source = Inline of float list | Named of string

type pool_row =
  | Scalar of float * float
  | Matrix_row of float array array * float

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
  | Pool_list
  | Stats
  | Session_open of {
      pool : string;
      task : string;
      prior : float list;
      budget : float;
      confidence : float;
      gain_floor : float;
      policy : Session.Policy.t;
    }
  | Session_vote of { pool : string; task : string; worker : int; label : int }
  | Session_advise of { pool : string; task : string; k : int }
  | Session_decide of { pool : string; task : string; truth : int option }
  | Session_close of { pool : string; task : string }
  | Report of { pool : string; votes : Workers.Calib.vote list }
  | Quality of { pool : string }
  | Recal of { pool : string }
  | Fleet_submit of {
      pool : string;
      task : string;
      prior : float list;
      budget : float;
      tier : int;
      target : float;
    }
  | Fleet_status of { pool : string; task : string option }
  | Fleet_release of { pool : string; task : string; decided : bool }

type error_code =
  | Bad_request
  | Unknown_pool
  | Unknown_session
  | Unknown_task
  | Overload
  | Deadline
  | Shutdown
  | Internal

type table_row = {
  budget : float;
  ids : int list;
  quality : float;
  required : float;
}

type session_state = Sess_open | Sess_decided | Sess_exhausted | Sess_closed

type response =
  | Pong
  | Jq_result of { value : float; error_bound : float; n : int }
  | Select_result of { ids : int list; score : float; cost : float }
  | Table_result of table_row list
  | Pool_info of { name : string; version : int; size : int }
  | Pool_entries of (string * int * int) list
  | Stats_result of (string * float) list
  | Session_result of {
      pool : string;
      task : string;
      state : session_state;
      posterior : float list;
      votes : int;
      spent : float;
      next : int option;
      advice : int list;
      decision : int option;
      certified : bool;
      reason : Session.Stopping.reason option;
    }
  | Report_result of {
      name : string;
      version : int;
      applied : int;
      pending : int;
      drifted : int list;
      stale : bool;
      recals : int;
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
      jury : int list;
      score : float;
      cost : float;
      tier : int;
    }
  | Fleet_summary of {
      pool : string;
      version : int;
      epoch : int;
      tasks : int;
      assigned : int;
      claimed : int;
      priced : int;
      aggregate : float;
    }
  | Fleet_released of { pool : string; task : string; freed : int }
  | Error of { code : error_code; message : string }

(* ---- atoms --------------------------------------------------------- *)

let valid_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '-'

let valid_pool_name s =
  String.length s > 0 && String.length s <= 64 && String.for_all valid_name_char s

(* ---- floats -------------------------------------------------------- *)

(* The C primitive [Printf.sprintf "%.12g"] ends in, called without the
   format interpreter: the same bytes for every float. *)
external format_float : string -> float -> string = "caml_format_float"

(* [%.12g] when that parses back to the same float, else [%.17g]. *)
let render f =
  let s = format_float "%.12g" f in
  if float_of_string s = f then s else format_float "%.17g" f

(* Replies repeat the same floats (memo-row scores and costs, a pool
   version's published quality rows, jq memo values), so renderings are
   kept in a direct-mapped memo keyed by all 64 bits.  Each slot holds one
   immutable record and is replaced whole, so a reader on any domain sees
   the old record or the new one, never a torn pair; an empty slot is
   [None], since 0.0 has bits 0. *)
type rendered = { bits : int64; text : string }

let memo_bits = 12
let memo : rendered option array = Array.make (1 lsl memo_bits) None

(* The top bits of a 64-bit mix (murmur3's finaliser): indexing by the low
   bits alone would put 0.5, 1.0, 2.0 and every other short-mantissa float
   in one slot. *)
let[@inline] slot_of_bits x =
  let open Int64 in
  let x = mul (logxor x (shift_right_logical x 33)) 0xff51afd7ed558ccdL in
  let x = mul (logxor x (shift_right_logical x 33)) 0xc4ceb9fe1a85ec53L in
  to_int (shift_right_logical x (64 - memo_bits))

let float_slot f = slot_of_bits (Int64.bits_of_float f)

let float_to_string f =
  let bits = Int64.bits_of_float f in
  let i = slot_of_bits bits in
  match Array.unsafe_get memo i with
  | Some r when Int64.equal r.bits bits -> r.text
  | _ ->
      let text = render f in
      Array.unsafe_set memo i (Some { bits; text });
      text

let ( let* ) = Result.bind

(* The [response] constructor [Error] shadows [result]'s from here on;
   [fail] keeps the parsing helpers on the stdlib one. *)
let fail msg = Stdlib.Error msg

(* The number grammar of docs/serving.md, checked in one pass before the
   stdlib converts a token: integers are [-?digits], floats
   [-?digits(.digits)?([eE][+-]?digits)?].  The converters alone would
   also take OCaml's own spellings (0x10, 0b101, 0o17, +5, 1_000, .5,
   0x1p3) and leading whitespace.  The scan runs on every number the
   daemon decodes, so it reads each byte once, with no call per byte. *)
let skip_digits s i =
  let i = ref i in
  while
    !i < String.length s
    &&
    let c = String.unsafe_get s !i in
    c >= '0' && c <= '9'
  do
    incr i
  done;
  !i

let is_number ~float s =
  let n = String.length s in
  let at i c = i < n && String.unsafe_get s i = c in
  let first = if at 0 '-' then 1 else 0 in
  let i = skip_digits s first in
  if i = first then false
  else if not float then i = n
  else
    let i =
      if at i '.' then
        let j = skip_digits s (i + 1) in
        if j = i + 1 then n + 1 (* a dot needs digits after it *) else j
      else i
    in
    if at i 'e' || at i 'E' then
      let i = if at (i + 1) '+' || at (i + 1) '-' then i + 2 else i + 1 in
      let j = skip_digits s i in
      j > i && j = n
    else i = n

let parse_float what s =
  match if is_number ~float:true s then float_of_string_opt s else None with
  | Some f when Float.is_finite f -> Ok f
  | _ -> fail (Printf.sprintf "%s: not a finite number: %S" what s)

let parse_prob what s =
  let* f = parse_float what s in
  if f < 0. || f > 1. then
    fail (Printf.sprintf "%s: %s outside [0, 1]" what (float_to_string f))
  else Ok f

let parse_nonneg what s =
  let* f = parse_float what s in
  if f < 0. then fail (Printf.sprintf "%s: must be nonnegative" what) else Ok f

let parse_int what s =
  match if is_number ~float:false s then int_of_string_opt s else None with
  | Some i -> Ok i
  | None -> fail (Printf.sprintf "%s: not an integer: %S" what s)

let parse_positive_int what s =
  let* i = parse_int what s in
  if i <= 0 then fail (Printf.sprintf "%s: must be positive" what) else Ok i

let parse_nonneg_int what s =
  let* i = parse_int what s in
  if i < 0 then fail (Printf.sprintf "%s: must be nonnegative" what) else Ok i

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let parse_list what ~sep parse s =
  if s = "-" then Ok []
  else if s = "" then fail (Printf.sprintf "%s: empty" what)
  else map_result parse (String.split_on_char sep s)

let parse_nonempty_list what ~sep parse s =
  let* xs = parse_list what ~sep parse s in
  if xs = [] then fail (Printf.sprintf "%s: empty list" what) else Ok xs

let list_to_string ~sep to_string = function
  | [] -> "-"
  | xs -> String.concat sep (List.map to_string xs)

(* A %-escape is exactly two hex digits. *)
let hex_digit c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then Ok (Buffer.contents buf)
    else if s.[i] = '%' then
      if i + 2 >= n then fail "message: truncated %-escape"
      else
        match (hex_digit s.[i + 1], hex_digit s.[i + 2]) with
        | Some hi, Some lo ->
            Buffer.add_char buf (Char.chr ((16 * hi) + lo));
            go (i + 3)
        | _ -> fail "message: bad %-escape"
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0

(* ---- key=value field maps ------------------------------------------ *)

(* Fields are parsed into a mutable assoc list; [take] consumes, and
   [finish] rejects anything left over, so unknown keys are errors. *)
type fields = (string * string) list ref

let parse_fields tokens : (fields, string) result =
  let rec go acc = function
    | [] -> Ok (ref (List.rev acc))
    | tok :: rest -> (
        match String.index_opt tok '=' with
        | None -> fail (Printf.sprintf "expected key=value, got %S" tok)
        | Some i ->
            let key = String.sub tok 0 i in
            let value = String.sub tok (i + 1) (String.length tok - i - 1) in
            if key = "" then fail (Printf.sprintf "empty key in %S" tok)
            else if List.mem_assoc key acc then
              fail (Printf.sprintf "duplicate key %S" key)
            else go ((key, value) :: acc) rest)
  in
  go [] tokens

let take (fields : fields) key =
  match List.assoc_opt key !fields with
  | None -> None
  | Some v ->
      fields := List.remove_assoc key !fields;
      Some v

let required fields key parse =
  match take fields key with
  | None -> fail (Printf.sprintf "missing %s=" key)
  | Some v -> parse key v

let optional fields key ~default parse =
  match take fields key with None -> Ok default | Some v -> parse key v

(* [parse] for an optional field whose absence means [None]. *)
let some parse what s = Result.map Option.some (parse what s)

let finish fields value =
  match !fields with
  | [] -> Ok value
  | (k, _) :: _ -> fail (Printf.sprintf "unknown key %S" k)

let parse_pool_name what s =
  if valid_pool_name s then Ok s
  else fail (Printf.sprintf "%s: invalid pool name %S" what s)

(* A pool row is either the binary "quality:cost" or a flattened
   row-stochastic confusion matrix "m00;m01;…;mkk:cost" (ℓ² entries, row
   major; ℓ ≥ 2 so a matrix row always contains ';').  Row sums are
   validated here with the same Kahan ±1e-9 rule as [Workers.Confusion.make],
   so a decoded row can always be turned into a worker. *)
let parse_worker what s =
  match String.split_on_char ':' s with
  | [ entries; c ] when String.contains entries ';' ->
      let* es =
        map_result (parse_prob (what ^ " entry")) (String.split_on_char ';' entries)
      in
      let* c = parse_nonneg (what ^ " cost") c in
      let k = List.length es in
      let l = int_of_float (Float.round (sqrt (float_of_int k))) in
      if l < 2 || l * l <> k then
        fail (Printf.sprintf "%s: matrix must be square with >= 2 labels" what)
      else
        let flat = Array.of_list es in
        let m = Array.init l (fun j -> Array.sub flat (j * l) l) in
        let row_ok r = Float.abs (Prob.Kahan.sum_array r -. 1.) <= 1e-9 in
        if Array.for_all row_ok m then Ok (Matrix_row (m, c))
        else fail (Printf.sprintf "%s: matrix row does not sum to 1" what)
  | [ q; c ] ->
      let* q = parse_prob (what ^ " quality") q in
      let* c = parse_nonneg (what ^ " cost") c in
      Ok (Scalar (q, c))
  | _ ->
      fail
        (Printf.sprintf
           "%s: expected quality:cost or m00;m01;...:cost, got %S" what s)

let pool_row_labels = function
  | Scalar _ -> 2
  | Matrix_row (m, _) -> Array.length m

let worker_to_string = function
  | Scalar (q, c) -> float_to_string q ^ ":" ^ float_to_string c
  | Matrix_row (m, c) ->
      let entries =
        Array.to_list (Array.concat (Array.to_list m))
        |> List.map float_to_string
      in
      String.concat ";" entries ^ ":" ^ float_to_string c

(* ---- requests ------------------------------------------------------ *)

let default_seed = 42
let default_prior = [ 0.5; 0.5 ]
let default_confidence = 0.95

let prior_to_string prior = list_to_string ~sep:"," float_to_string prior

let parse_task_name what s =
  if valid_pool_name s then Ok s
  else fail (Printf.sprintf "%s: invalid task id %S" what s)

let parse_policy what s =
  match Session.Policy.of_string s with
  | Some p -> Ok p
  | None ->
      fail
        (Printf.sprintf "%s: unknown policy %S (gain|jq|quality|cheap)" what s)

let parse_confidence what s =
  let* f = parse_prob what s in
  if f <= 0. then fail (Printf.sprintf "%s: must be positive" what) else Ok f

(* Optional nonnegative ints ([next=], [decision=]) render None as "-". *)
let parse_opt_int what s =
  if s = "-" then Ok None else some parse_nonneg_int what s

(* [prior=p0,p1,…] names the task's label distribution; [alpha=x] is
   decode-side sugar for the binary [prior=x,1−x] (the two are exclusive).
   Encoding always emits [prior=] so encode∘decode is the identity. *)
let decode_prior fields =
  let prior = take fields "prior" and alpha = take fields "alpha" in
  match (prior, alpha) with
  | Some _, Some _ -> fail "prior= and alpha= are exclusive"
  | None, None -> Ok default_prior
  | None, Some a ->
      let* a = parse_prob "alpha" a in
      Ok [ a; 1. -. a ]
  | Some p, None ->
      let* ps = parse_nonempty_list "prior" ~sep:',' (parse_prob "prior") p in
      if List.length ps < 2 then fail "prior: need at least 2 labels"
      else if
        Float.abs (Prob.Kahan.sum_array (Array.of_list ps) -. 1.) > 1e-9
      then fail "prior: does not sum to 1"
      else Ok ps

(* A reported vote is "task:worker:label" — "task:worker:label:truth" when
   it is a gold question.  Ids are nonnegative ints; label ranges are
   checked by the service against the pool's ℓ. *)
let report_vote_to_string (v : Workers.Calib.vote) =
  match v.truth with
  | None -> Printf.sprintf "%d:%d:%d" v.task v.worker v.label
  | Some tr -> Printf.sprintf "%d:%d:%d:%d" v.task v.worker v.label tr

let parse_report_vote what s =
  let id field = parse_nonneg_int (what ^ " " ^ field) in
  match String.split_on_char ':' s with
  | t :: w :: l :: ([] | [ _ ] as rest) ->
      let* task = id "task" t in
      let* worker = id "worker" w in
      let* label = id "label" l in
      let* truth = match rest with [] -> Ok None | g :: _ -> some id "truth" g in
      Ok { Workers.Calib.task; worker; label; truth }
  | _ ->
      fail
        (Printf.sprintf "%s: expected task:worker:label[:truth], got %S" what s)

let encode_request = function
  | Ping -> "ping"
  | Jq { source; prior; num_buckets } ->
      let src =
        match source with
        | Inline qs -> "q=" ^ list_to_string ~sep:"," float_to_string qs
        | Named pool -> "pool=" ^ pool
      in
      Printf.sprintf "jq %s prior=%s buckets=%d" src (prior_to_string prior)
        num_buckets
  | Select { pool; budget; prior; seed } ->
      Printf.sprintf "select pool=%s budget=%s prior=%s seed=%d" pool
        (float_to_string budget) (prior_to_string prior) seed
  | Table { pool; budgets; prior; seed } ->
      Printf.sprintf "table pool=%s budgets=%s prior=%s seed=%d" pool
        (list_to_string ~sep:"," float_to_string budgets)
        (prior_to_string prior) seed
  | Pool_put { name; workers } ->
      Printf.sprintf "pool-put name=%s workers=%s" name
        (list_to_string ~sep:"," worker_to_string workers)
  | Pool_list -> "pool-list"
  | Stats -> "stats"
  | Session_open { pool; task; prior; budget; confidence; gain_floor; policy }
    ->
      Printf.sprintf
        "open pool=%s task=%s prior=%s budget=%s confidence=%s floor=%s \
         policy=%s"
        pool task (prior_to_string prior) (float_to_string budget)
        (float_to_string confidence)
        (float_to_string gain_floor)
        (Session.Policy.to_string policy)
  | Session_vote { pool; task; worker; label } ->
      Printf.sprintf "vote pool=%s task=%s worker=%d label=%d" pool task worker
        label
  | Session_advise { pool; task; k } ->
      if k = 1 then Printf.sprintf "advise pool=%s task=%s" pool task
      else Printf.sprintf "advise pool=%s task=%s k=%d" pool task k
  | Session_decide { pool; task; truth } -> (
      match truth with
      | None -> Printf.sprintf "decide pool=%s task=%s" pool task
      | Some tr -> Printf.sprintf "decide pool=%s task=%s truth=%d" pool task tr)
  | Session_close { pool; task } ->
      Printf.sprintf "close pool=%s task=%s" pool task
  | Report { pool; votes } ->
      Printf.sprintf "report pool=%s votes=%s" pool
        (list_to_string ~sep:"," report_vote_to_string votes)
  | Quality { pool } -> Printf.sprintf "quality pool=%s" pool
  | Recal { pool } -> Printf.sprintf "recal pool=%s" pool
  | Fleet_submit { pool; task; prior; budget; tier; target } ->
      Printf.sprintf
        "fleet-submit pool=%s task=%s prior=%s budget=%s tier=%d target=%s"
        pool task (prior_to_string prior) (float_to_string budget) tier
        (float_to_string target)
  | Fleet_status { pool; task = None } ->
      Printf.sprintf "fleet-status pool=%s" pool
  | Fleet_status { pool; task = Some task } ->
      Printf.sprintf "fleet-status pool=%s task=%s" pool task
  | Fleet_release { pool; task; decided } ->
      if decided then
        Printf.sprintf "fleet-release pool=%s task=%s decide=1" pool task
      else Printf.sprintf "fleet-release pool=%s task=%s" pool task

let verb = function
  | Ping -> "ping"
  | Jq _ -> "jq"
  | Select _ -> "select"
  | Table _ -> "table"
  | Pool_put _ -> "pool-put"
  | Pool_list -> "pool-list"
  | Stats -> "stats"
  | Session_open _ -> "open"
  | Session_vote _ -> "vote"
  | Session_advise _ -> "advise"
  | Session_decide _ -> "decide"
  | Session_close _ -> "close"
  | Report _ -> "report"
  | Quality _ -> "quality"
  | Recal _ -> "recal"
  | Fleet_submit _ -> "fleet-submit"
  | Fleet_status _ -> "fleet-status"
  | Fleet_release _ -> "fleet-release"

let pool = function
  | Jq { source = Named pool; _ }
  | Select { pool; _ }
  | Table { pool; _ }
  | Session_open { pool; _ }
  | Session_vote { pool; _ }
  | Session_advise { pool; _ }
  | Session_decide { pool; _ }
  | Session_close { pool; _ }
  | Report { pool; _ }
  | Quality { pool }
  | Recal { pool }
  | Fleet_submit { pool; _ }
  | Fleet_status { pool; _ }
  | Fleet_release { pool; _ } ->
      Some pool
  | Ping | Jq { source = Inline _; _ } | Pool_put _ | Pool_list | Stats -> None

let split_line line =
  (* Tolerate a trailing CR (telnet) and repeated spaces. *)
  let line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  List.filter (fun tok -> tok <> "") (String.split_on_char ' ' line)

let no_fields fields request = finish fields request

let decode_jq fields =
  let q = take fields "q" and pool = take fields "pool" in
  let* source =
    match (q, pool) with
    | Some _, Some _ -> fail "jq: q= and pool= are exclusive"
    | None, None -> fail "jq: need q= or pool="
    | Some qs, None ->
        let* qs = parse_nonempty_list "q" ~sep:',' (parse_prob "q") qs in
        Ok (Inline qs)
    | None, Some name ->
        let* name = parse_pool_name "pool" name in
        Ok (Named name)
  in
  let* prior = decode_prior fields in
  let* num_buckets =
    optional fields "buckets" ~default:Jq.Bucket.default_num_buckets
      parse_positive_int
  in
  finish fields (Jq { source; prior; num_buckets })

let decode_select fields =
  let* pool = required fields "pool" parse_pool_name in
  let* budget = required fields "budget" parse_nonneg in
  let* prior = decode_prior fields in
  let* seed = optional fields "seed" ~default:default_seed parse_int in
  finish fields (Select { pool; budget; prior; seed })

let decode_table fields =
  let* pool = required fields "pool" parse_pool_name in
  let* budgets =
    required fields "budgets" (fun what s ->
        parse_nonempty_list what ~sep:',' (parse_nonneg what) s)
  in
  let* prior = decode_prior fields in
  let* seed = optional fields "seed" ~default:default_seed parse_int in
  finish fields (Table { pool; budgets; prior; seed })

let decode_pool_put fields =
  let* name = required fields "name" parse_pool_name in
  let* workers =
    required fields "workers" (fun what s ->
        parse_nonempty_list what ~sep:',' (parse_worker what) s)
  in
  (* One worker model per pool: all scalar rows, or all matrix rows over
     one ℓ — the registry stores a single task-model pool per name. *)
  let* () =
    match workers with
    | [] -> Ok ()
    | first :: rest ->
        let scalar = function Scalar _ -> true | Matrix_row _ -> false in
        if List.exists (fun w -> scalar w <> scalar first) rest then
          fail "workers: cannot mix scalar and matrix rows"
        else if
          List.exists (fun w -> pool_row_labels w <> pool_row_labels first) rest
        then fail "workers: matrix rows disagree on label count"
        else Ok ()
  in
  finish fields (Pool_put { name; workers })

let decode_session_open fields =
  let* pool = required fields "pool" parse_pool_name in
  let* task = required fields "task" parse_task_name in
  let* prior = decode_prior fields in
  let* budget = required fields "budget" parse_nonneg in
  let* confidence =
    optional fields "confidence" ~default:default_confidence parse_confidence
  in
  let* gain_floor = optional fields "floor" ~default:0. parse_nonneg in
  let* policy =
    optional fields "policy" ~default:Session.Policy.default parse_policy
  in
  finish fields
    (Session_open { pool; task; prior; budget; confidence; gain_floor; policy })

let decode_session_vote fields =
  let* pool = required fields "pool" parse_pool_name in
  let* task = required fields "task" parse_task_name in
  let* worker = required fields "worker" parse_nonneg_int in
  let* label = required fields "label" parse_nonneg_int in
  finish fields (Session_vote { pool; task; worker; label })

let decode_session_ref fields make =
  let* pool = required fields "pool" parse_pool_name in
  let* task = required fields "task" parse_task_name in
  finish fields (make ~pool ~task)

let decode_session_advise fields =
  let* pool = required fields "pool" parse_pool_name in
  let* task = required fields "task" parse_task_name in
  let* k = optional fields "k" ~default:1 parse_positive_int in
  finish fields (Session_advise { pool; task; k })

let decode_session_decide fields =
  let* pool = required fields "pool" parse_pool_name in
  let* task = required fields "task" parse_task_name in
  let* truth = optional fields "truth" ~default:None (some parse_nonneg_int) in
  finish fields (Session_decide { pool; task; truth })

let decode_report fields =
  let* pool = required fields "pool" parse_pool_name in
  let* votes =
    required fields "votes" (fun what s ->
        parse_nonempty_list what ~sep:',' (parse_report_vote what) s)
  in
  finish fields (Report { pool; votes })

let decode_pool_ref fields make =
  let* pool = required fields "pool" parse_pool_name in
  finish fields (make ~pool)

let parse_flag what s =
  match s with
  | "0" -> Ok false
  | "1" -> Ok true
  | _ -> fail (Printf.sprintf "%s: expected 0 or 1" what)

let decode_fleet_submit fields =
  let* pool = required fields "pool" parse_pool_name in
  let* task = required fields "task" parse_task_name in
  let* prior = decode_prior fields in
  let* budget = required fields "budget" parse_nonneg in
  let* tier = optional fields "tier" ~default:0 parse_nonneg_int in
  let* target = optional fields "target" ~default:0. parse_prob in
  finish fields (Fleet_submit { pool; task; prior; budget; tier; target })

let decode_fleet_status fields =
  let* pool = required fields "pool" parse_pool_name in
  let* task = optional fields "task" ~default:None (some parse_task_name) in
  finish fields (Fleet_status { pool; task })

let decode_fleet_release fields =
  let* pool = required fields "pool" parse_pool_name in
  let* task = required fields "task" parse_task_name in
  let* decided = optional fields "decide" ~default:false parse_flag in
  finish fields (Fleet_release { pool; task; decided })

let decode_request line =
  match split_line line with
  | [] -> fail "empty request"
  | verb :: rest -> (
      let* fields = parse_fields rest in
      match verb with
      | "ping" -> no_fields fields Ping
      | "jq" -> decode_jq fields
      | "select" -> decode_select fields
      | "table" -> decode_table fields
      | "pool-put" -> decode_pool_put fields
      | "pool-list" -> no_fields fields Pool_list
      | "stats" -> no_fields fields Stats
      | "open" -> decode_session_open fields
      | "vote" -> decode_session_vote fields
      | "advise" -> decode_session_advise fields
      | "decide" -> decode_session_decide fields
      | "close" ->
          decode_session_ref fields (fun ~pool ~task ->
              Session_close { pool; task })
      | "report" -> decode_report fields
      | "quality" -> decode_pool_ref fields (fun ~pool -> Quality { pool })
      | "recal" -> decode_pool_ref fields (fun ~pool -> Recal { pool })
      | "fleet-submit" -> decode_fleet_submit fields
      | "fleet-status" -> decode_fleet_status fields
      | "fleet-release" -> decode_fleet_release fields
      | _ -> fail (Printf.sprintf "unknown verb %S" verb))

(* ---- responses ----------------------------------------------------- *)

let error_code_to_string = function
  | Bad_request -> "bad-request"
  | Unknown_pool -> "unknown-pool"
  | Unknown_session -> "unknown-session"
  | Unknown_task -> "unknown-task"
  | Overload -> "overload"
  | Deadline -> "deadline"
  | Shutdown -> "shutdown"
  | Internal -> "internal"

let error_code_of_string = function
  | "bad-request" -> Ok Bad_request
  | "unknown-pool" -> Ok Unknown_pool
  | "unknown-session" -> Ok Unknown_session
  | "unknown-task" -> Ok Unknown_task
  | "overload" -> Ok Overload
  | "deadline" -> Ok Deadline
  | "shutdown" -> Ok Shutdown
  | "internal" -> Ok Internal
  | s -> fail (Printf.sprintf "unknown error code %S" s)

let session_state_to_string = function
  | Sess_open -> "open"
  | Sess_decided -> "decided"
  | Sess_exhausted -> "exhausted"
  | Sess_closed -> "closed"

let session_state_of_string = function
  | "open" -> Ok Sess_open
  | "decided" -> Ok Sess_decided
  | "exhausted" -> Ok Sess_exhausted
  | "closed" -> Ok Sess_closed
  | s -> fail (Printf.sprintf "unknown session state %S" s)

let parse_ids what s = parse_list what ~sep:'.' (parse_nonneg_int what) s

let parse_row what s =
  match String.split_on_char '@' s with
  | [ budget; ids; quality; required ] ->
      let* budget = parse_nonneg (what ^ " budget") budget in
      let* ids = parse_ids (what ^ " ids") ids in
      let* quality = parse_prob (what ^ " quality") quality in
      let* required = parse_nonneg (what ^ " required") required in
      Ok { budget; ids; quality; required }
  | _ -> fail (Printf.sprintf "%s: expected budget@ids@quality@required" what)

let parse_entry what s =
  match String.split_on_char ':' s with
  | [ name; version; size ] ->
      let* name = parse_pool_name what name in
      let* version = parse_nonneg_int (what ^ " version") version in
      let* size = parse_nonneg_int (what ^ " size") size in
      Ok (name, version, size)
  | _ -> fail (Printf.sprintf "%s: expected name:version:size" what)

(* A reply is written into one buffer per call, sized from the reply, with
   no format interpreter and no intermediate strings; each arm adds its
   fields in wire order.  The buffer is the call's own: [Service.submit]
   runs on systhreads, and two systhreads of one domain can interleave
   inside one encode. *)

let add = Buffer.add_string
let add_char = Buffer.add_char

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  add_char b (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let add_int b n = if n >= 0 then add_digits b n else add b (string_of_int n)
let add_float b f = add b (float_to_string f)
let add_flag b v = add_char b (if v then '1' else '0')

(* [sep] before each element. *)
let rec add_rest b sep add_x = function
  | [] -> ()
  | x :: rest ->
      add_char b sep;
      add_x b x;
      add_rest b sep add_x rest

(* Elements joined by [sep]; "-" for the empty list. *)
let add_list b sep add_x = function
  | [] -> add_char b '-'
  | x :: rest ->
      add_x b x;
      add_rest b sep add_x rest

let add_ids b ids = add_list b '.' add_int ids
let add_opt_int b = function None -> add_char b '-' | Some i -> add_int b i

let add_row b { budget; ids; quality; required } =
  add_float b budget; add_char b '@';
  add_ids b ids; add_char b '@';
  add_float b quality; add_char b '@';
  add_float b required

let add_entry b (name, version, size) =
  add b name; add_char b ':'; add_int b version; add_char b ':'; add_int b size

let add_quality_row b (id, quality, seen) =
  add_int b id; add_char b ':'; add_float b quality; add_char b ':'; add_int b seen

let add_stat b (key, value) =
  add b key; add_char b '='; add_float b value

(* Percent-escaping for free-text error messages: anything outside the
   printable ASCII range, plus '%' and the protocol separators. *)
let add_escaped b s =
  String.iter
    (fun c ->
      if c > ' ' && c < '\x7f' && c <> '%' then add_char b c
      else begin
        add_char b '%';
        add_char b "0123456789ABCDEF".[Char.code c lsr 4];
        add_char b "0123456789ABCDEF".[Char.code c land 15]
      end)
    s

(* Bytes to reserve: a kind's usual fixed part and a typical width per list
   element, so few replies regrow. *)
let reply_capacity = function
  | Table_result rows -> 16 + (48 * List.length rows)
  | Quality_result { workers; _ } -> 48 + (28 * List.length workers)
  | Pool_entries entries -> 16 + (24 * List.length entries)
  | Stats_result stats -> 16 + (32 * List.length stats)
  | Select_result { ids; _ } | Fleet_task { jury = ids; _ } ->
      96 + (4 * List.length ids)
  | Error { message; _ } -> 32 + String.length message
  | _ -> 192

let encode_response r =
  let b = Buffer.create (reply_capacity r) in
  (match r with
  | Pong -> add b "ok pong"
  | Jq_result { value; error_bound; n } ->
      add b "ok jq value="; add_float b value;
      add b " bound="; add_float b error_bound;
      add b " n="; add_int b n
  | Select_result { ids; score; cost } ->
      add b "ok select ids="; add_ids b ids;
      add b " score="; add_float b score;
      add b " cost="; add_float b cost
  | Table_result rows -> add b "ok table rows="; add_list b ';' add_row rows
  | Pool_info { name; version; size } ->
      add b "ok pool name="; add b name;
      add b " version="; add_int b version;
      add b " size="; add_int b size
  | Pool_entries entries -> add b "ok pools list="; add_list b ',' add_entry entries
  | Stats_result stats -> add b "ok stats"; add_rest b ' ' add_stat stats
  | Session_result
      { pool; task; state; posterior; votes; spent; next; advice; decision; certified; reason }
    ->
      add b "ok session pool="; add b pool;
      add b " task="; add b task;
      add b " state="; add b (session_state_to_string state);
      add b " posterior="; add_list b ',' add_float posterior;
      add b " votes="; add_int b votes;
      add b " spent="; add_float b spent;
      add b " next="; add_opt_int b next;
      add b " advice="; add_ids b advice;
      add b " decision="; add_opt_int b decision;
      add b " certified="; add_flag b certified;
      add b " reason=";
      add b
        (match reason with
        | None -> "-"
        | Some r -> Session.Stopping.reason_to_string r)
  | Report_result { name; version; applied; pending; drifted; stale; recals } ->
      add b "ok report name="; add b name;
      add b " version="; add_int b version;
      add b " applied="; add_int b applied;
      add b " pending="; add_int b pending;
      add b " drifted="; add_ids b drifted;
      add b " stale="; add_flag b stale;
      add b " recals="; add_int b recals
  | Quality_result { name; version; workers } ->
      add b "ok quality name="; add b name;
      add b " version="; add_int b version;
      add b " workers="; add_list b ',' add_quality_row workers
  | Fleet_task { pool; task; jury; score; cost; tier } ->
      add b "ok fleet-task pool="; add b pool;
      add b " task="; add b task;
      add b " jury="; add_ids b jury;
      add b " score="; add_float b score;
      add b " cost="; add_float b cost;
      add b " tier="; add_int b tier
  | Fleet_summary { pool; version; epoch; tasks; assigned; claimed; priced; aggregate }
    ->
      add b "ok fleet-summary pool="; add b pool;
      add b " version="; add_int b version;
      add b " epoch="; add_int b epoch;
      add b " tasks="; add_int b tasks;
      add b " assigned="; add_int b assigned;
      add b " claimed="; add_int b claimed;
      add b " priced="; add_int b priced;
      add b " aggregate="; add_float b aggregate
  | Fleet_released { pool; task; freed } ->
      add b "ok fleet-released pool="; add b pool;
      add b " task="; add b task;
      add b " freed="; add_int b freed
  | Error { code; message } ->
      add b "err "; add b (error_code_to_string code);
      add b " message="; add_escaped b message);
  Buffer.contents b

let decode_ok_response kind fields =
  match kind with
  | "pong" -> no_fields fields Pong
  | "jq" ->
      let* value = required fields "value" parse_prob in
      let* error_bound = required fields "bound" parse_nonneg in
      let* n = required fields "n" parse_nonneg_int in
      finish fields (Jq_result { value; error_bound; n })
  | "select" ->
      let* ids = required fields "ids" parse_ids in
      let* score = required fields "score" parse_prob in
      let* cost = required fields "cost" parse_nonneg in
      finish fields (Select_result { ids; score; cost })
  | "table" ->
      let* rows =
        required fields "rows" (fun what s ->
            parse_list what ~sep:';' (parse_row what) s)
      in
      finish fields (Table_result rows)
  | "pool" ->
      let* name = required fields "name" parse_pool_name in
      let* version = required fields "version" parse_nonneg_int in
      let* size = required fields "size" parse_nonneg_int in
      finish fields (Pool_info { name; version; size })
  | "pools" ->
      let* entries =
        required fields "list" (fun what s ->
            parse_list what ~sep:',' (parse_entry what) s)
      in
      finish fields (Pool_entries entries)
  | "stats" ->
      let* stats =
        map_result
          (fun (key, v) ->
            if not (valid_pool_name key) then
              fail (Printf.sprintf "stats: invalid key %S" key)
            else
              let* v = parse_float key v in
              Ok (key, v))
          !fields
      in
      fields := [];
      finish fields (Stats_result stats)
  | "session" ->
      let* pool = required fields "pool" parse_pool_name in
      let* task = required fields "task" parse_task_name in
      let* state =
        required fields "state" (fun _ s -> session_state_of_string s)
      in
      let* posterior =
        required fields "posterior" (fun what s ->
            parse_nonempty_list what ~sep:',' (parse_prob what) s)
      in
      let* votes = required fields "votes" parse_nonneg_int in
      let* spent = required fields "spent" parse_nonneg in
      let* next = required fields "next" parse_opt_int in
      let* advice = required fields "advice" parse_ids in
      let* decision = required fields "decision" parse_opt_int in
      let* certified = required fields "certified" parse_flag in
      let* reason =
        required fields "reason" (fun what s ->
            if s = "-" then Ok None
            else
              match Session.Stopping.reason_of_string s with
              | Some r -> Ok (Some r)
              | None -> fail (Printf.sprintf "%s: unknown reason %S" what s))
      in
      finish fields
        (Session_result
           {
             pool;
             task;
             state;
             posterior;
             votes;
             spent;
             next;
             advice;
             decision;
             certified;
             reason;
           })
  | "report" ->
      let* name = required fields "name" parse_pool_name in
      let* version = required fields "version" parse_nonneg_int in
      let* applied = required fields "applied" parse_nonneg_int in
      let* pending = required fields "pending" parse_nonneg_int in
      let* drifted = required fields "drifted" parse_ids in
      let* stale = required fields "stale" parse_flag in
      let* recals = required fields "recals" parse_nonneg_int in
      finish fields
        (Report_result { name; version; applied; pending; drifted; stale; recals })
  | "quality" ->
      let* name = required fields "name" parse_pool_name in
      let* version = required fields "version" parse_nonneg_int in
      let* workers =
        required fields "workers" (fun what s ->
            parse_list what ~sep:','
              (fun row ->
                match String.split_on_char ':' row with
                | [ id; q; seen ] ->
                    let* id = parse_nonneg_int (what ^ " id") id in
                    let* q = parse_prob (what ^ " quality") q in
                    let* seen = parse_nonneg_int (what ^ " votes") seen in
                    Ok (id, q, seen)
                | _ -> fail (Printf.sprintf "%s: expected id:quality:votes" what))
              s)
      in
      finish fields (Quality_result { name; version; workers })
  | "fleet-task" ->
      let* pool = required fields "pool" parse_pool_name in
      let* task = required fields "task" parse_task_name in
      let* jury = required fields "jury" parse_ids in
      let* score = required fields "score" parse_prob in
      let* cost = required fields "cost" parse_nonneg in
      let* tier = required fields "tier" parse_nonneg_int in
      finish fields (Fleet_task { pool; task; jury; score; cost; tier })
  | "fleet-summary" ->
      let* pool = required fields "pool" parse_pool_name in
      let* version = required fields "version" parse_nonneg_int in
      let* epoch = required fields "epoch" parse_nonneg_int in
      let* tasks = required fields "tasks" parse_nonneg_int in
      let* assigned = required fields "assigned" parse_nonneg_int in
      let* claimed = required fields "claimed" parse_nonneg_int in
      let* priced = required fields "priced" parse_nonneg_int in
      let* aggregate = required fields "aggregate" parse_float in
      finish fields
        (Fleet_summary
           { pool; version; epoch; tasks; assigned; claimed; priced; aggregate })
  | "fleet-released" ->
      let* pool = required fields "pool" parse_pool_name in
      let* task = required fields "task" parse_task_name in
      let* freed = required fields "freed" parse_nonneg_int in
      finish fields (Fleet_released { pool; task; freed })
  | _ -> fail (Printf.sprintf "unknown ok kind %S" kind)

let decode_response line =
  match split_line line with
  | "ok" :: kind :: rest ->
      let* fields = parse_fields rest in
      decode_ok_response kind fields
  | "err" :: code :: rest ->
      let* code = error_code_of_string code in
      let* fields = parse_fields rest in
      let* message = required fields "message" (fun _ s -> unescape s) in
      finish fields (Error { code; message })
  | _ -> fail "expected 'ok <kind> ...' or 'err <code> ...'"
