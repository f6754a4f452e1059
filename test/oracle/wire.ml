(* The reply encoder of [Serve.Wire] as it was before replies were written
   into one buffer with memoized float rendering: [Printf] formats and
   intermediate strings.  Tests check that [Serve.Wire.encode_response]
   and [Serve.Wire.float_to_string] give these bytes exactly. *)

open Serve.Wire

(* Shortest decimal rendering that parses back to the same float. *)
let float_to_string f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let list_to_string ~sep to_string = function
  | [] -> "-"
  | xs -> String.concat sep (List.map to_string xs)

let prior_to_string prior = list_to_string ~sep:"," float_to_string prior

(* Percent-escaping for free-text error messages: anything outside the
   printable ASCII range, plus '%' and the protocol separators. *)
let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if c > ' ' && c < '\x7f' && c <> '%' then Buffer.add_char buf c
      else Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents buf

let opt_int_to_string = function None -> "-" | Some i -> string_of_int i
let ids_to_string ids = list_to_string ~sep:"." string_of_int ids

let row_to_string { budget; ids; quality; required } =
  Printf.sprintf "%s@%s@%s@%s" (float_to_string budget) (ids_to_string ids)
    (float_to_string quality) (float_to_string required)

let entry_to_string (name, version, size) =
  Printf.sprintf "%s:%d:%d" name version size

let stat_to_string (key, value) = key ^ "=" ^ float_to_string value

let encode_response = function
  | Pong -> "ok pong"
  | Jq_result { value; error_bound; n } ->
      Printf.sprintf "ok jq value=%s bound=%s n=%d" (float_to_string value)
        (float_to_string error_bound) n
  | Select_result { ids; score; cost } ->
      Printf.sprintf "ok select ids=%s score=%s cost=%s" (ids_to_string ids)
        (float_to_string score) (float_to_string cost)
  | Table_result rows ->
      Printf.sprintf "ok table rows=%s" (list_to_string ~sep:";" row_to_string rows)
  | Pool_info { name; version; size } ->
      Printf.sprintf "ok pool name=%s version=%d size=%d" name version size
  | Pool_entries entries ->
      Printf.sprintf "ok pools list=%s"
        (list_to_string ~sep:"," entry_to_string entries)
  | Stats_result stats ->
      if stats = [] then "ok stats"
      else "ok stats " ^ String.concat " " (List.map stat_to_string stats)
  | Session_result
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
      } ->
      Printf.sprintf
        "ok session pool=%s task=%s state=%s posterior=%s votes=%d spent=%s \
         next=%s advice=%s decision=%s certified=%d reason=%s"
        pool task
        (session_state_to_string state)
        (prior_to_string posterior) votes (float_to_string spent)
        (opt_int_to_string next) (ids_to_string advice)
        (opt_int_to_string decision)
        (if certified then 1 else 0)
        (match reason with
        | None -> "-"
        | Some r -> Session.Stopping.reason_to_string r)
  | Report_result { name; version; applied; pending; drifted; stale; recals } ->
      Printf.sprintf
        "ok report name=%s version=%d applied=%d pending=%d drifted=%s \
         stale=%d recals=%d"
        name version applied pending (ids_to_string drifted)
        (if stale then 1 else 0)
        recals
  | Quality_result { name; version; workers } ->
      let worker_to_string (id, q, seen) =
        Printf.sprintf "%d:%s:%d" id (float_to_string q) seen
      in
      Printf.sprintf "ok quality name=%s version=%d workers=%s" name version
        (list_to_string ~sep:"," worker_to_string workers)
  | Fleet_task { pool; task; jury; score; cost; tier } ->
      Printf.sprintf "ok fleet-task pool=%s task=%s jury=%s score=%s cost=%s tier=%d"
        pool task (ids_to_string jury) (float_to_string score)
        (float_to_string cost) tier
  | Fleet_summary { pool; version; epoch; tasks; assigned; claimed; priced; aggregate }
    ->
      Printf.sprintf
        "ok fleet-summary pool=%s version=%d epoch=%d tasks=%d assigned=%d \
         claimed=%d priced=%d aggregate=%s"
        pool version epoch tasks assigned claimed priced
        (float_to_string aggregate)
  | Fleet_released { pool; task; freed } ->
      Printf.sprintf "ok fleet-released pool=%s task=%s freed=%d" pool task freed
  | Error { code; message } ->
      Printf.sprintf "err %s message=%s" (error_code_to_string code)
        (escape message)
