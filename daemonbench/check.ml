(* Reply checks and the quality figures read off the replies.

   Registry versions come from one registry-wide counter, so a reply's
   [version=] depends on how the two connections interleaved; it is masked
   before replies are compared.  With it masked, every non-fleet reply is
   a pure function of the script and must match the sequential in-process
   replay byte for byte.  Fleet replies are only checked for a jury within
   budget and a score in [0, 1]: the allocator seeds its inner solves with
   the registry-wide version (see NOTES.md), so they legitimately differ. *)

module W = Serve.Wire

type exchange = { request : string; reply : string }

(* One pass of a script: set-up, the timed per-connection exchanges, and
   the untimed final readback. *)
type run = {
  setup : exchange array;
  conns : exchange array array;
  final : exchange array;
}

let is_fleet request = String.starts_with ~prefix:"fleet-" request

let mask reply =
  let key = "version=" in
  let k = String.length key and n = String.length reply in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + k <= n && String.sub reply !i k = key then begin
      Buffer.add_string b "version=*";
      i := !i + k;
      while !i < n && reply.[!i] >= '0' && reply.[!i] <= '9' do
        incr i
      done
    end
    else begin
      Buffer.add_char b reply.[!i];
      incr i
    end
  done;
  Buffer.contents b

let all_exchanges run =
  Array.concat ((run.setup :: Array.to_list run.conns) @ [ run.final ])

(* MD5 of every masked non-fleet reply, in script order. *)
let digest run =
  let b = Buffer.create 4096 in
  Array.iter
    (fun e ->
      if not (is_fleet e.request) then begin
        Buffer.add_string b (mask e.reply);
        Buffer.add_char b '\n'
      end)
    (all_exchanges run);
  Digest.to_hex (Digest.string (Buffer.contents b))

let expected_kind request response =
  match (request, response) with
  | W.Ping, W.Pong
  | W.Stats, W.Stats_result _
  | W.Pool_put _, W.Pool_info _
  | W.Pool_list, W.Pool_entries _
  | W.Jq _, W.Jq_result _
  | W.Select _, W.Select_result _
  | W.Table _, W.Table_result _
  | ( ( W.Session_open _ | W.Session_vote _ | W.Session_advise _
      | W.Session_decide _ | W.Session_close _ ),
      W.Session_result _ )
  | (W.Report _ | W.Recal _), W.Report_result _
  | W.Quality _, W.Quality_result _
  | W.Fleet_submit _, W.Fleet_task _
  | W.Fleet_status { task = Some _; _ }, W.Fleet_task _
  | W.Fleet_status { task = None; _ }, W.Fleet_summary _
  | W.Fleet_release _, W.Fleet_released _ ->
      true
  | _ -> false

let decode e =
  match (W.decode_request e.request, W.decode_response e.reply) with
  | Ok req, Ok resp -> Some (req, resp)
  | _ -> None

let ok e =
  match decode e with Some (req, resp) -> expected_kind req resp | None -> false

(* Quality figures of one pass over the timed exchanges (and, for
   calibration error, the final readback). *)
type summary = {
  requests : int;
  ok : int;  (** Replies of the expected kind. *)
  jury : float list;  (** [select] scores and [table] row qualities. *)
  bounds : float list;  (** [jq] certified error bounds. *)
  fleet : float list;  (** [fleet-task] scores. *)
  fleet_bad : int;  (** Fleet juries over budget or scores outside [0, 1]. *)
  decided : int;  (** Sessions whose [close] answered with a decision. *)
  votes : int;  (** Votes seen by those sessions. *)
  right : int;  (** Decisions equal to the simulated truth. *)
  calib : float list;  (** |calibrated - generating| per worker. *)
}

let summarize (script : Script.t) run =
  let truths = Hashtbl.create 64 in
  Array.iter
    (Array.iter (function
      | Script.Session { pool; task; truth; _ } -> Hashtbl.replace truths (pool, task) truth
      | Script.Line _ -> ()))
    script.conns;
  let budgets = Hashtbl.create 64 in
  Array.iter
    (fun e ->
      match W.decode_request e.request with
      | Ok (W.Fleet_submit { pool; task; budget; _ }) ->
          Hashtbl.replace budgets (pool, task) budget
      | _ -> ())
    (all_exchanges run);
  let requests = ref 0 and good = ref 0 in
  let jury = ref [] and bounds = ref [] and fleet = ref [] and fleet_bad = ref 0 in
  let decided = ref 0 and votes = ref 0 and right = ref 0 in
  Array.iter
    (Array.iter (fun e ->
         incr requests;
         match decode e with
         | Some (req, resp) -> (
             if expected_kind req resp then incr good;
             match (req, resp) with
             | _, W.Select_result { score; _ } -> jury := score :: !jury
             | _, W.Table_result rows ->
                 List.iter (fun (r : W.table_row) -> jury := r.quality :: !jury) rows
             | _, W.Jq_result { error_bound; _ } -> bounds := error_bound :: !bounds
             | _, W.Fleet_task { pool; task; score; cost; _ } ->
                 fleet := score :: !fleet;
                 let budget =
                   Option.value ~default:0. (Hashtbl.find_opt budgets (pool, task))
                 in
                 if cost > budget +. 1e-9 || score < 0. || score > 1. then
                   incr fleet_bad
             | ( W.Session_close { pool; task },
                 W.Session_result { decision = Some d; votes = v; _ } ) ->
                 incr decided;
                 votes := !votes + v;
                 if Hashtbl.find_opt truths (pool, task) = Some d then incr right
             | _ -> ())
         | None -> ()))
    run.conns;
  let calib = ref [] in
  Array.iter
    (fun e ->
      match decode e with
      | Some (_, W.Quality_result { name; workers; _ }) ->
          let gen = List.assoc name script.qualities in
          List.iter
            (fun (id, q, _) -> calib := Float.abs (q -. gen.(id)) :: !calib)
            workers
      | _ -> ())
    run.final;
  {
    requests = !requests;
    ok = !good;
    jury = !jury;
    bounds = !bounds;
    fleet = !fleet;
    fleet_bad = !fleet_bad;
    decided = !decided;
    votes = !votes;
    right = !right;
    calib = !calib;
  }

type verdict = {
  mismatches : int;  (** Non-fleet exchanges differing from the reference. *)
  fleet_mismatches : int;  (** Fleet replies differing (reported, not failed). *)
  fleet_replies : int;
  first : string option;  (** The first non-fleet mismatch, for the log. *)
}

let compare_with ~reference run =
  let mismatches = ref 0 and fleet_mismatches = ref 0 and fleet_replies = ref 0 in
  let first = ref None in
  let section what expected got =
    let n = max (Array.length expected) (Array.length got) in
    for i = 0 to n - 1 do
      let exp = if i < Array.length expected then Some expected.(i) else None in
      let act = if i < Array.length got then Some got.(i) else None in
      match (exp, act) with
      | Some e, Some a when e.request = a.request && is_fleet a.request ->
          incr fleet_replies;
          if mask e.reply <> mask a.reply then incr fleet_mismatches
      | Some e, Some a when e.request = a.request && mask e.reply = mask a.reply -> ()
      | _ ->
          incr mismatches;
          if !first = None then
            let show = function
              | None -> "<none>"
              | Some x -> Printf.sprintf "%s -> %s" x.request x.reply
            in
            first :=
              Some
                (Printf.sprintf "%s #%d: expected [%s] got [%s]" what i (show exp)
                   (show act))
    done
  in
  section "setup" reference.setup run.setup;
  Array.iteri
    (fun c exp -> section (Printf.sprintf "conn%d" c) exp run.conns.(c))
    reference.conns;
  section "final" reference.final run.final;
  {
    mismatches = !mismatches;
    fleet_mismatches = !fleet_mismatches;
    fleet_replies = !fleet_replies;
    first = !first;
  }
