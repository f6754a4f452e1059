type key = { pool : string; task : string }

module Tbl = Hashtbl.Make (struct
  type t = key

  let equal a b = String.equal a.pool b.pool && String.equal a.task b.task
  let hash k = Hashtbl.hash (k.pool, k.task)
end)

type stats = {
  open_now : int;
  opened : int;
  decided : int;
  expired : int;
  invalidated : int;
  rejected : int;
}

type t = {
  tbl : Task.t Tbl.t;
  cap : int;
  ttl : float;
  mutable opened : int;
  mutable decided : int;
  mutable expired : int;
  mutable invalidated : int;
  mutable rejected : int;
  mutable last_sweep : float;
}

let default_cap = 1024
let default_ttl = 900.

let create ?(cap = default_cap) ?(ttl = default_ttl) () =
  if cap <= 0 then invalid_arg "Store.create: cap <= 0";
  if ttl <= 0. || Float.is_nan ttl then invalid_arg "Store.create: ttl <= 0";
  {
    tbl = Tbl.create 64;
    cap;
    ttl;
    opened = 0;
    decided = 0;
    expired = 0;
    invalidated = 0;
    rejected = 0;
    last_sweep = neg_infinity;
  }

let open_count t = Tbl.length t.tbl

let expired_entry t session ~now = now -. Task.last_touch session > t.ttl

let sweep t ~now =
  t.last_sweep <- now;
  let dead = ref [] in
  Tbl.iter
    (fun k s -> if expired_entry t s ~now then dead := k :: !dead)
    t.tbl;
  List.iter
    (fun k ->
      Tbl.remove t.tbl k;
      t.expired <- t.expired + 1)
    !dead

(* Amortized expiry: a full sweep at most every ttl/4 (floored at 1s), so
   a hot store does not pay O(n) on every verb. *)
let maybe_sweep t ~now =
  if now -. t.last_sweep > Float.max 1. (t.ttl /. 4.) then sweep t ~now

let open_session t ~pool ~task ~session ~now =
  maybe_sweep t ~now;
  let k = { pool; task } in
  if Tbl.mem t.tbl k then `Exists
  else if Tbl.length t.tbl >= t.cap then begin
    (* Admission control: try to free capacity before refusing. *)
    sweep t ~now;
    if Tbl.length t.tbl >= t.cap then begin
      t.rejected <- t.rejected + 1;
      `Full
    end
    else begin
      Tbl.replace t.tbl k session;
      t.opened <- t.opened + 1;
      `Ok
    end
  end
  else begin
    Tbl.replace t.tbl k session;
    t.opened <- t.opened + 1;
    `Ok
  end

let find t ~pool ~task ~now ~version =
  maybe_sweep t ~now;
  let k = { pool; task } in
  match Tbl.find_opt t.tbl k with
  | None -> `Missing
  | Some s ->
      if expired_entry t s ~now then begin
        Tbl.remove t.tbl k;
        t.expired <- t.expired + 1;
        `Expired
      end
      else if Task.version s <> version && Task.progress s = Task.Soliciting
      then begin
        Tbl.remove t.tbl k;
        t.invalidated <- t.invalidated + 1;
        `Invalidated
      end
      else `Found s

let remove t ~pool ~task =
  let k = { pool; task } in
  match Tbl.find_opt t.tbl k with
  | None -> None
  | Some s ->
      Tbl.remove t.tbl k;
      Some s

let note_decided t = t.decided <- t.decided + 1

let stats t =
  {
    open_now = Tbl.length t.tbl;
    opened = t.opened;
    decided = t.decided;
    expired = t.expired;
    invalidated = t.invalidated;
    rejected = t.rejected;
  }

let zero_stats =
  {
    open_now = 0;
    opened = 0;
    decided = 0;
    expired = 0;
    invalidated = 0;
    rejected = 0;
  }

let add_stats a b =
  {
    open_now = a.open_now + b.open_now;
    opened = a.opened + b.opened;
    decided = a.decided + b.decided;
    expired = a.expired + b.expired;
    invalidated = a.invalidated + b.invalidated;
    rejected = a.rejected + b.rejected;
  }
