type 'a t = {
  shards : 'a Bqueue.t array;
  rr : int Atomic.t;  (* Round-robin cursor for steal invitations. *)
}

let create ~shards ~capacity =
  if shards <= 0 then invalid_arg "Dispatch.create: shards <= 0";
  if capacity <= 0 then invalid_arg "Dispatch.create: capacity <= 0";
  let per_shard = (capacity + shards - 1) / shards in
  {
    shards = Array.init shards (fun _ -> Bqueue.create ~capacity:per_shard);
    rr = Atomic.make 0;
  }

let invite_backlog = 4

let shards t = Array.length t.shards
let capacity t = Array.length t.shards * Bqueue.capacity t.shards.(0)

let length t =
  Array.fold_left (fun acc q -> acc + Bqueue.length q) 0 t.shards

(* Invite one *other* shard's owner to steal; the cursor spreads
   successive invitations over all neighbours, so sustained single-pool
   backlog wakes every executor rather than hammering one. *)
let invite_neighbour t s =
  let n = Array.length t.shards in
  let k = Atomic.fetch_and_add t.rr 1 in
  let j = (s + 1 + (abs k mod (n - 1))) mod n in
  Bqueue.invite t.shards.(j)

let push t ~affinity x =
  let n = Array.length t.shards in
  let s = abs (affinity mod n) in
  match Bqueue.push t.shards.(s) x with
  | Bqueue.Pushed len ->
      (* Invite only on the edge into a real backlog (len crossing the
         threshold), not on every backlogged push: a shallow queue is
         the owner's next few pops, and a per-push invite storm wakes idle
         executors thousands of times a second just to fight the owner
         over single items.  Under sustained overload the owner's pops
         recreate the crossing often enough to keep neighbours fed. *)
      if len = invite_backlog && n > 1 then invite_neighbour t s;
      `Ok
  | Bqueue.Closed -> `Closed
  | Bqueue.Full ->
      (* Spill: admission control is the total bound, so a single hot
         pool may use other shards' slack.  Try the least-loaded other
         shard; under a race, walk the rest before giving up. *)
      let order =
        List.sort
          (fun a b -> compare (Bqueue.length t.shards.(a)) (Bqueue.length t.shards.(b)))
          (List.filter (fun j -> j <> s) (List.init n Fun.id))
      in
      let rec try_spill = function
        | [] -> `Overload
        | j :: rest -> (
            match Bqueue.push t.shards.(j) x with
            | Bqueue.Pushed _ -> `Ok  (* push signalled shard j's owner *)
            | Bqueue.Closed -> `Closed
            | Bqueue.Full -> try_spill rest)
      in
      try_spill order

(* Steal the front item of the longest other shard. *)
let try_steal t ~shard =
  let n = Array.length t.shards in
  let victim = ref (-1) and longest = ref 0 in
  for j = 0 to n - 1 do
    if j <> shard then begin
      let len = Bqueue.length t.shards.(j) in
      if len > !longest then begin
        longest := len;
        victim := j
      end
    end
  done;
  if !victim < 0 then None else Bqueue.steal t.shards.(!victim)

let rec pop t ~shard =
  match Bqueue.pop t.shards.(shard) with
  | `Item x -> Some (x, `Own)
  | `Closed -> None
  | `Invited -> (
      match try_steal t ~shard with
      | None -> pop t ~shard
      | Some x ->
          (* Work-conserving thief: re-latch our own invitation so the
             next pop tries to steal again before sleeping.  One steal
             per wake-up would pay a scheduler round-trip per item;
             re-latching drains the backlog in a tight loop and only
             parks once every victim is shallow. *)
          Bqueue.invite t.shards.(shard);
          Some (x, `Stolen))

let close t = Array.iter Bqueue.close t.shards
