type 'a t = {
  buf : 'a option array;   (* Ring buffer; [None] marks a free slot. *)
  mutable head : int;      (* Index of the oldest item. *)
  mutable len : int;
  mutable closed : bool;
  mutable invites : int;   (* Latched steal invitations for the owner. *)
  lock : Mutex.t;
  wake : Condition.t;      (* Owner sleeps here; push/invite/close signal. *)
}

type push_result = Pushed of int | Full | Closed

let create ~capacity =
  if capacity <= 0 then invalid_arg "Bqueue.create: capacity <= 0";
  {
    buf = Array.make capacity None;
    head = 0;
    len = 0;
    closed = false;
    invites = 0;
    lock = Mutex.create ();
    wake = Condition.create ();
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let capacity t = Array.length t.buf

let push t x =
  with_lock t (fun () ->
      if t.closed then Closed
      else if t.len = capacity t then Full
      else begin
        t.buf.((t.head + t.len) mod capacity t) <- Some x;
        t.len <- t.len + 1;
        Condition.signal t.wake;
        Pushed t.len
      end)

(* Caller holds the lock and has checked [t.len > 0]. *)
let take_front t =
  match t.buf.(t.head) with
  | None -> assert false
  | Some x ->
      t.buf.(t.head) <- None;
      t.head <- (t.head + 1) mod capacity t;
      t.len <- t.len - 1;
      x

let pop t =
  with_lock t (fun () ->
      (* Queued work first, then invitations, then shutdown: the shard is
         always drained before its owner exits. *)
      let rec wait () =
        if t.len > 0 then `Item (take_front t)
        else if t.invites > 0 then begin
          t.invites <- 0;
          `Invited
        end
        else if t.closed then `Closed
        else begin
          Condition.wait t.wake t.lock;
          wait ()
        end
      in
      wait ())

let steal t =
  with_lock t (fun () ->
      (* A lone queued item is the owner's next pop; stealing it buys
         nothing and moves the work to a colder executor.  Only a real
         backlog (or a closed queue being drained) is worth taking. *)
      if t.len = 0 || (t.len < 2 && not t.closed) then None
      else Some (take_front t))

let invite t =
  with_lock t (fun () ->
      t.invites <- t.invites + 1;
      Condition.signal t.wake)

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.wake)

let length t = with_lock t (fun () -> t.len)
