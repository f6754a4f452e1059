(* Epoll/poll event-loop connection plane.  One event thread owns the
   listener, every connection descriptor, the Evloop backend and the
   [conns] table; the only cross-thread traffic is the completion queue
   (executor domains push finished replies) and [stop], both of which
   talk to the loop through a self-pipe. *)

external fd_int : Unix.file_descr -> int = "%identity"

let default_max_line = 65536
let accept_backoff_base = 0.05
let accept_backoff_max = 1.0
let read_burst = 16 (* reads per readiness event, fairness bound *)

let accept_action = function
  | Unix.EINTR | Unix.ECONNABORTED -> `Retry
  | Unix.EAGAIN | Unix.EWOULDBLOCK -> `Drained
  | Unix.EMFILE | Unix.ENFILE | Unix.ENOBUFS | Unix.ENOMEM -> `Backoff
  | Unix.EBADF | Unix.EINVAL | Unix.ENOTSOCK -> `Stop
  | _ -> `Backoff

type conn = {
  fd : Unix.file_descr;
  frame : Lineframe.t;
  mutable obuf : Bytes.t; (* pending reply bytes: [out_off, out_len) *)
  mutable out_off : int;
  mutable out_len : int;
  mutable busy : bool; (* one request in flight with the service *)
  mutable alive : bool;
  mutable mask : int; (* interest currently registered with the loop *)
  mutable line_deadline : float; (* partial-line reap time; infinity = none *)
}

type t = {
  service : Service.t;
  listener : Unix.file_descr;
  port : int;
  max_conns : int;
  idle_timeout : float;
  max_line : int;
  loop : Evloop.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  (* [qlock] guards [completions], [wake_open] and writes to [wake_w];
     everything else below the line is event-thread-only (counters are
     read racily by the stats gauges, which is fine for monitoring). *)
  qlock : Mutex.t;
  mutable completions : (conn * Wire.response) list; (* LIFO *)
  mutable wake_open : bool;
  conns : (int, conn) Hashtbl.t;
  lock : Mutex.t;
  mutable state : [ `Created | `Running | `Stopped ];
  mutable thread : Thread.t option;
  mutable loop_id : int; (* Thread.id of the event thread; -1 before it runs *)
  mutable conns_open : int;
  mutable conns_accepted : int;
  mutable conns_rejected : int;
  mutable read_timeouts : int;
  mutable long_lines : int;
  mutable accept_retries : int;
  mutable accept_backoffs : int;
  mutable accept_pause_until : float; (* 0. = accepting *)
  mutable accept_backoff : float;
  mutable listener_dead : bool;
}

let port t = t.port

(* -- cross-thread wakeup ------------------------------------------------ *)

let wake_byte = Bytes.make 1 '!'

(* Wake-pipe writes stay under [qlock] and behind [wake_open] so a late
   executor completion can never write to a closed (and possibly reused)
   descriptor. *)
let wake_locked t =
  if t.wake_open then
    try ignore (Unix.write t.wake_w wake_byte 0 1)
    with Unix.Unix_error _ -> () (* full pipe = wakeup already pending *)

let wake t =
  Mutex.lock t.qlock;
  wake_locked t;
  Mutex.unlock t.qlock

(* A reply completed on the event thread itself (an inline read or
   control verb) needs no wakeup: the loop drains completions after every
   wait, and until quiescent. *)
let completed t conn response =
  Mutex.lock t.qlock;
  if t.wake_open then begin
    t.completions <- (conn, response) :: t.completions;
    if Thread.id (Thread.self ()) <> t.loop_id then wake_locked t
  end;
  Mutex.unlock t.qlock

(* -- connection bookkeeping (event thread only) ------------------------- *)

let close_conn t conn =
  if conn.alive then begin
    conn.alive <- false;
    Evloop.remove t.loop conn.fd;
    Hashtbl.remove t.conns (fd_int conn.fd);
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    t.conns_open <- t.conns_open - 1
  end

let out_pending conn = conn.out_len - conn.out_off

let out_append conn s =
  let n = String.length s in
  if conn.out_len + n > Bytes.length conn.obuf then begin
    let pending = out_pending conn in
    if pending > 0 && conn.out_off > 0 then
      Bytes.blit conn.obuf conn.out_off conn.obuf 0 pending;
    conn.out_off <- 0;
    conn.out_len <- pending;
    if pending + n > Bytes.length conn.obuf then begin
      let grown = Bytes.create (max (pending + n) (2 * Bytes.length conn.obuf)) in
      Bytes.blit conn.obuf 0 grown 0 pending;
      conn.obuf <- grown
    end
  end;
  Bytes.blit_string s 0 conn.obuf conn.out_len n;
  conn.out_len <- conn.out_len + n

let rec flush_out t conn =
  if conn.alive then begin
    let pending = out_pending conn in
    if pending = 0 then begin
      conn.out_off <- 0;
      conn.out_len <- 0
    end
    else
      match Unix.write conn.fd conn.obuf conn.out_off pending with
      | n ->
          conn.out_off <- conn.out_off + n;
          if n = pending then begin
            conn.out_off <- 0;
            conn.out_len <- 0
          end
          (* n < pending: the socket buffer filled mid-write; keep the
             remainder and wait for writability. *)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_out t conn
      | exception Unix.Unix_error (_, _, _) ->
          (* EPIPE / ECONNRESET / anything else: the peer is gone. *)
          close_conn t conn
  end

let enqueue_reply _t conn response =
  out_append conn (Wire.encode_response response);
  out_append conn "\n"

(* Refresh interest mask and the partial-line deadline after any
   activity.  The deadline arms when a partial line first appears and is
   deliberately NOT refreshed by further trickled bytes — a slow-loris
   sender cannot keep a line alive by dripping one byte per tick. *)
let settle t conn =
  if conn.alive then begin
    flush_out t conn;
    if conn.alive then begin
      let mask =
        (if Lineframe.has_room conn.frame then Evloop.readable else 0)
        lor (if out_pending conn > 0 then Evloop.writable else 0)
      in
      if mask <> conn.mask then begin
        conn.mask <- mask;
        Evloop.modify t.loop conn.fd mask
      end;
      if
        t.idle_timeout > 0. && (not conn.busy)
        && Lineframe.pending conn.frame
      then begin
        if conn.line_deadline = infinity then
          conn.line_deadline <- Clock.now () +. t.idle_timeout
      end
      else conn.line_deadline <- infinity
    end
  end

let rec process t conn =
  if conn.alive && not conn.busy then
    match Lineframe.next conn.frame with
    | `Await -> ()
    | `Too_long ->
        t.long_lines <- t.long_lines + 1;
        enqueue_reply t conn
          (Wire.Error
             {
               code = Wire.Bad_request;
               message =
                 Printf.sprintf
                   "line-too-long: request line exceeds %d bytes" t.max_line;
             });
        process t conn
    | `Line line -> (
        match Wire.decode_request line with
        | Error message ->
            enqueue_reply t conn
              (Wire.Error { code = Wire.Bad_request; message });
            process t conn
        | Ok request ->
            conn.busy <- true;
            Service.submit_async t.service request ~k:(completed t conn))

let rec read_pump t conn budget =
  if conn.alive && budget > 0 then
    match Lineframe.reserve conn.frame with
    | None -> () (* backpressure: settle drops read interest *)
    | Some (buf, off, room) -> (
        match Unix.read conn.fd buf off room with
        | 0 -> close_conn t conn
        | n ->
            Lineframe.commit conn.frame n;
            process t conn;
            if n = room then read_pump t conn (budget - 1)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) ->
            read_pump t conn budget
        | exception Unix.Unix_error (_, _, _) -> close_conn t conn)

(* -- accepting ---------------------------------------------------------- *)

let shed t fd =
  t.conns_rejected <- t.conns_rejected + 1;
  let line =
    Wire.encode_response
      (Wire.Error
         {
           code = Wire.Overload;
           message =
             Printf.sprintf "connection cap reached (%d open)" t.max_conns;
         })
    ^ "\n"
  in
  (try
     Unix.set_nonblock fd;
     ignore (Unix.write_substring fd line 0 (String.length line))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let add_conn t fd =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  let conn =
    {
      fd;
      frame = Lineframe.create ~max_line:t.max_line ();
      obuf = Bytes.create 1024;
      out_off = 0;
      out_len = 0;
      busy = false;
      alive = true;
      mask = Evloop.readable;
      line_deadline = infinity;
    }
  in
  Hashtbl.replace t.conns (fd_int fd) conn;
  Evloop.add t.loop fd Evloop.readable;
  t.conns_open <- t.conns_open + 1;
  t.conns_accepted <- t.conns_accepted + 1

let kill_listener t =
  if not t.listener_dead then begin
    t.listener_dead <- true;
    Evloop.remove t.loop t.listener;
    try Unix.close t.listener with Unix.Unix_error _ -> ()
  end

let pause_accept t =
  t.accept_backoffs <- t.accept_backoffs + 1;
  t.accept_pause_until <- Clock.now () +. t.accept_backoff;
  t.accept_backoff <- Float.min accept_backoff_max (2. *. t.accept_backoff);
  (* Keep the listener registered with an empty mask so readiness stops
     spinning the loop while paused. *)
  Evloop.modify t.loop t.listener 0

let rec accept_pump t =
  if (not t.listener_dead) && t.accept_pause_until = 0. then
    match Unix.accept ~cloexec:true t.listener with
    | fd, _ ->
        t.accept_backoff <- accept_backoff_base;
        if t.conns_open >= t.max_conns then shed t fd else add_conn t fd;
        accept_pump t
    | exception Unix.Unix_error (e, _, _) -> (
        match accept_action e with
        | `Drained -> ()
        | `Retry ->
            t.accept_retries <- t.accept_retries + 1;
            accept_pump t
        | `Backoff -> pause_accept t
        | `Stop -> kill_listener t)

(* -- event-loop body ---------------------------------------------------- *)

let drain_wake t =
  let buf = Bytes.create 256 in
  let rec go () =
    match Unix.read t.wake_r buf 0 256 with
    | 256 -> go ()
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let handle t fd mask =
  if fd = t.wake_r then drain_wake t
  else if fd = t.listener then begin
    if mask land (Evloop.readable lor Evloop.error) <> 0 then accept_pump t
  end
  else
    match Hashtbl.find_opt t.conns (fd_int fd) with
    | None -> () (* closed earlier in this batch *)
    | Some conn ->
        if mask land Evloop.error <> 0 then close_conn t conn
        else begin
          if mask land Evloop.writable <> 0 then flush_out t conn;
          if conn.alive && mask land Evloop.readable <> 0 then
            read_pump t conn read_burst;
          settle t conn
        end

let drain_completions t =
  let rec go () =
    Mutex.lock t.qlock;
    let batch = t.completions in
    t.completions <- [];
    Mutex.unlock t.qlock;
    match batch with
    | [] -> ()
    | batch ->
        List.iter
          (fun (conn, response) ->
            if conn.alive then begin
              enqueue_reply t conn response;
              conn.busy <- false;
              process t conn;
              settle t conn
            end)
          (List.rev batch);
        (* [process] answers control verbs synchronously, which lands new
           completions; loop until quiescent. *)
        go ()
  in
  go ()

let timers t =
  let now = Clock.now () in
  if t.accept_pause_until > 0. && now >= t.accept_pause_until then begin
    t.accept_pause_until <- 0.;
    if not t.listener_dead then begin
      Evloop.modify t.loop t.listener Evloop.readable;
      accept_pump t
    end
  end;
  if t.idle_timeout > 0. then begin
    let doomed =
      Hashtbl.fold
        (fun _ c acc -> if c.line_deadline <= now then c :: acc else acc)
        t.conns []
    in
    List.iter
      (fun c ->
        t.read_timeouts <- t.read_timeouts + 1;
        close_conn t c)
      doomed
  end

let next_timeout_ms t =
  let soonest = ref infinity in
  if t.accept_pause_until > 0. then
    soonest := Float.min !soonest t.accept_pause_until;
  if t.idle_timeout > 0. then
    Hashtbl.iter
      (fun _ c ->
        if c.line_deadline < !soonest then soonest := c.line_deadline)
      t.conns;
  if !soonest = infinity then -1
  else
    let ms = ceil (1000. *. (!soonest -. Clock.now ())) in
    max 1 (int_of_float (Float.min ms 60_000.))

let cleanup t =
  kill_listener t;
  let all = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  List.iter
    (fun c ->
      flush_out t c;
      close_conn t c)
    all;
  Mutex.lock t.qlock;
  t.wake_open <- false;
  t.completions <- [];
  Mutex.unlock t.qlock;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  Evloop.close t.loop

let rec loop_body t =
  let stopping =
    Mutex.lock t.lock;
    let s = t.state = `Stopped in
    Mutex.unlock t.lock;
    s
  in
  if stopping then cleanup t
  else begin
    ignore (Evloop.wait t.loop ~timeout_ms:(next_timeout_ms t) ~handle:(handle t));
    drain_completions t;
    timers t;
    loop_body t
  end

(* -- lifecycle ---------------------------------------------------------- *)

let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> () (* non-Unix platform *)

let create ?(backlog = 64) ?(max_conns = 1024) ?(idle_timeout = 0.)
    ?(max_line = default_max_line) ?(force_poll = false) ~port service =
  if max_conns <= 0 then invalid_arg "Server.create: max_conns <= 0";
  if max_line <= 0 then invalid_arg "Server.create: max_line <= 0";
  if not (idle_timeout >= 0.) then
    invalid_arg "Server.create: idle_timeout < 0 or NaN";
  ignore_sigpipe ();
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listener Unix.SO_REUSEADDR true;
     Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen listener backlog;
     Unix.set_nonblock listener
   with exn ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise exn);
  let port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let loop =
    try Evloop.create ~force_poll ()
    with exn ->
      (try Unix.close listener with Unix.Unix_error _ -> ());
      raise exn
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  Evloop.add loop listener Evloop.readable;
  Evloop.add loop wake_r Evloop.readable;
  let t =
    {
      service;
      listener;
      port;
      max_conns;
      idle_timeout;
      max_line;
      loop;
      wake_r;
      wake_w;
      qlock = Mutex.create ();
      completions = [];
      wake_open = true;
      conns = Hashtbl.create 64;
      lock = Mutex.create ();
      state = `Created;
      thread = None;
      loop_id = -1;
      conns_open = 0;
      conns_accepted = 0;
      conns_rejected = 0;
      read_timeouts = 0;
      long_lines = 0;
      accept_retries = 0;
      accept_backoffs = 0;
      accept_pause_until = 0.;
      accept_backoff = accept_backoff_base;
      listener_dead = false;
    }
  in
  Metrics.add_gauges (Service.metrics service) ~gauges:(fun () ->
      let f = float_of_int in
      [
        ("conns_open", f t.conns_open);
        ("conns_accepted", f t.conns_accepted);
        ("conns_rejected", f t.conns_rejected);
        ("read_timeouts", f t.read_timeouts);
        ("long_lines", f t.long_lines);
        ("accept_retries", f t.accept_retries);
        ("accept_backoffs", f t.accept_backoffs);
      ]);
  t

let start t =
  Mutex.lock t.lock;
  if t.state = `Created then begin
    t.state <- `Running;
    t.thread <-
      Some
        (Thread.create
           (fun t ->
             t.loop_id <- Thread.id (Thread.self ());
             loop_body t)
           t)
  end;
  Mutex.unlock t.lock

let run ?log_interval t =
  start t;
  match log_interval with
  | Some interval when interval > 0. ->
      let rec log_forever () =
        Thread.delay interval;
        Format.eprintf "%a@." Metrics.pp_line (Service.metrics t.service);
        log_forever ()
      in
      log_forever ()
  | _ ->
      let rec sleep_forever () =
        Thread.delay 3600.;
        sleep_forever ()
      in
      sleep_forever ()

let stop t =
  Mutex.lock t.lock;
  let prev = t.state in
  t.state <- `Stopped;
  let th = t.thread in
  t.thread <- None;
  Mutex.unlock t.lock;
  match prev with
  | `Stopped -> ()
  | `Running -> (
      wake t;
      match th with Some th -> Thread.join th | None -> ())
  | `Created -> cleanup t
