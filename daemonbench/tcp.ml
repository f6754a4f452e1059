(* The daemon as a child process and the client side of its wire protocol.

   The daemon runs in its own process with one executor domain: OCaml 5
   minor collections stop every domain of a process, so a client sharing
   the process would stall the executor whenever it allocated.  One client
   thread drives both connections with select(2); each connection is a
   closed loop that sends its next request only after the reply to the
   previous one has arrived. *)

type daemon = { pid : int; port : int; banner : Unix.file_descr }

let live : int list ref = ref []

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) d.pid) !live;
  Unix.close d.banner

(* A run that dies on an exception must not leave a daemon behind. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let rec restart f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart f

(* Read one line from [fd], waiting at most [timeout] seconds overall. *)
let read_banner fd ~timeout =
  let deadline = Serve.Clock.now () +. timeout in
  let buf = Buffer.create 128 and byte = Bytes.create 1 in
  let rec go () =
    let left = deadline -. Serve.Clock.now () in
    if left <= 0. then failwith "daemon did not announce its port in time";
    match restart (fun () -> Unix.select [ fd ] [] [] left) with
    | [], _, _ -> go ()
    | _ -> (
        match restart (fun () -> Unix.read fd byte 0 1) with
        | 0 -> failwith "daemon exited before announcing its port"
        | _ when Bytes.get byte 0 = '\n' -> Buffer.contents buf
        | _ ->
            Buffer.add_char buf (Bytes.get byte 0);
            go ())
  in
  go ()

let port_of_banner line =
  let key = "127.0.0.1:" in
  let rec find i =
    if i + String.length key > String.length line then
      failwith ("no port in daemon banner: " ^ line)
    else if String.sub line i (String.length key) = key then i + String.length key
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < String.length line && line.[!stop] >= '0' && line.[!stop] <= '9' do
    incr stop
  done;
  int_of_string (String.sub line start (!stop - start))

let spawn exe =
  let banner, out = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--port"; "0"; "--domains"; "1"; "--log-interval"; "0" |]
      null out null
  in
  Unix.close out;
  Unix.close null;
  live := pid :: !live;
  match port_of_banner (read_banner banner ~timeout:60.) with
  | port -> { pid; port; banner }
  | exception e ->
      kill { pid; port = 0; banner };
      raise e

(* ---- connections ---------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Bytes.t;
  mutable start : int;
  mutable stop : int;
  mutable outbuf : Bytes.t;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  restart (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)));
  { fd; inbuf = Bytes.create 65536; start = 0; stop = 0; outbuf = Bytes.create 4096 }

let close c = Unix.close c.fd

(* One write of [line] and its newline. *)
let send c line =
  let n = String.length line + 1 in
  if Bytes.length c.outbuf < n then c.outbuf <- Bytes.create (2 * n);
  Bytes.blit_string line 0 c.outbuf 0 (n - 1);
  Bytes.set c.outbuf (n - 1) '\n';
  let off = ref 0 in
  while !off < n do
    off := !off + restart (fun () -> Unix.write c.fd c.outbuf !off (n - !off))
  done

(* A complete buffered line, if any. *)
let take_line c =
  let rec find i =
    if i >= c.stop then None
    else if Bytes.get c.inbuf i = '\n' then begin
      let line = Bytes.sub_string c.inbuf c.start (i - c.start) in
      c.start <- i + 1;
      Some line
    end
    else find (i + 1)
  in
  find c.start

let fill c =
  if c.start > 0 then begin
    Bytes.blit c.inbuf c.start c.inbuf 0 (c.stop - c.start);
    c.stop <- c.stop - c.start;
    c.start <- 0
  end;
  if c.stop = Bytes.length c.inbuf then failwith "reply line longer than 64 KiB";
  let room = Bytes.length c.inbuf - c.stop in
  match restart (fun () -> Unix.read c.fd c.inbuf c.stop room) with
  | 0 -> failwith "daemon closed the connection"
  | n -> c.stop <- c.stop + n

let rec recv c = match take_line c with Some l -> l | None -> fill c; recv c

let roundtrip c line =
  send c line;
  recv c

let stats c =
  match Serve.Wire.decode_response (roundtrip c "stats") with
  | Ok (Serve.Wire.Stats_result kv) -> kv
  | _ -> failwith "stats: unexpected reply"

(* ---- the timed closed loops ------------------------------------------ *)

type trip = { line : string; reply : string; sent : float; received : float }

(* Drive every connection's cursor to the end.  Per connection, the
   exchanges in order with their send and receive instants.  With
   [~trace:(tr, k)], each round trip is also recorded as a [client.rt]
   span of traced round [k] as its reply arrives. *)
let drive ?trace conns cursors =
  let n = Array.length conns in
  let sent_at = Array.make n 0. and pending = Array.make n "" in
  let trips = Array.make n [] and active = Array.make n false in
  let count = Array.make n 0 in
  let send_next i line =
    pending.(i) <- line;
    active.(i) <- true;
    sent_at.(i) <- Serve.Clock.now ();
    send conns.(i) line
  in
  let rec deliver i =
    match take_line conns.(i) with
    | None -> ()
    | Some reply -> (
        let received = Serve.Clock.now () in
        trips.(i) <-
          { line = pending.(i); reply; sent = sent_at.(i); received } :: trips.(i);
        (match trace with
        | Some (tr, k) ->
            ignore
              (Trace.add tr ~name:"client.rt" ~parent:(-1)
                 ~req:(Trace.round_req k (Trace.conn_req i count.(i)))
                 ~start:sent_at.(i) ~stop:received)
        | None -> ());
        count.(i) <- count.(i) + 1;
        active.(i) <- false;
        match Script.advance cursors.(i) reply with
        | Some line ->
            send_next i line;
            deliver i
        | None -> ())
  in
  Array.iteri (fun i cur -> Option.iter (send_next i) (Script.start cur)) cursors;
  let rec loop () =
    let fds =
      List.filter_map
        (fun i -> if active.(i) then Some conns.(i).fd else None)
        (List.init n Fun.id)
    in
    if fds <> [] then begin
      let ready, _, _ = restart (fun () -> Unix.select fds [] [] (-1.)) in
      Array.iteri
        (fun i c ->
          if active.(i) && List.mem c.fd ready then begin
            fill c;
            deliver i
          end)
        conns;
      loop ()
    end
  in
  loop ();
  Array.map (fun l -> Array.of_list (List.rev l)) trips

(* The index of the trip of [trips] (in send order) in flight at instant
   [at]: sent at or before it and answered after it. *)
let in_flight (trips : trip array) at =
  let rec go lo hi =
    (* The last trip sent at or before [at] lies in [lo, hi). *)
    if hi - lo <= 1 then
      if lo < Array.length trips && trips.(lo).sent <= at && at < trips.(lo).received
      then Some lo
      else None
    else
      let mid = (lo + hi) / 2 in
      if trips.(mid).sent <= at then go mid hi else go lo mid
  in
  go 0 (Array.length trips)
