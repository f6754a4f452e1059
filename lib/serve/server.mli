(** TCP front end for a {!Service}: newline-delimited {!Wire} messages
    over a single-threaded readiness event loop ({!Evloop}: epoll on
    Linux, poll elsewhere).

    One event thread owns every descriptor: it accepts on a non-blocking
    listener, reads into per-connection reused buffers ({!Lineframe}),
    decodes complete lines, and hands requests to
    {!Service.submit_async}; executor completions are queued back to the
    loop (self-pipe wakeup), which writes replies with partial-write
    continuation.  Replies the service completes on the event thread
    itself (control verbs, reads answered inline) join the same queue
    without a wakeup: the loop drains it after every wait.  A connection is a serial request/response stream —
    clients may pipeline request lines freely; the server buffers them
    (with backpressure past the line bound) and answers strictly in
    order, so replies are byte-identical to direct {!Service.submit}
    calls.  Concurrency comes from many connections, which cost a
    buffer each, not a thread each.

    Failure modes are contained by construction:

    - transient accept errors (EINTR, ECONNABORTED) retry immediately;
      descriptor exhaustion (EMFILE, ENFILE, ...) pauses accepting with
      exponential backoff and retries — only a dead listener stops the
      loop (see {!accept_action});
    - SIGPIPE is ignored at {!create}, and EPIPE/ECONNRESET on any
      connection are clean teardown, never process death;
    - request lines are bounded ([max_line], default 64 KiB): an
      over-limit line costs one [err bad-request] reply and input is
      discarded to the next newline, after which the connection works
      normally;
    - a connection cap ([max_conns]) sheds excess accepts gracefully
      with a best-effort [err overload] line before closing;
    - a partial request line older than [idle_timeout] closes the
      connection (slow-loris defense).  Connections idling with an
      *empty* buffer are never reaped — mostly-idle long-lived
      conversations are the design workload.

    The loop exports [conns_open], [conns_accepted], [conns_rejected],
    [read_timeouts], [long_lines], [accept_retries] and
    [accept_backoffs] into the service's [stats] via
    {!Metrics.add_gauges}. *)

type t

val default_max_line : int
(** 65536 — the longest accepted request line, newline exclusive. *)

val create :
  ?backlog:int ->
  ?max_conns:int ->
  ?idle_timeout:float ->
  ?max_line:int ->
  ?force_poll:bool ->
  port:int ->
  Service.t ->
  t
(** Bind and listen on 127.0.0.1:[port] ([port] 0 picks an ephemeral
    port — read it back with {!port}).  [backlog] defaults to 64,
    [max_conns] to 1024 open connections, [idle_timeout] to 0 (no
    partial-line deadline), [max_line] to {!default_max_line};
    [force_poll] selects the portable poll(2) backend even on Linux.
    Ignores SIGPIPE process-wide.
    @raise Unix.Unix_error when the address is taken.
    @raise Invalid_argument on non-positive [max_conns]/[max_line] or a
    negative/NaN [idle_timeout]. *)

val port : t -> int
(** The actually bound port. *)

val start : t -> unit
(** Launch the event loop in a background thread and return. *)

val run : ?log_interval:float -> t -> unit
(** {!start}, plus a periodic {!Metrics.pp_line} log line to stderr every
    [log_interval] seconds (omit to disable), then block forever — the
    daemon main loop. *)

val stop : t -> unit
(** Shut the connection plane down: close the listener, flush what can
    be written without blocking, close every connection, release the
    event backend and join the event thread (no thread or descriptor
    outlives this call).  In-flight requests still complete inside the
    service; their replies are dropped.  The service itself is left
    running (callers that own it should {!Service.shutdown} it
    separately).  Idempotent. *)

val accept_action :
  Unix.error -> [ `Retry | `Drained | `Backoff | `Stop ]
(** Classification of [accept(2)] failures, exposed for the
    fault-injection tests: [`Retry] — transient per-connection trouble
    (EINTR, ECONNABORTED), try again immediately; [`Drained] — EAGAIN /
    EWOULDBLOCK, the backlog is empty; [`Backoff] — resource exhaustion
    (EMFILE, ENFILE, ENOBUFS, ENOMEM) and anything unrecognized, pause
    accepting with exponential backoff (50 ms doubling to 1 s) and
    retry; [`Stop] — the listener itself is gone (EBADF, EINVAL,
    ENOTSOCK). *)
