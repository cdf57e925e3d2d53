(** Batch-query daemon: a Unix/TCP socket server that dispatches JSON
    requests to a worker {!Pool} and answers repeated questions from a
    canonical-instance cache.

    The daemon is the transport and policy layer only — it knows nothing
    of graphs or games.  The embedder supplies the [handler] (runs in
    the pool workers) and the [cache_key] function (runs in the parent);
    [Daemon_service] in the [service] library instantiates both for the
    defender solvers.

    {b Wire protocol.}  Both directions speak {!Wire}'s length-delimited
    compact {!Json} frames.  A request is an object
    [{"id": any, "op": string, ...}]; the [id] is echoed verbatim in the
    response so clients may pipeline.  Ops [ping], [stats] and
    [shutdown] are answered by the daemon itself; every other op is
    offered to [cache_key] and then to the pool.  A response is
    [{"id":…, "ok":bool, "cached":bool, "result":…|"error":…,
    "metrics":{…}}]; the [metrics] object carries the live values of the
    three daemon counters.  On a cache hit the ["result"] value is the
    {e identical} JSON value that was cached, so its serialization is
    byte-identical to the cold response's (only the envelope differs:
    [cached] flips to [true] and the metrics move).

    {b Backpressure.}  At most [max_inflight] requests may be dispatched
    and unanswered; past that, a non-cached request is rejected
    immediately with [{"ok":false, "busy":true, …}] and counted in
    [daemon.busy_rejects].  Cache hits and parent-side ops are never
    rejected — they cost no worker.

    {b Caching.}  [cache_key] maps a request to [Some key] when the
    answer is safely shareable under that key (for the defender service:
    canonical graph6 + game + parameters, solve only — label-dependent
    results must return [None]; an [Invalid_argument] it raises counts
    as [None], any other exception escapes).  Only worker responses with
    [{"ok":true}] are stored; handler-level errors are recomputed each
    time.  Eviction is least-recently-used, capacity [cache_entries]
    (0 disables caching).

    {b Frame safety.}  A frame whose declared length exceeds [max_frame]
    is rejected from its header alone; that and any other framing error
    is answered with one [{"ok":false, "error":"bad frame: …"}]
    diagnostic and the connection is closed.  The daemon survives.

    {b Counters.}  [daemon.requests] (well-formed request frames
    received, every op), [daemon.cache_hits], [daemon.busy_rejects].
    All three are deterministic functions of the request sequence; they
    are reported live in every response envelope and mirrored into
    {!Obs} counters of the same names.

    {b Shutdown.}  A [shutdown] request, SIGTERM or SIGINT puts the
    daemon into drain: it stops accepting connections, answers new
    requests with a ["daemon is draining"] error, finishes everything
    already dispatched, tears the pool down, removes the Unix socket
    file, and returns its final {!stats}. *)

type address =
  | Unix_socket of string  (** filesystem path *)
  | Tcp of string * int  (** host (name or dotted quad), port *)

type stats = { requests : int; cache_hits : int; busy_rejects : int }

(** [serve ~address ~workers ~cache_key handler] binds, forks the worker
    pool, and runs the event loop until drained; returns the final
    counter values.  [handler] runs in the workers on each request
    object and must return [{"ok":true, "result":…}] or
    [{"ok":false, "error":"…"}] — it should catch its own exceptions,
    since an escaped one costs a worker respawn and (after one retry)
    surfaces as a ["worker crashed"] error.  [timeout] is the per-request
    budget in seconds, enforced by the pool ({!Pool.create}).
    [on_ready] is called with the bound socket address after [listen]
    succeeds and before the first [accept] — the hook tests and the CLI
    use to learn the actual port of [Tcp (_, 0)] and to signal
    readiness.
    @raise Invalid_argument when [workers < 1], [timeout <= 0],
    [max_inflight < 1] or [max_frame < 1].
    @raise Unix.Unix_error when the address cannot be bound. *)
val serve :
  address:address ->
  workers:int ->
  ?timeout:float ->
  ?max_inflight:int ->
  ?cache_entries:int ->
  ?max_frame:int ->
  ?on_ready:(Unix.sockaddr -> unit) ->
  cache_key:(Json.t -> string option) ->
  (Json.t -> Json.t) ->
  stats

(** Minimal blocking client for scripts and tests: one request, one
    response, in order. *)
module Client : sig
  type conn

  (** [connect address] opens a connection; with [retries] > 0 a refused
      or missing socket is retried that many times, [delay] seconds
      apart — for racing a daemon that is still binding.
      @raise Unix.Unix_error when every attempt fails. *)
  val connect : ?retries:int -> ?delay:float -> address -> conn

  (** [request conn msg] writes one frame and blocks for one response
      frame.  [Error _] covers transport failures (closed connection,
      unparseable response); protocol-level failures come back as
      [Ok {"ok":false, …}]. *)
  val request : conn -> Json.t -> (Json.t, string) result

  val close : conn -> unit
end
