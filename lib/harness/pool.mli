(** Persistent pre-forked worker pool: the harness's one parallel
    engine.

    A pool forks its workers {e once}; each lives across jobs with
    whatever caches it has warmed, receives jobs as length-delimited
    {!Json} frames on a per-worker request pipe and answers on a
    response pipe ({!Wire} owns the framing and does every read), and
    is reaped only at {!shutdown}.  Job frames are the only traffic:
    health is checked without worker I/O ({!alive}).  Process
    isolation, not OCaml domains, on purpose: a worker that overflows
    its stack, trips the OOM killer or is signalled dies alone, and the
    parent reaps a wait status instead of sharing its fate.  Results come back as {!Json} (never [Marshal]), so
    a corrupt or truncated response is a detectable {!Crashed} outcome,
    not a segfault in the reader.

    One front-end: {!create} forks the workers around [f : Json.t ->
    Json.t]; {!submit} queues a job carrying a JSON payload; the caller
    owns the select loop — it collects {!resp_fds}, selects, and hands
    the readable descriptors to {!step}, which returns whatever
    completions materialized.  The parent keeps one shared FIFO backlog
    and each worker holds one job in flight: the next idle worker takes
    the head of the backlog, so one slow job never strands the work
    queued behind it.  The {!Daemon} runs this loop; so does the one-call
    batch {!run}, the experiment registry's engine, whose payload is the
    job index.

    {b Fault tolerance}.  A worker that dies mid-job
    (signal, OOM kill, nonzero exit, corrupt response stream) is
    respawned and the job is retried once on a fresh worker before being
    reported {!Crashed}.  A worker past the per-job [timeout] is
    SIGKILLed and its job reported as a timeout crash with {e no}
    retry (re-running it would double the blown budget).  In both cases
    a complete buffered response beats the crash/timeout verdict: a
    worker that answered and was killed at the deadline completed.

    {b Worker signals.}  Workers restore the default (lethal)
    dispositions for SIGTERM and SIGINT on startup.  A parent embedding
    the pool in a daemon typically installs flag-setting drain handlers
    for those signals; inheriting such a handler would leave a worker
    alive — and soon orphaned — when a supervisor signals the whole
    process group.  The worker's {e graceful} exit path is unchanged:
    EOF on its request pipe.

    {b Counters} (recorded in the parent, so they surface as the
    driver's orchestration-side metrics, never inside an experiment's
    own delta): [pool.dispatches] (jobs sent to workers, retries
    included — deterministic) and [pool.respawns] (workers replaced
    after a death — deterministic when the crashes are). *)

(** How one job settled. *)
type outcome =
  | Completed of Json.t  (** the worker answered with this payload *)
  | Crashed of { reason : string; wall : float }
      (** the worker died on both attempts (signal, nonzero exit),
          answered with a corrupt response stream, or was killed at the
          timeout; [wall] is seconds from the last dispatch to
          settlement *)

type t

(** [create ~workers ?timeout f] forks [workers] persistent worker
    processes around [f]; {!submit} with [~arg:req] makes some worker
    compute [f req].  [f] runs in the workers: state it mutates there is
    invisible to the parent and survives {e across jobs within one
    worker} (warm caches are the point), but never crosses workers.
    [timeout] is the per-job budget in seconds.
    @raise Invalid_argument when [workers < 1] or [timeout <= 0]. *)
val create : workers:int -> ?timeout:float -> (Json.t -> Json.t) -> t

val worker_count : t -> int

(** Pids of the currently live workers, in slot order — for supervision
    and for tests that assert workers are reaped. *)
val worker_pids : t -> int list

(** Liveness snapshot without worker I/O: a non-blocking [waitpid] per
    worker.  A worker found dead is reaped and marked (the next {!step}
    respawns it). *)
val alive : t -> bool list

(** {2 Driving the pool}

    The caller owns the event loop.  Each iteration: {!submit} any new
    work, build a select set from {!resp_fds} (plus the caller's own
    descriptors), bound the wait by {!next_deadline}, select, then call
    {!step} with the pool descriptors that were readable.  {!step} also
    dispatches backlog and enforces deadlines, so it must be called
    periodically even when nothing was readable (a select timeout). *)

(** [submit t ~arg ticket] queues one job computing [f arg].  [ticket]
    is an opaque caller id echoed back with the outcome — the pool never
    interprets it, and duplicates are the caller's own affair.
    @raise Invalid_argument after {!shutdown}. *)
val submit : t -> arg:Json.t -> int -> unit

(** Jobs submitted but not yet returned by {!step}. *)
val pending : t -> int

(** Response descriptors of the live workers — the pool's contribution
    to the caller's select set.  Collect these {e fresh before every
    select}: {!step} may close some (dead workers) and open others
    (respawns). *)
val resp_fds : t -> Unix.file_descr list

(** Earliest absolute deadline over in-flight jobs, as a {!Timer.now}
    value — the caller caps its select timeout at this so late workers
    are killed on time.  [None] when nothing in flight has a deadline. *)
val next_deadline : t -> float option

(** [step t ~readable] advances the pool: respawns dead workers,
    dispatches backlog to idle ones, consumes the [readable] response
    descriptors (completions, crash detection), kills workers past their
    deadline, dispatches again to workers just freed, and returns the
    jobs that settled as [(ticket, outcome)] in settlement order.
    [readable] entries that are not pool descriptors are ignored.
    @raise Invalid_argument after {!shutdown}. *)
val step : t -> readable:Unix.file_descr list -> (int * outcome) list

(** Graceful drain, idempotent: close every request pipe — a worker
    reads EOF at its next frame boundary and exits 0 — then reap all
    workers.  Workers still busy (a submitted job is in flight) are
    killed rather than waited for. *)
val shutdown : t -> unit

(** [run ~jobs ?timeout count f] runs jobs [0 .. count-1] as one batch
    on a transient pool of [min jobs count] workers — it submits each
    index as a payload and runs the {!step} loop until nothing is
    pending — drains it, and returns the outcome of [f i] indexed by
    [i].  [timeout] is per job,
    in seconds.  [f] runs in the workers: state it mutates is invisible
    to the parent.
    @raise Invalid_argument when [jobs < 1], [timeout <= 0] or
    [count < 0]. *)
val run :
  jobs:int -> ?timeout:float -> int -> (int -> Json.t) -> outcome array
