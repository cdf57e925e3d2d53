(** Typed experiment descriptors with structured results.

    Every experiment of EXPERIMENTS.md (tables T1–T12, ablations A1–A2,
    figures F1–F6, microbenchmarks B0–B12) is a first-class value: an id,
    the paper claim it regenerates, the expected outcome, a tag, and a
    run function.  Running one produces a {!result} that carries the
    legacy text rendering {e and} machine-readable data — check
    counters, typed measured values (exact rationals included), and
    timing cells with spread — so "44/44 rows agree" is data an external
    tool can diff, not prose.  {!Registry} collects descriptors and
    rolls results up into the [BENCH_*.json] artifacts. *)

type tag = Table | Figure | Micro | Extension

(** [Smoke] runs a reduced-size variant (fewer samples/rounds/sizes,
    same seeds) suitable for [dune runtest]; [Full] regenerates the
    published numbers. *)
type scale = Smoke | Full

(** Derived from the check counters: [Pass] when every recorded check
    held, [Degraded] when at least one failed (or the run raised),
    [Info] when the experiment records no checks (timing-only
    microbenchmarks).  [Crashed] is never produced by {!run} — it is
    synthesized (see {!crashed}) when a worker process running the
    experiment died outright: killed by a signal, out of memory, or past
    its timeout.  In-process exceptions are [Degraded]; only process
    death is [Crashed]. *)
type verdict = Pass | Info | Degraded | Crashed

(** A measured value.  Rationals stay exact ([Exact.Q.t]); they are
    rendered to JSON as strings like ["8/3"]. *)
type value =
  | Int of int
  | Rat of Exact.Q.t
  | Float of float
  | Str of string
  | Bool of bool

type timing = Timer.stats = {
  median : float;
  min : float;
  max : float;
  runs : int;
}

(** The mutable context threaded through a run: accumulates text output,
    checks, measures and timings. *)
type ctx

val scale : ctx -> scale
val is_smoke : ctx -> bool

(** Append to the experiment's text rendering (the driver echoes it, so
    full-scale table output stays byte-compatible with the historical
    [Table.print]-based harness). *)
val out : ctx -> string -> unit

val outf : ctx -> ('a, unit, string, unit) format4 -> 'a

(** [check ctx ~label ok] records one pass/fail check and returns [ok]
    (so table rows can render the same boolean).  Labels of failed
    checks are kept in the result for diagnostics. *)
val check : ctx -> label:string -> bool -> bool

(** Record a named measured value.  Re-measuring a name overwrites. *)
val measure : ctx -> string -> value -> unit

(** [time ctx name ?repeat f] times [f] with {!Timer.time_stats},
    records the timing cell under [name], and returns [f ()]'s result. *)
val time : ctx -> string -> ?repeat:int -> (unit -> 'a) -> 'a

(** Record an externally produced timing cell (e.g. from a figure's own
    sweep). *)
val record_timing : ctx -> string -> timing -> unit

type t = {
  id : string;  (** "T6", "F2", "B7", ... — unique within a registry *)
  claim : string;  (** the paper claim (or extension) being regenerated *)
  expected : string;  (** what outcome reproduces the claim *)
  tag : tag;
  game : string;
      (** which GAME instance the experiment exercises ("tuple",
          "subgraph"); versioned into artifacts for non-tuple games *)
  run : ctx -> unit;
}

(** One span's contribution to a result: how many times it was entered,
    and — only when the run traced ([--trace]) — the accumulated
    inclusive wall time.  The count obeys the {!Obs} determinism
    contract; the duration is timing data and is stripped with the rest
    (see {!Registry.strip_timings}). *)
type span_metric = { calls : int; total_s : float option }

(** The {!Obs} delta attributed to one experiment run, each section
    sorted by name (see {!Obs.delta}). *)
type metrics = {
  m_counters : (string * int) list;  (** deterministic counters *)
  m_volatile : (string * int) list;  (** volatile counters *)
  m_spans : (string * span_metric) list;
}

(** Convert an {!Obs.delta} into result metrics.  Span durations are
    kept only when the current level is {!Obs.Trace} — at [Counters]
    the clock was never read, so the accumulated 0.0s would be noise,
    not data.  {!run} uses this; the driver reuses it for its own
    (orchestration-side) delta. *)
val metrics_of_obs : Obs.metrics -> metrics

type result = {
  id : string;
  claim : string;
  expected : string;
  tag : tag;
  game : string;  (** defaults to ["tuple"] when absent from the wire *)
  verdict : verdict;
  checks_total : int;
  checks_failed : int;
  failed_labels : string list;  (** labels of failed checks, run order *)
  measures : (string * value) list;  (** insertion order *)
  timings : (string * timing) list;  (** insertion order *)
  metrics : metrics option;
      (** [Some] iff observability was recording when the run started
          ([--metrics]/[--trace]); [None] for {!crashed} results *)
  text : string;  (** the legacy text rendering *)
  wall : float;  (** whole-experiment wall clock, seconds *)
}

(** Execute the experiment (default scale [Full]).  A raised exception
    is captured as a failed check, so a crashing experiment yields a
    [Degraded] result instead of killing the sweep. *)
val run : ?scale:scale -> t -> result

(** Force a result's verdict to [Degraded] (testing/CI hook for
    exercising the driver's nonzero-exit path). *)
val degrade : reason:string -> result -> result

(** [crashed t ~reason ~wall] is the result recorded for an experiment
    whose worker process died before reporting: verdict [Crashed], one
    failed check labelled [reason], no measures or timings, and a
    one-line text rendering. *)
val crashed : t -> reason:string -> wall:float -> result

(** One JSON object per result: id, claim, expected, tag, verdict,
    check counts, measures, timings, metrics (only when recorded) and
    wall time.  The ["metrics"] object always carries its three
    sections ([counters], [volatile], [spans]); span cells are
    [{"count": n}] plus ["total_s"] at trace level. *)
val result_to_json : result -> Json.t

(** {!result_to_json} plus the ["text"] rendering — the envelope a
    worker process sends back over its pipe. *)
val result_to_wire : result -> Json.t

(** Inverse of {!result_to_wire}, up to value typing: [Rat] measures
    come back as [Str] with the same "n/d" content and non-finite floats
    as nan, both of which re-render to identical artifact bytes.  Also
    reads {!result_to_json} output — an artifact's experiment entry —
    whose missing ["text"] decodes as [""]. *)
val result_of_json : Json.t -> (result, string) Stdlib.result

val tag_to_string : tag -> string
val verdict_to_string : verdict -> string
val scale_to_string : scale -> string
