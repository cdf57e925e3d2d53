(** The experiment registry: registration, lookup, filtered execution
    and summary roll-up.

    A single process-global registry (the bench driver and the CLI both
    register the same experiment set); tests that need isolation call
    {!clear}.  Registration order is preserved everywhere — listings,
    selection, execution and the JSON report all follow it. *)

val register : Experiment.t -> unit
(** @raise Invalid_argument on a duplicate id. *)

val clear : unit -> unit
(** Empty the registry (for tests). *)

val all : unit -> Experiment.t list
(** Registered experiments, in registration order. *)

val ids : unit -> string list

val find : string -> Experiment.t option

val select : only:string list -> (Experiment.t list, string) result
(** The registered experiments whose id is in [only], in registration
    order; [Error] names the unknown ids if any. *)

val filter_tag : Experiment.tag -> Experiment.t list

type summary = {
  total : int;
  pass : int;
  info : int;
  degraded : int;
  crashed : int;  (** worker processes that died or timed out *)
  checks_total : int;
  checks_failed : int;
  wall : float;  (** summed experiment wall clock, seconds *)
}

val summarize : Experiment.result list -> summary

val summary_table : Experiment.result list -> string
(** Aligned per-experiment verdict/check/time table plus a totals line,
    rendered through {!Table}. *)

val metrics_table : ?driver:Experiment.metrics -> Experiment.result list -> string
(** Render the sweep's observability metrics: one table summing every
    deterministic and volatile counter over all results (volatile names
    are marked), and one summing span call counts (with total seconds
    when any run traced).  [driver] adds the orchestration-side delta —
    worker-pool counters the parent process records outside any
    experiment.  Empty string when nothing was recorded. *)

val run :
  ?scale:Experiment.scale ->
  ?echo:(string -> unit) ->
  Experiment.t list ->
  Experiment.result list
(** Run the experiments in order.  [echo] (default: nothing) receives
    each experiment's text rendering as soon as it completes, so the
    driver can stream the legacy output. *)

val run_parallel :
  ?scale:Experiment.scale ->
  ?jobs:int ->
  ?timeout:float ->
  ?force_crash:string list ->
  ?echo:(string -> unit) ->
  Experiment.t list ->
  Experiment.result list
(** Run the experiments on a transient {!Pool} of [jobs] (default 1)
    workers, reassembling results in registration order regardless of
    completion order.  Workers live across experiments; a worker that
    dies (signal, OOM kill, stack overflow) is respawned and its
    experiment retried once, and one that dies again or exceeds
    [timeout] seconds yields an {!Experiment.crashed} result for that
    experiment only — the sweep still completes.  [force_crash] ids
    have their worker killed deliberately on every attempt
    (fault-injection hook).  [echo] receives the renderings in
    registration order after the sweep finishes.  With [jobs = 1], no
    [timeout] and no [force_crash], this {e is} {!run} — no fork,
    streaming echo, byte-identical output.
    @raise Invalid_argument when [jobs < 1] or [timeout <= 0]. *)

val report_json :
  scale:Experiment.scale -> Experiment.result list -> Json.t
(** The full artifact: schema header, one object per experiment (see
    {!Experiment.result_to_json}) and the roll-up summary. *)

val strip_timings : Json.t -> Json.t
(** Remove every nondeterministic field from an artifact: [wall_s],
    [timings], span [total_s] durations and metrics [volatile] sections
    everywhere (the listed keys are dropped wherever they appear), and
    float-valued (or null) entries inside [measures] objects — all
    float measures in the registry derive from the clock, while exact
    content is [Int]/[Bool]/rational-string.  Deterministic counters
    and span call counts are {e kept}: two sweeps of the same registry
    at the same scale and recording level strip to byte-identical
    documents regardless of [--jobs], counters included. *)
