(** Wall-clock timing helpers for the scaling figures (Bechamel handles
    the microbenchmarks; these cover one-shot algorithm timings).

    All readings come from the system's monotonic clock, not from
    [Unix.gettimeofday]: an NTP step cannot produce negative or skewed
    durations here.  Durations are clamped at zero regardless. *)

(** Monotonic timestamp in seconds.  The epoch is arbitrary (boot time on
    Linux) — only differences between two [now] readings are meaningful. *)
val now : unit -> float

(** [time f] is [(result, seconds)].  [seconds >= 0.] always. *)
val time : (unit -> 'a) -> 'a * float

(** Median of an already-sorted sample list, in seconds.  Tie-break for
    even sample counts: the two central samples are {e averaged} (the
    standard estimator — returning the upper one biases the median
    upward by half the central gap); odd counts return the middle sample
    unchanged, bit-identical to the historical behaviour.
    @raise Invalid_argument on an empty list. *)
val median_of_sorted : float list -> float

(** Repeated timing with spread, for structured timing artifacts: a
    single median point hides scheduler noise, so the JSON cells carry
    [(median, min, max, runs)].  All values in seconds. *)
type stats = { median : float; min : float; max : float; runs : int }

(** Time [f] [repeat] times (default 5), discarding results, and
    summarize the durations; [median] follows the {!median_of_sorted}
    tie-break. @raise Invalid_argument when [repeat < 1]. *)
val time_stats : ?repeat:int -> (unit -> 'a) -> stats
