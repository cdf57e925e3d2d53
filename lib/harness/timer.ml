(* The clock is monotonic (CLOCK_MONOTONIC via bechamel's stub): the
   previous Unix.gettimeofday source is subject to NTP steps, so a clock
   adjustment mid-measurement could produce negative or wildly skewed
   durations that flowed straight into time_stats medians and the
   B-series artifacts.  Durations are additionally clamped at zero as a
   belt-and-braces guard (a clamp can only fire if the clock source
   itself misbehaves). *)

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let time f =
  let start = now () in
  let result = f () in
  (result, Float.max 0.0 (now () -. start))

type stats = { median : float; min : float; max : float; runs : int }

let sorted_samples ~who ~repeat f =
  if repeat < 1 then invalid_arg (who ^ ": repeat must be positive");
  List.sort compare (List.init repeat (fun _ -> snd (time f)))

(* Even sample counts have no middle element; taking the upper central
   sample (the old behaviour) biases every even-repeat median upward by
   half the central gap.  The standard estimator — average the two
   central samples — fixes that, while odd counts return the middle
   sample unchanged, so historical odd-repeat output is bit-identical. *)
let median_of_sorted = function
  | [] -> invalid_arg "Timer.median_of_sorted: empty list"
  | samples ->
      let n = List.length samples in
      if n mod 2 = 1 then List.nth samples (n / 2)
      else ((List.nth samples ((n / 2) - 1)) +. List.nth samples (n / 2)) /. 2.0

let time_stats ?(repeat = 5) f =
  let samples = sorted_samples ~who:"Timer.time_stats" ~repeat f in
  {
    median = median_of_sorted samples;
    min = List.hd samples;
    max = List.nth samples (repeat - 1);
    runs = repeat;
  }
