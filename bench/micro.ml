(* B0-B15, B17-B19: microbenchmarks and kernel-correctness checks.

   B0 ports the former standalone smoke pass: exact kernel = naive
   equality assertions (payoff tables, incremental deviation chains,
   fictitious play bit-for-bit) as a checked experiment that runs at both
   scales.

   B1-B12 are Bechamel microbenchmarks of the computational kernels, one
   registered experiment each (ns/run from the OLS estimate against the
   monotonic clock).  B7-B12 pair the engine kernel query path against
   the naive support-rescanning oracle (a Profile.rescan profile for
   B8/B10, Fictitious.run ~naive:true for B12) on the acceptance
   instance (grid 10x12, n = 120, k = 5, nu = 6); each naive experiment
   also reports the speedup against its kernel partner (the partner's
   estimate from the same process when it ran there, otherwise a fresh
   in-process timing of the partner's thunk) and, at full scale, checks
   speedup >= 2x.  At smoke scale the Bechamel quota is reduced and
   timing checks are skipped.

   B13 times the numeric tower (lib/rational): a small-path op mix,
   checked against its exact value, and a sum that promotes to big
   rationals.

   B14 gates the parallel runner (the persistent worker pool behind
   --jobs): a 4-worker sweep of a fixed experiment subset must
   reassemble the timing-stripped sequential artifact byte for byte —
   counter metrics included, so the Obs determinism contract is gated
   here too — with the wall-clock speedup reported as timing cells.

   B15 gates the observability layer's disabled cost: the instrumented
   B7 best-response sweep with recording off against an uninstrumented
   in-process copy (<= 1.05x at full scale), counters-on cost reported
   informationally.

   B17 times the CSR graph substrate: construction, neighbour traversal
   and Hopcroft-Karp on the flat offset/neighbour arrays, ns per edge
   each, with the traversal checksum and the matching size certified.

   B18 gates the query daemon's canonical-instance solve cache: a forked
   daemon on a private socket answers the same solve cold then warm; the
   warm reply must be a cache hit with a byte-identical payload, and at
   full scale its round-trip latency must sit well below the cold
   solve's.

   B19 times Graph6.canonical, the daemon's cache key, on fresh
   relabelings of the shapes the canon-storm load workload sends, with
   every shape's relabelings checked to share one key, and records the
   minor words one run allocates.

   The ns-per-run and ns-per-edge timings (B1-B13, B17, B19) are gated
   across commits rather than in process: `check_artifact --compare
   OLD NEW` fails when one of them slows down against the rest between
   two full-scale artifacts. *)

open Bechamel
open Toolkit
module E = Harness.Experiment
module Q = Exact.Q
module Engine = Defender.Tuple_instance.Engine
module Sim_tuple = Sim.Sim_instance.Tuple

(* --- shared instances, built lazily once per scale --- *)

type instances = {
  bip : Netgraph.Graph.t;
  gnp : Netgraph.Graph.t;
  grid_model : Defender.Model.t;
  grid_partition : Defender.Matching_nash.partition;
  edge_prof : Engine.Profile.mixed;
  ne_prof : Engine.Profile.mixed;
  kmodel : Defender.Model.t; (* kernel-vs-naive instance *)
  kprof : Engine.Profile.mixed;
  ktag : string;
}

(* A matching NE on a grid, the standing configuration for the
   kernel-vs-naive pairs. *)
let kernel_instance ~rows ~cols ~nu ~k =
  let grid = Netgraph.Gen.grid rows cols in
  let model = Defender.Model.make ~graph:grid ~nu ~k in
  let partition =
    match Defender.Matching_nash.find_partition grid with
    | Some p -> p
    | None -> failwith "grid partition"
  in
  let prof =
    match Defender.Tuple_nash.a_tuple model partition with
    | Ok p -> p
    | Error e -> failwith e
  in
  (model, prof)

let build_instances scale =
  let rng = Prng.Rng.create 12321 in
  let smoke = scale = E.Smoke in
  let bip =
    if smoke then Netgraph.Gen.random_bipartite rng ~a:30 ~b:40 ~p:0.1
    else Netgraph.Gen.random_bipartite rng ~a:100 ~b:120 ~p:0.05
  in
  let gnp =
    if smoke then Netgraph.Gen.gnp_connected rng ~n:40 ~p:0.12
    else Netgraph.Gen.gnp_connected rng ~n:120 ~p:0.06
  in
  let grid =
    if smoke then Netgraph.Gen.grid 4 5 else Netgraph.Gen.grid 8 10
  in
  let k = if smoke then 2 else 5 in
  let grid_model = Defender.Model.make ~graph:grid ~nu:6 ~k in
  let grid_partition =
    match Defender.Matching_nash.find_partition grid with
    | Some p -> p
    | None -> failwith "grid partition"
  in
  let edge_prof =
    match
      Defender.Matching_nash.solve
        (Defender.Model.make ~graph:grid ~nu:6 ~k:1)
        grid_partition
    with
    | Ok p -> p
    | Error e -> failwith e
  in
  let ne_prof =
    match Defender.Tuple_nash.a_tuple grid_model grid_partition with
    | Ok p -> p
    | Error e -> failwith e
  in
  let kmodel, kprof =
    if smoke then kernel_instance ~rows:4 ~cols:5 ~nu:3 ~k:2
    else kernel_instance ~rows:10 ~cols:12 ~nu:6 ~k:5
  in
  let ktag = if smoke then "grid 4x5, k=2" else "grid 10x12, k=5" in
  { bip; gnp; grid_model; grid_partition; edge_prof; ne_prof; kmodel; kprof; ktag }

let instance_cache : (E.scale, instances) Hashtbl.t = Hashtbl.create 2

let get ctx =
  let scale = E.scale ctx in
  match Hashtbl.find_opt instance_cache scale with
  | Some i -> i
  | None ->
      (* Unobserved: the cache is per process, so a sequential sweep
         builds the instances once while every parallel worker rebuilds
         them — letting the build record would make counter deltas
         depend on scheduling, breaking the B14 determinism gate. *)
      let i = Harness.Obs.unobserved (fun () -> build_instances scale) in
      Hashtbl.replace instance_cache scale i;
      i

(* --- Bechamel plumbing --- *)

(* Unobserved: Bechamel decides its iteration counts from the time
   quota, so any counters recorded inside would be a function of machine
   speed — exactly what the Obs determinism contract forbids in an
   artifact.  The timing estimates are unaffected (recording was a no-op
   on these paths to begin with; B15 gates that). *)
let analyze ~quota tests =
  Harness.Obs.unobserved @@ fun () ->
  let grouped = Test.make_grouped ~name:"kernels" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:true () in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some (t :: _) -> t
        | _ -> nan
      in
      let r2 = Option.value (Analyze.OLS.r_square ols_result) ~default:nan in
      rows := (name, estimate, r2) :: !rows)
    results;
  List.sort compare !rows

let human_time estimate =
  if estimate > 1e9 then Printf.sprintf "%.3f s" (estimate /. 1e9)
  else if estimate > 1e6 then Printf.sprintf "%.3f ms" (estimate /. 1e6)
  else if estimate > 1e3 then Printf.sprintf "%.3f us" (estimate /. 1e3)
  else Printf.sprintf "%.1f ns" estimate

(* Fixed-iteration timing, for measurements whose recorded counters must
   not depend on machine speed: the fastest of [repeat] runs of [batch]
   calls, in seconds per call. *)
let per_call ~repeat ~batch f =
  let s =
    Harness.Timer.time_stats ~repeat (fun () ->
        for _ = 1 to batch do
          f ()
        done)
  in
  s.Harness.Timer.min /. float_of_int batch

(* OLS estimates (ns/run) from the current sweep, for the speedup pairs.
   Keyed by experiment id; replaced on re-run. *)
let estimates : (string, float) Hashtbl.t = Hashtbl.create 16

let estimate ctx ~name thunk =
  let quota = if E.is_smoke ctx then 0.02 else 0.5 in
  match analyze ~quota [ Test.make ~name (Staged.stage thunk) ] with
  | (_, e, r) :: _ -> (e, r)
  | [] -> (nan, nan)

let bench ctx ~id ~name thunk =
  let estimate, r2 = estimate ctx ~name thunk in
  Hashtbl.replace estimates id estimate;
  let table =
    Harness.Table.create ~title:name ~columns:[ "time/run"; "r^2" ]
  in
  Harness.Table.add_row table [ human_time estimate; Printf.sprintf "%.4f" r2 ];
  E.out ctx (Harness.Table.to_string table);
  E.measure ctx "ns_per_run" (E.Float estimate);
  E.measure ctx "r_squared" (E.Float r2);
  ignore
    (E.check ctx
       ~label:(id ^ ": OLS estimate is positive and finite")
       (Float.is_finite estimate && estimate > 0.0));
  estimate

(* For the naive half of a kernel/naive pair: report (and at full scale,
   check) the speedup against the partner's estimate.  A worker that
   never ran the partner times its thunk here instead — through
   [analyze], so unobserved, and with no check or measure of its own —
   which keeps the artifact independent of which process ran which
   experiment. *)
let speedup ctx ~id ~kernel_id ~kernel ~label slow =
  let fast =
    match Hashtbl.find_opt estimates kernel_id with
    | Some fast -> fast
    | None -> fst (estimate ctx ~name:kernel_id kernel)
  in
  if fast > 0.0 && Float.is_finite slow then begin
    let s = slow /. fast in
    E.outf ctx "%s speedup (naive/kernel): %.1fx\n" label s;
    E.measure ctx "speedup_vs_kernel" (E.Float s);
    if not (E.is_smoke ctx) then
      ignore
        (E.check ctx
           ~label:(id ^ ": kernel at least 2x faster than naive")
           (s >= 2.0))
  end
  else E.outf ctx "%s speedup: n/a (no finite estimates)\n" label;
  E.out ctx "\n"

(* --- B0: exact kernel = naive assertions (both scales) --- *)

let assert_kernel_equals_naive ctx ~label prof =
  ignore
    (E.check ctx ~label:(label ^ ": kernel tables = naive oracle")
       (Exp_util.kernel_equals_rescan prof))

let b0 ctx =
  (* the original standalone smoke instance: small and deterministic *)
  let model, prof = kernel_instance ~rows:4 ~cols:5 ~nu:3 ~k:2 in
  let g = Defender.Model.graph model in
  assert_kernel_equals_naive ctx ~label:"a_tuple NE" prof;
  (* A chain of incremental deviations must stay exactly equal to the
     oracle (and to a from-scratch rebuild, checked transitively). *)
  let rng = Prng.Rng.create 31 in
  let deviated = ref prof in
  for step = 1 to 6 do
    let player = Prng.Rng.int rng (Defender.Model.nu model) in
    let size = 1 + Prng.Rng.int rng (Netgraph.Graph.n g) in
    let support =
      Array.to_list
        (Prng.Rng.sample_without_replacement rng ~count:size
           (Array.init (Netgraph.Graph.n g) Fun.id))
    in
    deviated :=
      Engine.Profile.replace_vp !deviated player (Dist.Finite.uniform support);
    assert_kernel_equals_naive ctx
      ~label:(Printf.sprintf "replace_vp chain step %d" step)
      !deviated
  done;
  (match Engine.Profile.tp_support !deviated with
  | first :: _ ->
      deviated := Engine.Profile.replace_tp !deviated [ (first, Q.one) ];
      assert_kernel_equals_naive ctx ~label:"replace_tp collapse" !deviated
  | [] -> ignore (E.check ctx ~label:"non-empty tp support" false));
  (* Incremental and history-rescanning fictitious play are bit-for-bit
     identical on the same seed. *)
  let a = Sim_tuple.Fictitious.run (Prng.Rng.create 99) model ~rounds:40 in
  let b = Sim_tuple.Fictitious.run ~naive:true (Prng.Rng.create 99) model ~rounds:40 in
  ignore
    (E.check ctx ~label:"fictitious naive = incremental (bit-for-bit)"
       (a.Sim_tuple.Fictitious.avg_gain = b.Sim_tuple.Fictitious.avg_gain
       && a.Sim_tuple.Fictitious.gain_series = b.Sim_tuple.Fictitious.gain_series
       && a.Sim_tuple.Fictitious.attack_frequency = b.Sim_tuple.Fictitious.attack_frequency
       && a.Sim_tuple.Fictitious.scan_frequency = b.Sim_tuple.Fictitious.scan_frequency));
  E.out ctx "B0: kernel = naive exact-equality assertions (grid 4x5, nu=3, k=2)\n\n"

(* --- B1-B6: core algorithm benchmarks --- *)

let b1 ctx =
  let i = get ctx in
  ignore
    (bench ctx ~id:"B1"
       ~name:
         (Printf.sprintf "B1 hopcroft-karp (n=%d bipartite)"
            (Netgraph.Graph.n i.bip))
       (fun () -> ignore (Matching.Hopcroft_karp.max_matching_bipartite i.bip)))

let b2 ctx =
  let i = get ctx in
  ignore
    (bench ctx ~id:"B2"
       ~name:(Printf.sprintf "B2 blossom (n=%d gnp)" (Netgraph.Graph.n i.gnp))
       (fun () -> ignore (Matching.Blossom.max_matching i.gnp)))

let b3 ctx =
  let i = get ctx in
  ignore
    (bench ctx ~id:"B3"
       ~name:
         (Printf.sprintf "B3 min edge cover (n=%d gnp)" (Netgraph.Graph.n i.gnp))
       (fun () -> ignore (Matching.Edge_cover.minimum i.gnp)))

let b4 ctx =
  let i = get ctx in
  ignore
    (bench ctx ~id:"B4"
       ~name:
         (Printf.sprintf "B4 A_tuple (grid, k=%d)" (Defender.Model.k i.grid_model))
       (fun () ->
         ignore (Defender.Tuple_nash.a_tuple i.grid_model i.grid_partition)))

let b5 ctx =
  let i = get ctx in
  let k = Defender.Model.k i.grid_model in
  ignore
    (bench ctx ~id:"B5"
       ~name:(Printf.sprintf "B5 reduction lift k=%d (grid)" k)
       (fun () -> ignore (Defender.Reduction.edge_to_tuple ~k i.edge_prof)))

let b6 ctx =
  let i = get ctx in
  let sim_rng = Prng.Rng.create 777 in
  ignore
    (bench ctx ~id:"B6" ~name:"B6 simulator 100 rounds (grid)" (fun () ->
         ignore (Sim_tuple.Engine.play sim_rng i.ne_prof ~rounds:100)))

(* --- B7-B12: kernel vs naive pairs --- *)

(* One best-response sweep: the attacker scans every vertex's hit
   probability, the defender greedily scans every edge's load. *)
let br_sweep prof =
  ignore (Engine.Best_response.vp_best_value prof);
  ignore
    (Defender.Tuple_game.tp_greedy_value (Engine.Profile.instance prof)
       ~load:(Engine.Profile.expected_load prof))

(* The kernel halves' thunks, shared with their naive partners, which
   may need to time them (see [speedup]).  The naive halves time the
   same consumers on [Profile.rescan i.kprof], built outside the timed
   thunk. *)
let br_kernel i () = br_sweep i.kprof

let char_kernel i () =
  ignore (Defender.Characterization.check Engine.Verify.Certificate i.kprof)

let fict_kernel i () =
  ignore (Sim_tuple.Fictitious.run (Prng.Rng.create 777) i.kmodel ~rounds:100)

let b7 ctx =
  let i = get ctx in
  ignore
    (bench ctx ~id:"B7"
       ~name:(Printf.sprintf "B7 BR sweep, kernel (%s)" i.ktag)
       (br_kernel i))

let b8 ctx =
  let i = get ctx in
  let rescan = Engine.Profile.rescan i.kprof in
  let slow =
    bench ctx ~id:"B8"
      ~name:(Printf.sprintf "B8 BR sweep, naive (%s)" i.ktag)
      (fun () -> br_sweep rescan)
  in
  speedup ctx ~id:"B8" ~kernel_id:"B7" ~kernel:(br_kernel i)
    ~label:"BR sweep (B8/B7)" slow

let b9 ctx =
  let i = get ctx in
  ignore
    (bench ctx ~id:"B9"
       ~name:(Printf.sprintf "B9 characterization, kernel (%s)" i.ktag)
       (char_kernel i))

let b10 ctx =
  let i = get ctx in
  let rescan = Engine.Profile.rescan i.kprof in
  let slow =
    bench ctx ~id:"B10"
      ~name:(Printf.sprintf "B10 characterization, naive (%s)" i.ktag)
      (fun () ->
        ignore
          (Defender.Characterization.check Engine.Verify.Certificate rescan))
  in
  speedup ctx ~id:"B10" ~kernel_id:"B9" ~kernel:(char_kernel i)
    ~label:"characterization (B10/B9)" slow

let b11 ctx =
  let i = get ctx in
  ignore
    (bench ctx ~id:"B11"
       ~name:(Printf.sprintf "B11 fictitious 100r, kernel (%s)" i.ktag)
       (fict_kernel i))

let b12 ctx =
  let i = get ctx in
  let slow =
    bench ctx ~id:"B12"
      ~name:(Printf.sprintf "B12 fictitious 100r, naive (%s)" i.ktag)
      (fun () ->
        ignore
          (Sim_tuple.Fictitious.run ~naive:true (Prng.Rng.create 777) i.kmodel
             ~rounds:100))
  in
  speedup ctx ~id:"B12" ~kernel_id:"B11" ~kernel:(fict_kernel i)
    ~label:"fictitious 100 rounds (B12/B11)" slow

(* --- B13: numeric-tower fast path and promotion cost --- *)

(* The kernel-shaped op mix: a dot product of probability-sized fractions
   (denominators dividing 24, like the tables' lcm-bounded entries)
   followed by a compare and a subtract.  Denominators never leave the
   small range, so this times the tower's fast path exclusively. *)
let b13_size = 64
let b13_dens = [| 2; 3; 4; 6; 8; 12; 24; 1 |]
let b13_num i j = ((i * 37) + (j * 53)) mod 7 [@@inline]

(* The mix's exact value, which the pre-tower fixed-width arithmetic
   also returned: a change to the tower must not move it. *)
let b13_mix_value = Q.make (-28) 3

let b13_mix_q xs ys =
  let acc = ref Q.zero in
  for i = 0 to Array.length xs - 1 do
    acc := Q.add !acc (Q.mul xs.(i) ys.(i))
  done;
  if Q.compare !acc Q.one > 0 then Q.sub !acc Q.one else !acc

(* Ten primes near 10^5: the running sum of reciprocals promotes once the
   denominator product clears max_int (after the fourth term) and stays
   big, so this times promotion plus big-path arithmetic. *)
let b13_primes =
  [| 99991; 99989; 99971; 99961; 99929; 99923; 99907; 99901; 99881; 99877 |]

let b13_promoting_sum () =
  Array.fold_left (fun acc p -> Q.add acc (Q.make 1 p)) Q.zero b13_primes

let b13 ctx =
  let quota = if E.is_smoke ctx then 0.02 else 0.5 in
  (* Min over [rounds] OLS passes: robust against load spikes that a
     single pass absorbs into its estimate. *)
  let timed ~name ~measure ~rounds thunk =
    let estimate = ref infinity in
    for _ = 1 to rounds do
      match analyze ~quota [ Test.make ~name (Staged.stage thunk) ] with
      | (_, e, _) :: _ -> estimate := Float.min !estimate e
      | [] -> estimate := nan
    done;
    let estimate = !estimate in
    E.measure ctx measure (E.Float estimate);
    ignore
      (E.check ctx
         ~label:("B13 " ^ measure ^ ": OLS estimate is positive and finite")
         (Float.is_finite estimate && estimate > 0.0));
    estimate
  in
  let qx = Array.init b13_size (fun i -> Q.make (b13_num i 1 - 3) b13_dens.(i mod 8)) in
  let qy = Array.init b13_size (fun i -> Q.make (b13_num i 2 - 3) b13_dens.((i + 3) mod 8)) in
  ignore
    (E.check ctx ~label:"B13: tower mix = its exact value"
       (Q.equal (b13_mix_q qx qy) b13_mix_value));
  ignore
    (E.check ctx ~label:"B13: mix result stays on the small path"
       (Q.is_small (b13_mix_q qx qy)));
  ignore
    (E.check ctx ~label:"B13: prime-harmonic sum promotes"
       (not (Q.is_small (b13_promoting_sum ()))));
  let tower =
    timed
      ~name:(Printf.sprintf "B13 tower small path (%d-term dot mix)" b13_size)
      ~measure:"tower_ns_per_run"
      ~rounds:(if E.is_smoke ctx then 1 else 3)
      (fun () -> ignore (b13_mix_q qx qy))
  in
  let promo =
    timed ~name:"B13 promoting prime-harmonic sum (10 terms)"
      ~measure:"promotion_ns_per_run" ~rounds:1
      (fun () -> ignore (b13_promoting_sum ()))
  in
  E.outf ctx "B13 tower small path (%d-term dot mix): %s\n" b13_size
    (human_time tower);
  E.outf ctx "B13 promoting 10-term sum: %s (%.1f ns/term incl. big path)\n"
    (human_time promo)
    (promo /. float_of_int (Array.length b13_primes));
  E.out ctx "\n"

(* --- B14: the parallel runner reproduces the sequential artifact --- *)

(* A fixed, cheap selection with no B-series ids (timing-bound, and B14
   itself is one), always at Smoke scale so the gate costs the same from
   a full sweep as from a smoke one. *)
let b14_ids = [ "T1"; "T2"; "T4"; "F1" ]

let b14 ctx =
  let module R = Harness.Registry in
  match R.select ~only:b14_ids with
  | Error e -> ignore (E.check ctx ~label:("B14: selection failed: " ^ e) false)
  | Ok exps ->
      (* Force counter recording for the inner sweeps whatever the
         ambient level: every inner result then carries a metrics
         object, so the byte-equality check below also proves the
         deterministic counters identical between the sequential run
         and the 4 pool workers — the Obs determinism contract, gated
         rather than asserted. *)
      let module Obs = Harness.Obs in
      let ambient = Obs.level () in
      Fun.protect ~finally:(fun () -> Obs.set_level ambient) @@ fun () ->
      Obs.set_level Obs.Counters;
      let seq_results, seq_wall =
        Harness.Timer.time (fun () -> R.run ~scale:E.Smoke exps)
      in
      let par_results, par_wall =
        Harness.Timer.time (fun () -> R.run_parallel ~scale:E.Smoke ~jobs:4 exps)
      in
      let stripped results =
        Harness.Json.to_string ~pretty:true
          (R.strip_timings (R.report_json ~scale:E.Smoke results))
      in
      ignore
        (E.check ctx ~label:"B14: no crashed verdict in the 4-worker sweep"
           (List.for_all
              (fun (r : E.result) -> r.E.verdict <> E.Crashed)
              par_results));
      (* Guard against the counter half of the gate passing vacuously. *)
      ignore
        (E.check ctx
           ~label:"B14: inner results carry metrics, counters recorded"
           (List.for_all
              (fun (r : E.result) -> r.E.metrics <> None)
              (seq_results @ par_results)
           && List.exists
                (fun (r : E.result) ->
                  match r.E.metrics with
                  | Some m -> m.E.m_counters <> []
                  | None -> false)
                par_results));
      ignore
        (E.check ctx
           ~label:
             "B14: 4-worker artifact byte-identical to sequential (timings \
              stripped)"
           (stripped par_results = stripped seq_results));
      let point w = { E.median = w; min = w; max = w; runs = 1 } in
      E.record_timing ctx "sequential_sweep" (point seq_wall);
      E.record_timing ctx "parallel_sweep_jobs4" (point par_wall);
      E.outf ctx
        "B14 %d-experiment smoke sweep: sequential %.3fs, 4 workers %.3fs \
         (%.2fx wall-clock)\n\n"
        (List.length exps) seq_wall par_wall
        (if par_wall > 0.0 then seq_wall /. par_wall else Float.nan)

(* --- B15: observability off is free --- *)

(* A faithful in-process copy of the B7 best-response sweep with the
   [Obs] instrumentation deleted, so the disabled cost is measured
   against the exact code the change touched rather than a remembered
   number.  The copy reads the same kernel tables through the same
   [Profile] queries (uninstrumented array lookups), so the only
   difference from the library path is the absent counter code.  Kept
   local to the benchmark on purpose. *)
module B15_plain = struct
  open Netgraph

  let vp_best_value prof =
    let g = Defender.Model.graph (Engine.Profile.instance prof) in
    let best_hit = ref (Engine.Profile.hit_prob prof 0) in
    for v = 1 to Graph.n g - 1 do
      let h = Engine.Profile.hit_prob prof v in
      if Q.( < ) h !best_hit then best_hit := h
    done;
    Q.sub Q.one !best_hit

  let tp_greedy_value prof =
    let model = Engine.Profile.instance prof in
    let g = Defender.Model.graph model in
    let k = Defender.Model.k model in
    let chosen = Array.make (Graph.m g) false in
    let covered = Array.make (Graph.n g) false in
    let gain id =
      let e = Graph.edge g id in
      let value_of v =
        if covered.(v) then Q.zero else Engine.Profile.expected_load prof v
      in
      Q.add (value_of e.Graph.u) (value_of e.Graph.v)
    in
    let total = ref Q.zero in
    for _ = 1 to k do
      let best = ref None in
      for id = 0 to Graph.m g - 1 do
        if not chosen.(id) then
          let value = gain id in
          match !best with
          | Some (_, v) when Q.( >= ) v value -> ()
          | _ -> best := Some (id, value)
      done;
      match !best with
      | None -> ()
      | Some (id, value) ->
          chosen.(id) <- true;
          let e = Graph.edge g id in
          covered.(e.Graph.u) <- true;
          covered.(e.Graph.v) <- true;
          total := Q.add !total value
    done;
    !total

  let sweep prof =
    ignore (vp_best_value prof);
    ignore (tp_greedy_value prof)
end

let b15 ctx =
  let module Obs = Harness.Obs in
  let i = get ctx in
  let ambient = Obs.level () in
  Fun.protect ~finally:(fun () -> Obs.set_level ambient) @@ fun () ->
  (* The baseline only measures anything if it computes the same
     answers. *)
  ignore
    (E.check ctx ~label:"B15: uninstrumented copy = library sweep (exact)"
       (Q.equal
          (Engine.Best_response.vp_best_value i.kprof)
          (B15_plain.vp_best_value i.kprof)
       && Q.equal
            (Defender.Tuple_game.tp_greedy_value
               (Engine.Profile.instance i.kprof)
               ~load:(Engine.Profile.expected_load i.kprof))
            (B15_plain.tp_greedy_value i.kprof)));
  (* Fixed-iteration timing (not Bechamel): the on-measurement below
     records real counters, and a time-quota loop would record a
     machine-dependent count of them.  With fixed batch/repeat/rounds
     the recorded delta is a constant of the scale, keeping B15's own
     metrics deterministic under --jobs. *)
  let batch = if E.is_smoke ctx then 2 else 10 in
  let repeat = if E.is_smoke ctx then 3 else 7 in
  let rounds = if E.is_smoke ctx then 1 else 3 in
  let time_side f = per_call ~repeat ~batch f in
  let lib () = br_sweep i.kprof in
  let plain () = B15_plain.sweep i.kprof in
  (* Off vs baseline: interleaved min-of-rounds, both sides under
     forced Off — this pair is the gate. *)
  let t_off = ref infinity and t_plain = ref infinity in
  Obs.unobserved (fun () ->
      for _ = 1 to rounds do
        t_off := Float.min !t_off (time_side lib);
        t_plain := Float.min !t_plain (time_side plain)
      done);
  let t_off = !t_off and t_plain = !t_plain in
  (* Counters on: informational cost of actually recording. *)
  Obs.set_level Obs.Counters;
  let t_on = ref infinity in
  for _ = 1 to rounds do
    t_on := Float.min !t_on (time_side lib)
  done;
  Obs.set_level ambient;
  let t_on = !t_on in
  E.measure ctx "off_ns_per_sweep" (E.Float (t_off *. 1e9));
  E.measure ctx "baseline_ns_per_sweep" (E.Float (t_plain *. 1e9));
  E.measure ctx "counters_on_ns_per_sweep" (E.Float (t_on *. 1e9));
  ignore
    (E.check ctx ~label:"B15 timings: positive and finite"
       (Float.is_finite t_off && t_off > 0.0 && Float.is_finite t_plain
      && t_plain > 0.0 && Float.is_finite t_on && t_on > 0.0));
  let off_overhead = t_off /. t_plain in
  let on_cost = t_on /. t_plain in
  E.measure ctx "off_overhead" (E.Float off_overhead);
  E.measure ctx "counters_on_cost" (E.Float on_cost);
  E.outf ctx
    "B15 BR sweep (%s): off %.3fx of uninstrumented (%s vs %s); counters on \
     %.3fx (informational)\n\n"
    i.ktag off_overhead
    (human_time (t_off *. 1e9))
    (human_time (t_plain *. 1e9))
    on_cost;
  if not (E.is_smoke ctx) then
    ignore
      (E.check ctx ~label:"B15: observability off costs at most 5%"
         (off_overhead <= 1.05))

(* --- B17: the CSR graph substrate, per edge --- *)

(* Construction, a full neighbour sweep and a maximum matching on the
   flat offset/neighbour arrays, ns per edge each.  Both answers are
   certified without a reference implementation: the sweep's checksum
   is determined by the edge list, and the matching size by a vertex
   cover of equal size (König). *)
let b17 ctx =
  let module Obs = Harness.Obs in
  let module Graph = Netgraph.Graph in
  let smoke = E.is_smoke ctx in
  (* Preferential attachment for construction/traversal (skewed degrees
     stress the prefix-sum fill), sparse d-out bipartite for the
     matching. *)
  let n_pa = if smoke then 16_384 else 131_072 in
  let ab = if smoke then 4_096 else 65_536 in
  let d = 3 in
  let pa, bip, pa_pairs, bip_pairs, left, right =
    Obs.unobserved (fun () ->
        let rng = Prng.Rng.create 170_017 in
        let pa = Netgraph.Gen.preferential_attachment rng ~n:n_pa ~c:2 in
        let bip = Netgraph.Gen.random_bipartite_sparse rng ~a:ab ~b:ab ~d in
        let pairs g =
          List.rev
            (Graph.fold_edges g ~init:[] ~f:(fun acc _ e ->
                 (e.Graph.u, e.Graph.v) :: acc))
        in
        let left = List.init ab (fun i -> i) in
        let right = List.init ab (fun i -> ab + i) in
        (pa, bip, pairs pa, pairs bip, left, right))
  in
  let m_pa = Graph.m pa and m_bip = Graph.m bip in
  E.measure ctx "pa_n" (E.Int n_pa);
  E.measure ctx "pa_m" (E.Int m_pa);
  E.measure ctx "bip_n" (E.Int (2 * ab));
  E.measure ctx "bip_m" (E.Int m_bip);
  (* Correctness first: a timing only means something for a right
     answer.  Every edge (u, v) adds v to u's row and u to v's, so the
     sweep's checksum is the sum of u + v over the edge list. *)
  let csr_sweep g =
    let acc = ref 0 in
    for v = 0 to Graph.n g - 1 do
      Graph.iter_neighbors g v ~f:(fun w -> acc := !acc + w)
    done;
    !acc
  in
  let endpoint_sum pairs =
    List.fold_left (fun acc (u, v) -> acc + u + v) 0 pairs
  in
  ignore
    (E.check ctx ~label:"B17: traversal checksum = sum of u+v over the edges"
       (csr_sweep pa = endpoint_sum pa_pairs
       && csr_sweep bip = endpoint_sum bip_pairs));
  let hk = Matching.Hopcroft_karp.max_matching bip ~left ~right in
  let csr_size = hk.Matching.Hopcroft_karp.size in
  E.measure ctx "bip_matching_size" (E.Int csr_size);
  (* A matching is at most any vertex cover, so a matching and a cover
     of equal size are both optimal.  Unobserved: König runs its own
     Hopcroft-Karp, and HK's counters must stay those of the run above. *)
  let cover =
    Obs.unobserved (fun () ->
        (Matching.Koenig.solve bip).Matching.Koenig.vertex_cover)
  in
  ignore
    (E.check ctx
       ~label:"B17: matching size certified by a vertex cover of equal size"
       (Matching.Checks.is_matching bip hk.Matching.Hopcroft_karp.edges
       && List.length hk.Matching.Hopcroft_karp.edges = csr_size
       && Matching.Checks.is_vertex_cover bip cover
       && List.length cover = csr_size));
  (* Fixed-iteration min-of-rounds (B15 methodology); all timing under
     [Obs.unobserved] so HK's counters stay a pure function of the
     single correctness run above. *)
  let repeat = if smoke then 2 else 3 in
  let rounds = if smoke then 1 else 3 in
  let time ~batch f =
    let best = ref infinity in
    Obs.unobserved (fun () ->
        for _ = 1 to rounds do
          best := Float.min !best (per_call ~repeat ~batch f)
        done);
    !best
  in
  let build = time ~batch:1 (fun () -> ignore (Graph.make ~n:n_pa pa_pairs)) in
  let trav =
    time ~batch:(if smoke then 8 else 4) (fun () -> ignore (csr_sweep pa))
  in
  let matching =
    time ~batch:1 (fun () ->
        ignore (Matching.Hopcroft_karp.max_matching bip ~left ~right))
  in
  E.outf ctx "B17 substrate (PA n=%d m=%d; bipartite n=%d m=%d):\n" n_pa m_pa
    (2 * ab) m_bip;
  List.iter
    (fun (name, m, t) ->
      let ns = t /. float_of_int m *. 1e9 in
      E.measure ctx (name ^ "_csr_ns_per_edge") (E.Float ns);
      E.outf ctx "B17 %-12s %s/edge\n" name (human_time ns))
    [ ("construction", m_pa, build); ("traversal", m_pa, trav);
      ("matching", m_bip, matching) ];
  E.outf ctx "\n";
  ignore
    (E.check ctx ~label:"B17 timings: positive and finite"
       (List.for_all
          (fun t -> Float.is_finite t && t > 0.0)
          [ build; trav; matching ]))

(* --- B18: the query daemon's canonical-instance solve cache --- *)

(* A daemon is forked around the real defender service on a private
   Unix socket; the same solve request is sent cold (worker computes)
   and warm (answered from the LRU under the canonical key).  The whole
   point of the cache is that the warm path skips the solver, so at
   full scale the min-of-N warm round trip is gated well below the cold
   one.  Smoke runs the same session but keeps the timing informational
   (one round trip on loaded CI is noise); the protocol facts — hit
   flag, byte-identical payload, counters — are checked at both
   scales. *)
let b18 ctx =
  let smoke = E.is_smoke ctx in
  let module J = Harness.Json in
  let module D = Harness.Daemon in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "defender_b18_%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  (* Full scale queries the B7 acceptance instance (grid 10x12): its
     n = 120 sits above the canonical labeling's exact-search bound, so
     the per-request key is the cheap refinement path while the solve
     itself is substantial — the regime the cache exists for. *)
  let g = if smoke then Netgraph.Gen.grid 3 4 else Netgraph.Gen.grid 10 12 in
  let k = if smoke then 2 else 5 in
  let nu = if smoke then 3 else 6 in
  let request =
    J.Obj
      [
        ("id", J.Int 0);
        ("op", J.String "solve");
        ("graph6", J.String (Netgraph.Graph6.encode g));
        ("k", J.Int k);
        ("nu", J.Int nu);
      ]
  in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (try
         ignore
           (Service.Daemon_service.serve ~address:(D.Unix_socket path)
              ~workers:1 ())
       with _ -> Unix._exit 2);
      Unix._exit 0
  | daemon ->
      Fun.protect ~finally:(fun () ->
          (try Unix.kill daemon Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Harness.Wire.waitpid_retry daemon);
          try Unix.unlink path with Unix.Unix_error _ -> ())
      @@ fun () ->
      let conn = D.Client.connect ~retries:100 (D.Unix_socket path) in
      Fun.protect ~finally:(fun () -> D.Client.close conn) @@ fun () ->
      let ask () =
        match D.Client.request conn request with
        | Ok r -> r
        | Error e -> failwith ("B18 request failed: " ^ e)
      in
      let cold, t_cold = Harness.Timer.time ask in
      let warm_rounds = if smoke then 3 else 10 in
      let t_warm = ref infinity in
      let warm = ref cold in
      for _ = 1 to warm_rounds do
        let r, t = Harness.Timer.time ask in
        warm := r;
        t_warm := Float.min !t_warm t
      done;
      let warm = !warm and t_warm = !t_warm in
      let get name j = J.member name j in
      ignore
        (E.check ctx ~label:"B18: cold solve ok, not served from cache"
           (get "ok" cold = Some (J.Bool true)
           && get "cached" cold = Some (J.Bool false)));
      ignore
        (E.check ctx ~label:"B18: warm re-query is a cache hit"
           (get "cached" warm = Some (J.Bool true)));
      ignore
        (E.check ctx ~label:"B18: cached result byte-identical to cold"
           (match (get "result" cold, get "result" warm) with
           | Some a, Some b -> J.to_string a = J.to_string b
           | _ -> false));
      ignore
        (E.check ctx ~label:"B18: daemon.cache_hits counted every warm round"
           (match get "metrics" warm with
           | Some m -> J.member "daemon.cache_hits" m = Some (J.Int warm_rounds)
           | None -> false));
      E.measure ctx "cold_solve_ns" (E.Float (t_cold *. 1e9));
      E.measure ctx "warm_hit_ns" (E.Float (t_warm *. 1e9));
      let ratio = if t_cold > 0.0 then t_warm /. t_cold else Float.nan in
      E.measure ctx "warm_vs_cold" (E.Float ratio);
      E.outf ctx
        "B18 daemon solve round trip (grid, k=%d): cold %s, warm cache hit \
         %s (%.3fx of cold, min of %d)\n"
        k (human_time (t_cold *. 1e9))
        (human_time (t_warm *. 1e9))
        ratio warm_rounds;
      if not smoke then
        ignore
          (E.check ctx
             ~label:"B18: warm hit at most a third of the cold solve"
             (Float.is_finite ratio && ratio < 0.34))

(* --- B19: canonical labeling over canon-storm's graph shapes --- *)

(* Graph6.canonical is the daemon's cache key, computed in the parent's
   select loop on every byte-memo miss.  These are the
   refinement-resistant shapes the canon-storm load workload relabels:
   regular graphs whose labeling is all search.  One run labels fresh
   relabelings of each; every shape's relabelings must share one key.
   Fixed-iteration min-of-rounds timing (B17 methodology), and
   [minor_words_per_run] from one run after warm-up, which is exact:
   the same on every run of one build. *)
let b19 ctx =
  let module Obs = Harness.Obs in
  let module Graph = Netgraph.Graph in
  let module G6 = Netgraph.Graph6 in
  let smoke = E.is_smoke ctx in
  let rng = Prng.Rng.create 190_019 in
  let relabel g =
    let perm = Array.init (Graph.n g) Fun.id in
    Prng.Rng.shuffle_in_place rng perm;
    let b = Graph.Builder.create ~edges_hint:(Graph.m g) ~n:(Graph.n g) () in
    Graph.iter_edges g ~f:(fun _ (e : Graph.edge) ->
        Graph.Builder.add_edge b perm.(e.u) perm.(e.v));
    Graph.Builder.finish b
  in
  let per_shape = if smoke then 2 else 8 in
  let shapes =
    List.map
      (fun (name, g) -> (name, List.init per_shape (fun _ -> relabel g)))
      [
        ("hypercube_4", Netgraph.Gen.hypercube 4);
        ("cycle_32", Netgraph.Gen.cycle 32);
        ("petersen", Netgraph.Gen.petersen ());
        ("regular3_32", Netgraph.Gen.random_regular rng ~n:32 ~d:3);
      ]
  in
  let label gs = List.iter (fun g -> ignore (G6.canonical g)) gs in
  let run () = List.iter (fun (_, gs) -> label gs) shapes in
  ignore
    (E.check ctx ~label:"B19: each shape's relabelings share one key"
       (List.for_all
          (fun (_, gs) ->
            match List.map G6.canonical gs with
            | k :: ks -> List.for_all (String.equal k) ks
            | [] -> false)
          shapes));
  let minor_words =
    Obs.unobserved (fun () ->
        run ();
        let before = Gc.minor_words () in
        run ();
        Gc.minor_words () -. before)
  in
  E.measure ctx "minor_words_per_run" (E.Int (int_of_float minor_words));
  let repeat = if smoke then 2 else 5 in
  let rounds = if smoke then 1 else 3 in
  let time f =
    let best = ref infinity in
    Obs.unobserved (fun () ->
        for _ = 1 to rounds do
          best := Float.min !best (per_call ~repeat ~batch:1 f)
        done);
    !best
  in
  let t_run = time run in
  E.measure ctx "canonical_ns_per_run" (E.Float (t_run *. 1e9));
  E.outf ctx
    "B19 Graph6.canonical, %d relabelings per shape: %s per run, %.0f minor \
     words per run\n"
    per_shape (human_time (t_run *. 1e9)) minor_words;
  let times =
    List.map
      (fun (name, gs) ->
        let t = time (fun () -> label gs) /. float_of_int per_shape in
        E.measure ctx (name ^ "_ns_per_call") (E.Float (t *. 1e9));
        E.outf ctx "B19 %-12s %s per call\n" name (human_time (t *. 1e9));
        t)
      shapes
  in
  E.outf ctx "\n";
  ignore
    (E.check ctx ~label:"B19 timings: positive and finite"
       (List.for_all (fun t -> Float.is_finite t && t > 0.0) (t_run :: times)))

let register () =
  let r ~id ~claim ~expected run =
    Harness.Registry.register
      {
        Harness.Experiment.id;
        tag = Harness.Experiment.Micro;
        claim;
        expected;
        game = "tuple";
        run;
      }
  in
  r ~id:"B0"
    ~claim:
      "Payoff_kernel incremental tables are exactly the naive \
       support-rescanning oracle"
    ~expected:
      "hit_prob / expected_load / edge loads equal after a_tuple, a 6-step \
       replace_vp chain and a replace_tp collapse; fictitious play bit-for-bit"
    b0;
  r ~id:"B1" ~claim:"Hopcroft-Karp maximum bipartite matching"
    ~expected:"OLS ns/run on a sparse random bipartite graph" b1;
  r ~id:"B2" ~claim:"Blossom maximum matching (general graphs)"
    ~expected:"OLS ns/run on a sparse connected G(n,p)" b2;
  r ~id:"B3" ~claim:"minimum edge cover via Gallai" ~expected:"OLS ns/run" b3;
  r ~id:"B4" ~claim:"A_tuple NE construction (Thm 4.13 path)"
    ~expected:"OLS ns/run on the grid instance" b4;
  r ~id:"B5" ~claim:"Theorem 4.5 reduction lift" ~expected:"OLS ns/run" b5;
  r ~id:"B6" ~claim:"simulator throughput, 100 rounds" ~expected:"OLS ns/run" b6;
  r ~id:"B7" ~claim:"best-response sweep on the incremental kernel"
    ~expected:"OLS ns/run (pair with B8)" b7;
  r ~id:"B8" ~claim:"best-response sweep on the naive oracle"
    ~expected:"kernel speedup >= 2x at full scale" b8;
  r ~id:"B9" ~claim:"Thm 3.4 characterization check on the incremental kernel"
    ~expected:"OLS ns/run (pair with B10)" b9;
  r ~id:"B10" ~claim:"Thm 3.4 characterization check on the naive oracle"
    ~expected:"kernel speedup >= 2x at full scale" b10;
  r ~id:"B11" ~claim:"fictitious play, 100 rounds, incremental kernel"
    ~expected:"OLS ns/run (pair with B12)" b11;
  r ~id:"B12" ~claim:"fictitious play, 100 rounds, naive rescanning"
    ~expected:"kernel speedup >= 2x at full scale" b12;
  r ~id:"B13"
    ~claim:
      "numeric tower: the small fast path computes kernel-shaped mixes \
       exactly; promotion to big rationals is pay-as-you-go"
    ~expected:
      "mix = -28/3 on the small path; promoting sum leaves it; \
       tower_ns_per_run and promotion_ns_per_run gated across artifacts \
       by check_artifact --compare"
    b13;
  r ~id:"B14"
    ~claim:
      "the parallel runner (the Harness.Pool engine behind --jobs) is \
       faithful: a --jobs 4 sweep reassembles the exact sequential \
       artifact, deterministic Obs counters included"
    ~expected:
      "timing-stripped artifacts (with counter metrics) byte-identical, no \
       crashed verdicts; wall-clock speedup reported"
    b14;
  r ~id:"B15"
    ~claim:
      "observability (Harness.Obs) is free when off: the instrumented BR \
       sweep costs within 5% of an uninstrumented in-process copy"
    ~expected:
      "off/baseline <= 1.05 at full scale (min-of-3 interleaved, fixed \
       iterations); counters-on cost reported informationally"
    b15;
  r ~id:"B17"
    ~claim:
      "the CSR graph substrate builds, traverses and matches correctly; \
       its per-edge cost is tracked across artifacts"
    ~expected:
      "traversal checksum = sum of u+v; matching size = a vertex cover's \
       size; *_csr_ns_per_edge (min-of-3, fixed iterations) gated across \
       artifacts by check_artifact --compare"
    b17;
  r ~id:"B18"
    ~claim:
      "the query daemon's canonical-instance solve cache answers a repeated \
       solve without re-running the solver: a warm round trip is a cache \
       hit with a byte-identical payload"
    ~expected:
      "cached:true with identical result bytes and exact hit counters at \
       both scales; warm/cold latency < 0.34 at full scale (min of 10)"
    b18;
  r ~id:"B19"
    ~claim:
      "the daemon's cache key, Graph6.canonical, labels canon-storm's \
       refinement-resistant shapes (Q4, C32, Petersen, a 3-regular n=32) \
       consistently; its cost is tracked across artifacts"
    ~expected:
      "every shape's relabelings share one key; canonical_ns_per_run \
       (min-of-3, fixed iterations) gated across artifacts by \
       check_artifact --compare; minor_words_per_run exact"
    b19
