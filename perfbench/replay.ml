(* The traced replay: the request sequence a daemon run sent, fed in
   order through the layers' public functions in one fresh process, with
   a timer and the Obs counters around each call.

   The replay mirrors the daemon's two caches (the parent's bytes ->
   canonical-form memo and the solve cache) with [Harness.Lru]s of the
   same capacities, so it calls [Daemon_service.handle] exactly for the
   requests the daemon sent to a worker.  Double-oracle requests are
   solved three more times: once plainly with [~on_iteration] (the
   solver's own statistics and its untraced time), once through a
   [Game.S] wrapper that clocks the matrix build, the restricted LP and
   the oracles, and once more for the oracle verification. *)

module J = Harness.Json
module DS = Service.Daemon_service
module Obs = Harness.Obs
open Util

(* ---- the clocked game wrapper ------------------------------------ *)

(* One double-oracle iteration calls [covers] once per cell of the
   rows x cols restricted matrix, then solves the restricted LP, then
   calls [best_response_weighted], then the attacker-side scan, then
   [on_iteration].  The wrapper reads the clock at those boundaries only
   (five reads per iteration), not around every call: the matrix build
   runs from the first [covers] of an iteration to the last one, whose
   position the previous iteration's bounds predict; the LP from there
   to [best_response_weighted]; the oracles from there to
   [on_iteration]. *)
module Clock = struct
  let expected = ref 1
  let in_build = ref 0
  let covers_calls = ref 0
  let cells = ref 0
  let mark = ref 0.0
  let build = ref 0.0
  let lp = ref 0.0
  let oracle = ref 0.0

  let reset () =
    expected := 1;
    in_build := 0;
    covers_calls := 0;
    cells := 0;
    build := 0.0;
    lp := 0.0;
    oracle := 0.0

  let covers_enter () =
    if !in_build = 0 then mark := now ();
    incr in_build;
    incr covers_calls

  let covers_exit () =
    if !in_build = !expected then begin
      let t = now () in
      build := !build +. (t -. !mark);
      mark := t;
      in_build := 0
    end

  let oracle_enter () =
    let t = now () in
    lp := !lp +. (t -. !mark);
    mark := t

  (* The next matrix has one more row when the attacker improved and
     one more column when the defender did. *)
  let iteration ~rows ~cols ~value ~lower ~upper =
    oracle := !oracle +. (now () -. !mark);
    cells := !cells + (rows * cols);
    let grow b = if b then 1 else 0 in
    expected :=
      (rows + grow Exact.Q.(lower < value)) * (cols + grow Exact.Q.(upper > value))
end

module Clocked (G : Defender.Game.S) = struct
  include G

  let covers inst s v =
    Clock.covers_enter ();
    let r = G.covers inst s v in
    Clock.covers_exit ();
    r

  let best_response_weighted inst ~weight =
    Clock.oracle_enter ();
    G.best_response_weighted inst ~weight
end

module Tuple_clocked = Solver.Double_oracle.Make (Clocked (Defender.Tuple_game))
module Subgraph_clocked = Solver.Double_oracle.Make (Clocked (Defender.Subgraph_game))

(* ---- per-layer accumulators -------------------------------------- *)

type acc = {
  ck_us : float Grow.t;  (** cache_key on solve requests *)
  handle_ms : float Grow.t;
  decode_us : float Grow.t;
  canonical_us : float Grow.t;
  codec_us : float Grow.t;
  do_ms : float Grow.t;
  verify_ms : float Grow.t;
  char_ms : float Grow.t;
  mutable memo_lookups : int;
  mutable memo_hits : int;
  mutable relabels : int;
  mutable relabel_misses : int;
  mutable requests : int;
  mutable cache_hits : int;
  mutable dispatched : int;
  mutable req_bytes : int;
  mutable resp_bytes : int;
  mutable do_solves : int;
  mutable iterations : int;
  mutable warm : int;
  mutable final_cols : int;
  mutable plain_s : float;
  mutable clocked_s : float;
  mutable build_s : float;
  mutable lp_s : float;
  mutable oracle_s : float;
  mutable q_big_ops : int;
  mutable q_promotions : int;
  mutable divmods : int;
}

let acc () =
  {
    ck_us = Grow.create ();
    handle_ms = Grow.create ();
    decode_us = Grow.create ();
    canonical_us = Grow.create ();
    codec_us = Grow.create ();
    do_ms = Grow.create ();
    verify_ms = Grow.create ();
    char_ms = Grow.create ();
    memo_lookups = 0;
    memo_hits = 0;
    relabels = 0;
    relabel_misses = 0;
    requests = 0;
    cache_hits = 0;
    dispatched = 0;
    req_bytes = 0;
    resp_bytes = 0;
    do_solves = 0;
    iterations = 0;
    warm = 0;
    final_cols = 0;
    plain_s = 0.0;
    clocked_s = 0.0;
    build_s = 0.0;
    lp_s = 0.0;
    oracle_s = 0.0;
    q_big_ops = 0;
    q_promotions = 0;
    divmods = 0;
  }

let timed = Harness.Timer.time

let int_field ?(default = 1) key msg =
  match J.member key msg with Some (J.Int i) -> i | _ -> default

let str_field key msg =
  match J.member key msg with Some (J.String s) -> Some s | _ -> None

(* ---- the solver layers of one worker-bound solve ------------------ *)

(* The double-oracle solve again, plainly and clocked, plus the oracle
   verification of the plain result.  [plain] and [clocked] are the two
   solver applications; the rest is bookkeeping shared by both games. *)
let solver_layers a ~plain ~clocked ~verify =
  let (iterations, warm, final_cols), plain_s = timed plain in
  Clock.reset ();
  let (), clocked_s = timed clocked in
  if !Clock.covers_calls <> !Clock.cells then
    failwith "replay: clocked solve made an unpredicted covers call";
  let (), verify_s = timed verify in
  a.do_solves <- a.do_solves + 1;
  a.iterations <- a.iterations + iterations;
  a.warm <- a.warm + warm;
  a.final_cols <- a.final_cols + final_cols;
  a.plain_s <- a.plain_s +. plain_s;
  a.clocked_s <- a.clocked_s +. clocked_s;
  a.build_s <- a.build_s +. !Clock.build;
  a.lp_s <- a.lp_s +. !Clock.lp;
  a.oracle_s <- a.oracle_s +. !Clock.oracle;
  Grow.push a.do_ms (1000.0 *. plain_s);
  Grow.push a.verify_ms (1000.0 *. verify_s)

let double_oracle a msg g =
  let nu = int_field "nu" msg in
  match str_field "game" msg with
  | Some "subgraph" ->
      let inst = Defender.Subgraph_game.make ~graph:g ~nu ~lambda:(int_field "lambda" msg) in
      let module P = Solver.Instances.Subgraph in
      let module C = Subgraph_clocked in
      let module E = Defender.Subgraph_instance.Engine in
      let r = ref None in
      solver_layers a
        ~plain:(fun () ->
          let res = P.solve ~on_iteration:ignore inst in
          r := Some res;
          let s = res.P.stats in
          (s.P.iterations, s.P.warm_solves, s.P.final_cols))
        ~clocked:(fun () ->
          ignore
            (C.solve
               ~on_iteration:(fun (it : C.iteration) ->
                 Clock.iteration ~rows:it.rows ~cols:it.cols ~value:it.value ~lower:it.lower
                   ~upper:it.upper)
               inst))
        ~verify:(fun () ->
          ignore (E.Verify.mixed_ne E.Verify.Oracle (P.profile inst (Option.get !r))))
  | _ ->
      let m = Defender.Model.make ~graph:g ~nu ~k:(int_field "k" msg) in
      let module P = Solver.Instances.Tuple in
      let module C = Tuple_clocked in
      let r = ref None in
      solver_layers a
        ~plain:(fun () ->
          let res = P.solve ~on_iteration:ignore m in
          r := Some res;
          let s = res.P.stats in
          (s.P.iterations, s.P.warm_solves, s.P.final_cols))
        ~clocked:(fun () ->
          ignore
            (C.solve
               ~on_iteration:(fun (it : C.iteration) ->
                 Clock.iteration ~rows:it.rows ~cols:it.cols ~value:it.value ~lower:it.lower
                   ~upper:it.upper)
               m))
        ~verify:(fun () ->
          ignore
            (Defender.Verify.mixed_ne Defender.Verify.Oracle (P.profile m (Option.get !r))))

let characterization a msg g =
  let m = Defender.Model.make ~graph:g ~nu:(int_field "nu" msg) ~k:(int_field "k" msg) in
  let _, s = timed (fun () -> Defender.Tuple_nash.a_tuple_auto m) in
  Grow.push a.char_ms (1000.0 *. s)

(* ---- one request -------------------------------------------------- *)

type record = {
  phase : int;  (** 0 priming, 1 timed *)
  conn : int;
  idx : int;
  ck_ms : float;
  handle_ms : float;
  codec_ms : float;
  worker : bool;  (** the daemon sent it to a worker *)
}

let memo : unit Harness.Lru.t = Harness.Lru.create 4096
let solve_cache : J.t Harness.Lru.t = Harness.Lru.create 1024

let counter_delta (m : Obs.metrics) name =
  Option.value (List.assoc_opt name m.Obs.counters) ~default:0

let replay_one ?(relabel = false) a ~phase ~conn ~idx payload =
  let msg, dec_s =
    timed (fun () ->
        match J.of_string payload with Ok m -> m | Error e -> failwith ("replay: " ^ e))
  in
  a.requests <- a.requests + 1;
  a.req_bytes <- a.req_bytes + String.length payload;
  let daemon_metrics () =
    J.Obj
      [
        ("daemon.requests", J.Int a.requests);
        ("daemon.cache_hits", J.Int a.cache_hits);
        ("daemon.busy_rejects", J.Int 0);
      ]
  in
  let op = str_field "op" msg in
  let ck_s = ref 0.0 and handle_s = ref 0.0 and worker = ref false in
  let answer =
    match op with
    | Some "ping" -> Ok (false, J.String "pong")
    | Some "stats" ->
        Ok
          ( false,
            J.Obj
              [
                ("requests", J.Int a.requests);
                ("cache_hits", J.Int a.cache_hits);
                ("busy_rejects", J.Int 0);
                ("cache_entries", J.Int (Harness.Lru.length solve_cache));
                ("inflight", J.Int 0);
                ("workers", J.Int 2);
              ] )
    | _ -> (
        let is_solve = op = Some "solve" in
        if is_solve then begin
          (* What the parent's memo would do, then the two graph6 layers
             timed on their own for every memo miss. *)
          let g6 = Option.get (str_field "graph6" msg) in
          a.memo_lookups <- a.memo_lookups + 1;
          if relabel then a.relabels <- a.relabels + 1;
          match Harness.Lru.find memo g6 with
          | Some () -> a.memo_hits <- a.memo_hits + 1
          | None ->
              if relabel then a.relabel_misses <- a.relabel_misses + 1;
              Harness.Lru.add memo g6 ();
              let g, d = timed (fun () -> Netgraph.Graph6.decode g6) in
              let _, c = timed (fun () -> Netgraph.Graph6.canonical g) in
              Grow.push a.decode_us (1e6 *. d);
              Grow.push a.canonical_us (1e6 *. c)
        end;
        let key, ck = timed (fun () -> DS.cache_key msg) in
        ck_s := ck;
        if is_solve then Grow.push a.ck_us (1e6 *. ck);
        match Option.bind key (Harness.Lru.find solve_cache) with
        | Some result ->
            a.cache_hits <- a.cache_hits + 1;
            Ok (true, result)
        | None -> (
            worker := true;
            a.dispatched <- a.dispatched + 1;
            Obs.set_level Obs.Counters;
            let snap = Obs.snapshot () in
            let resp, h = timed (fun () -> DS.handle msg) in
            let d = Obs.delta snap in
            Obs.set_level Obs.Off;
            handle_s := h;
            Grow.push a.handle_ms (1000.0 *. h);
            a.q_big_ops <- a.q_big_ops + counter_delta d "q.big_ops";
            a.q_promotions <- a.q_promotions + counter_delta d "q.promotions";
            a.divmods <- a.divmods + counter_delta d "bignat.divmods";
            (if is_solve then
               let g = Netgraph.Graph6.decode (Option.get (str_field "graph6" msg)) in
               if str_field "method" msg = Some "double-oracle" then double_oracle a msg g
               else characterization a msg g);
            match (J.member "ok" resp, J.member "result" resp, J.member "error" resp) with
            | Some (J.Bool true), Some result, _ ->
                Option.iter (fun k -> Harness.Lru.add solve_cache k result) key;
                Ok (false, result)
            | _, _, Some (J.String e) -> Error e
            | _ -> Error "malformed handler payload"))
  in
  let id = Option.value (J.member "id" msg) ~default:J.Null in
  let envelope =
    match answer with
    | Ok (cached, result) ->
        J.Obj
          [
            ("id", id);
            ("ok", J.Bool true);
            ("cached", J.Bool cached);
            ("result", result);
            ("metrics", daemon_metrics ());
          ]
    | Error e ->
        J.Obj
          [ ("id", id); ("ok", J.Bool false); ("error", J.String e); ("metrics", daemon_metrics ()) ]
  in
  let bytes, enc_s = timed (fun () -> J.to_string envelope) in
  a.resp_bytes <- a.resp_bytes + String.length bytes;
  Grow.push a.codec_us (1e6 *. (dec_s +. enc_s));
  {
    phase;
    conn;
    idx;
    ck_ms = 1000.0 *. !ck_s;
    handle_ms = 1000.0 *. !handle_s;
    codec_ms = 1000.0 *. (dec_s +. enc_s);
    worker = !worker;
  }

(* ---- the whole sequence ------------------------------------------- *)

(* Timed-phase requests in a fixed interleaving: each connection's i-th
   request sits at fraction i / count of the merged order.  The workloads
   are built so that no outcome depends on the interleaving. *)
let merged counts =
  let slots =
    List.concat
      (List.mapi
         (fun c n -> List.init n (fun i -> (float_of_int i /. float_of_int n, c, i)))
         (Array.to_list counts))
  in
  List.sort compare slots |> List.map (fun (_, c, i) -> (c, i))

let int_count name v = (name, J.Int v)

(* Replay workload [name] at [seed] as a traced run sends it: the
   set-up ping, the priming set, each connection's [trace_counts]
   requests, and the closing stats request.  Prints one JSON object:
   per-layer metrics, deterministic counts, and one record per request
   for the caller to set against its client-side latencies. *)
let main ~workload ~seed =
  let w = Spec.make workload seed in
  let payloads = Spec.sequences w in
  let a = acc () in
  let records = Grow.create () in
  ignore (replay_one a ~phase:2 ~conn:0 ~idx:0 Spec.ping_payload);
  Array.iteri
    (fun j (r : Spec.req) ->
      Grow.push records (replay_one a ~phase:0 ~conn:0 ~idx:j (Spec.payload r j)))
    w.Spec.priming;
  List.iter
    (fun (c, i) ->
      let r, payload = payloads c i in
      let relabel = r.Spec.cls = Spec.Hit_relabel in
      Grow.push records (replay_one ~relabel a ~phase:1 ~conn:c ~idx:i payload))
    (merged w.Spec.trace_counts);
  ignore (replay_one a ~phase:2 ~conn:0 ~idx:0 Spec.stats_payload);
  let arr = Grow.to_array in
  let share x = if a.clocked_s > 0.0 then x /. a.clocked_s else 0.0 in
  let layer name unit v = (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]) in
  let layers =
    [
      layer "service.cache_key_us_p50" "us" (percentile 0.5 (arr a.ck_us));
      layer "service.cache_key_us_p99" "us" (percentile 0.99 (arr a.ck_us));
      layer "service.canon_memo_hit_ratio" "ratio" (ratio a.memo_hits a.memo_lookups);
      layer "service.handle_ms_p50" "ms" (percentile 0.5 (arr a.handle_ms));
      layer "service.handle_ms_p99" "ms" (percentile 0.99 (arr a.handle_ms));
      layer "graph6.decode_us_p50" "us" (percentile 0.5 (arr a.decode_us));
      layer "graph6.canonical_us_p50" "us" (percentile 0.5 (arr a.canonical_us));
      layer "graph6.canonical_us_p99" "us" (percentile 0.99 (arr a.canonical_us));
      layer "graph6.canonical_calls" "count" (float_of_int (Grow.length a.canonical_us));
      layer "wire.request_bytes_mean" "bytes" (ratio a.req_bytes a.requests);
      layer "wire.response_bytes_mean" "bytes" (ratio a.resp_bytes a.requests);
      layer "json.codec_us_p50" "us" (percentile 0.5 (arr a.codec_us));
      layer "do.solve_ms_p50" "ms" (percentile 0.5 (arr a.do_ms));
      layer "do.solve_ms_p99" "ms" (percentile 0.99 (arr a.do_ms));
      layer "do.iterations_mean" "count" (ratio a.iterations a.do_solves);
      layer "do.final_cols_mean" "count" (ratio a.final_cols a.do_solves);
      layer "do.warm_ratio" "ratio" (ratio a.warm a.iterations);
      layer "do.restricted_solve_share" "ratio" (share a.lp_s);
      layer "do.matrix_build_share" "ratio" (share a.build_s);
      layer "do.oracle_share" "ratio" (share a.oracle_s);
      layer "verify.oracle_ms_p50" "ms" (percentile 0.5 (arr a.verify_ms));
      layer "char.solve_ms_p50" "ms" (percentile 0.5 (arr a.char_ms));
      layer "q.big_ops_per_req" "count/req" (ratio a.q_big_ops a.requests);
      layer "q.promotions_per_req" "count/req" (ratio a.q_promotions a.requests);
      layer "bignat.divmods_per_req" "count/req" (ratio a.divmods a.requests);
      layer "trace.overhead_ratio" "ratio"
        (if a.plain_s > 0.0 then a.clocked_s /. a.plain_s else 0.0);
    ]
  in
  let counts =
    [
      int_count "requests" a.requests;
      int_count "cache_hits" a.cache_hits;
      int_count "dispatched" a.dispatched;
      int_count "canon_memo_lookups" a.memo_lookups;
      int_count "canon_memo_hits" a.memo_hits;
      int_count "relabels" a.relabels;
      int_count "relabel_memo_misses" a.relabel_misses;
      int_count "graph6.canonical_calls" (Grow.length a.canonical_us);
      int_count "wire.request_bytes" a.req_bytes;
      int_count "wire.response_bytes" a.resp_bytes;
      int_count "do.solves" a.do_solves;
      int_count "do.iterations" a.iterations;
      int_count "do.warm_solves" a.warm;
      int_count "do.final_cols" a.final_cols;
      int_count "q.big_ops" a.q_big_ops;
      int_count "q.promotions" a.q_promotions;
      int_count "bignat.divmods" a.divmods;
    ]
  in
  let record r =
    J.List
      [
        J.Int r.phase;
        J.Int r.conn;
        J.Int r.idx;
        J.Float r.ck_ms;
        J.Float r.handle_ms;
        J.Float r.codec_ms;
        J.Bool r.worker;
      ]
  in
  print_string
    (J.to_string
       (J.Obj
          [
            ("layers", J.Obj layers);
            ("counts", J.Obj counts);
            ("records", J.List (List.map record (Array.to_list (arr records))));
          ]));
  print_newline ()
