(* Tests for Harness.Daemon (socket server, frame safety, cache and
   backpressure policy, drain) and its defender instantiation
   Service.Daemon_service, including the canonical-key property the
   solve cache rests on: two relabelings of one graph share an entry. *)

module J = Harness.Json
module D = Harness.Daemon
module Engine = Defender.Tuple_instance.Engine

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  scan 0

let uniq = ref 0

let fresh_socket () =
  incr uniq;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dfd_%d_%d.sock" (Unix.getpid ()) !uniq)

(* Fork a daemon around the given handler/cache_key; run [f path] in the
   test process once the child signals readiness; then shut the daemon
   down (politely first, SIGKILL as a backstop) and return both [f]'s
   result and the daemon's wait status. *)
let with_daemon ?(workers = 1) ?timeout ?max_inflight ?cache_entries ?max_frame
    ~cache_key handler f =
  let path = fresh_socket () in
  let ready_r, ready_w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close ready_r;
      (try
         ignore
           (D.serve ~address:(D.Unix_socket path) ~workers ?timeout
              ?max_inflight ?cache_entries ?max_frame
              ~on_ready:(fun _ -> ignore (Unix.write ready_w (Bytes.of_string "R") 0 1))
              ~cache_key handler)
       with _ -> Unix._exit 2);
      Unix._exit 0
  | daemon ->
      Unix.close ready_w;
      let ready = Bytes.create 1 in
      (match Unix.read ready_r ready 0 1 with
      | 1 -> ()
      | _ -> Alcotest.fail "daemon never became ready"
      | exception Unix.Unix_error _ -> Alcotest.fail "daemon died on startup");
      Unix.close ready_r;
      let result =
        Fun.protect
          ~finally:(fun () ->
            (try Unix.kill daemon Sys.sigterm
             with Unix.Unix_error _ -> ());
            let rec reap tries =
              match Unix.waitpid [ Unix.WNOHANG ] daemon with
              | 0, _ when tries > 0 ->
                  ignore (Unix.select [] [] [] 0.1);
                  reap (tries - 1)
              | 0, _ ->
                  Unix.kill daemon Sys.sigkill;
                  ignore (Harness.Wire.waitpid_retry daemon)
              | _ -> ()
              | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
            in
            reap 50;
            try Unix.unlink path with Unix.Unix_error _ -> ())
          (fun () -> f path)
      in
      result

let wait_status daemon_pid = Harness.Wire.waitpid_retry daemon_pid

(* The toy handler: echo, a cacheable op whose result embeds a
   worker-local call counter (so a cache hit is distinguishable from a
   quiet recomputation), a sleeper, a hard failure, and a crash. *)
let calls = ref 0

let toy_handler msg =
  match J.member "op" msg with
  | Some (J.String "echo") ->
      J.Obj
        [
          ("ok", J.Bool true);
          ("result", Option.value (J.member "x" msg) ~default:J.Null);
        ]
  | Some (J.String "cache") ->
      incr calls;
      J.Obj
        [
          ("ok", J.Bool true);
          ( "result",
            J.Obj
              [
                ("x", Option.value (J.member "x" msg) ~default:J.Null);
                ("calls", J.Int !calls);
              ] );
        ]
  | Some (J.String "slow") ->
      ignore (Unix.select [] [] [] 0.5);
      J.Obj [ ("ok", J.Bool true); ("result", J.String "slept") ]
  | Some (J.String "hang") ->
      ignore (Unix.select [] [] [] 30.0);
      J.Obj [ ("ok", J.Bool true); ("result", J.String "woke") ]
  | Some (J.String "fail") ->
      J.Obj [ ("ok", J.Bool false); ("error", J.String "handler says no") ]
  | Some (J.String "crash") -> Unix._exit 9
  | _ -> J.Obj [ ("ok", J.Bool false); ("error", J.String "unknown toy op") ]

let toy_cache_key msg =
  match (J.member "op" msg, J.member "x" msg) with
  | Some (J.String "cache"), Some x -> Some ("x:" ^ J.to_string x)
  | _ -> None

let request_ok conn msg =
  match D.Client.request conn msg with
  | Ok response -> response
  | Error e -> Alcotest.failf "request failed: %s" e

let get path msg =
  let conn = D.Client.connect (D.Unix_socket path) in
  Fun.protect
    ~finally:(fun () -> D.Client.close conn)
    (fun () -> request_ok conn msg)

let field name json =
  match J.member name json with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (J.to_string json)

let metric name json =
  match J.member name (field "metrics" json) with
  | Some (J.Int v) -> v
  | _ -> Alcotest.failf "no %s metric in %s" name (J.to_string json)

let check_counters label json ~requests ~hits ~busy =
  Alcotest.(check int) (label ^ ": daemon.requests") requests
    (metric "daemon.requests" json);
  Alcotest.(check int) (label ^ ": daemon.cache_hits") hits
    (metric "daemon.cache_hits" json);
  Alcotest.(check int) (label ^ ": daemon.busy_rejects") busy
    (metric "daemon.busy_rejects" json)

(* --- protocol basics --- *)

let test_ping_and_ids () =
  with_daemon ~cache_key:toy_cache_key toy_handler @@ fun path ->
  let r = get path (J.Obj [ ("id", J.Int 41); ("op", J.String "ping") ]) in
  Alcotest.(check bool) "ok" true (field "ok" r = J.Bool true);
  Alcotest.(check bool) "id echoed" true (field "id" r = J.Int 41);
  Alcotest.(check bool) "pong" true (field "result" r = J.String "pong");
  check_counters "first" r ~requests:1 ~hits:0 ~busy:0;
  (* a structured id is echoed verbatim too, and op-less requests error *)
  let r2 = get path (J.Obj [ ("id", J.List [ J.String "a" ]) ]) in
  Alcotest.(check bool) "ok false" true (field "ok" r2 = J.Bool false);
  Alcotest.(check bool) "id echoed" true (field "id" r2 = J.List [ J.String "a" ]);
  Alcotest.(check bool) "names the problem" true
    (match field "error" r2 with
    | J.String e -> contains e "op"
    | _ -> false)

(* The server must assemble frames from arbitrarily fragmented reads:
   send a request one byte at a time over the raw socket. *)
let test_byte_at_a_time_frames () =
  with_daemon ~cache_key:toy_cache_key toy_handler @@ fun path ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Harness.Wire.close_quietly fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  let payload =
    J.to_string (J.Obj [ ("id", J.Int 1); ("op", J.String "ping") ])
  in
  let bytes = string_of_int (String.length payload) ^ "\n" ^ payload in
  String.iter
    (fun c -> ignore (Unix.write fd (Bytes.make 1 c) 0 1))
    bytes;
  match Harness.Wire.read_frame (Harness.Wire.decoder ()) fd with
  | Some (Ok r) ->
      Alcotest.(check bool) "pong through fragmentation" true
        (J.member "result" r = Some (J.String "pong"))
  | _ -> Alcotest.fail "no response to fragmented request"

(* --- frame safety: the server survives bad clients --- *)

let test_garbage_frame_rejected () =
  with_daemon ~cache_key:toy_cache_key toy_handler @@ fun path ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let junk = "not a frame at all\n" in
  ignore (Unix.write fd (Bytes.of_string junk) 0 (String.length junk));
  let dec = Harness.Wire.decoder () in
  (match Harness.Wire.read_frame dec fd with
  | Some (Ok r) ->
      Alcotest.(check bool) "error response" true (field "ok" r = J.Bool false);
      Alcotest.(check bool) "names the frame" true
        (match field "error" r with
        | J.String e -> contains e "bad frame"
        | _ -> false)
  | _ -> Alcotest.fail "no diagnostic for garbage");
  (* the connection is closed after the diagnostic... *)
  Alcotest.(check bool) "connection closed" true
    (Harness.Wire.read_frame dec fd = None);
  Harness.Wire.close_quietly fd;
  (* ...but the server is fine *)
  let r = get path (J.Obj [ ("op", J.String "ping") ]) in
  Alcotest.(check bool) "server survived" true (field "ok" r = J.Bool true)

let test_oversized_frame_rejected () =
  with_daemon ~max_frame:64 ~cache_key:toy_cache_key toy_handler @@ fun path ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (* Declare a 10 MB payload but send none of it: the guard must fire
     from the header alone. *)
  let header = "10000000\n" in
  ignore (Unix.write fd (Bytes.of_string header) 0 (String.length header));
  let dec = Harness.Wire.decoder () in
  (match Harness.Wire.read_frame dec fd with
  | Some (Ok r) ->
      Alcotest.(check bool) "rejected from header" true
        (match field "error" r with
        | J.String e -> contains e "exceeds limit"
        | _ -> false)
  | _ -> Alcotest.fail "no diagnostic for oversized frame");
  Alcotest.(check bool) "connection closed" true
    (Harness.Wire.read_frame dec fd = None);
  Harness.Wire.close_quietly fd;
  let r = get path (J.Obj [ ("op", J.String "ping") ]) in
  Alcotest.(check bool) "server survived" true (field "ok" r = J.Bool true)

(* --- cache policy and counter determinism --- *)

let test_cache_hits_and_counters () =
  with_daemon ~workers:1 ~cache_key:toy_cache_key toy_handler @@ fun path ->
  let q x = J.Obj [ ("id", J.Int x); ("op", J.String "cache"); ("x", J.Int x) ] in
  let r1 = get path (q 7) in
  Alcotest.(check bool) "cold miss" true (field "cached" r1 = J.Bool false);
  check_counters "cold" r1 ~requests:1 ~hits:0 ~busy:0;
  let r2 = get path (q 7) in
  Alcotest.(check bool) "warm hit" true (field "cached" r2 = J.Bool true);
  check_counters "warm" r2 ~requests:2 ~hits:1 ~busy:0;
  (* byte-identical result payload: the handler's call counter proves
     the worker was not consulted again *)
  Alcotest.(check string) "result bytes identical"
    (J.to_string (field "result" r1))
    (J.to_string (field "result" r2));
  let r3 = get path (q 8) in
  Alcotest.(check bool) "different key misses" true
    (field "cached" r3 = J.Bool false);
  check_counters "second cold" r3 ~requests:3 ~hits:1 ~busy:0;
  Alcotest.(check bool) "worker consulted for the new key" true
    (J.member "calls" (field "result" r3) = Some (J.Int 2));
  let r4 = get path (q 7) in
  check_counters "warm again" r4 ~requests:4 ~hits:2 ~busy:0;
  Alcotest.(check string) "still the first result"
    (J.to_string (field "result" r1))
    (J.to_string (field "result" r4))

let test_handler_errors_not_cached () =
  with_daemon ~workers:1 ~cache_key:(fun _ -> Some "same-key")
    toy_handler
  @@ fun path ->
  let r1 = get path (J.Obj [ ("op", J.String "fail") ]) in
  Alcotest.(check bool) "handler error surfaces" true
    (field "ok" r1 = J.Bool false);
  (* the error shares the cache key with a fine request; it must not
     have poisoned the cache *)
  let r2 = get path (J.Obj [ ("op", J.String "echo"); ("x", J.Int 1) ]) in
  Alcotest.(check bool) "ok after error" true (field "ok" r2 = J.Bool true);
  Alcotest.(check bool) "echo not served from a poisoned cache" true
    (field "cached" r2 = J.Bool false)

(* --- backpressure --- *)

let test_busy_rejects () =
  with_daemon ~workers:1 ~max_inflight:1 ~cache_key:toy_cache_key toy_handler
  @@ fun path ->
  let c1 = D.Client.connect (D.Unix_socket path) in
  let c2 = D.Client.connect (D.Unix_socket path) in
  Fun.protect
    ~finally:(fun () ->
      D.Client.close c1;
      D.Client.close c2)
  @@ fun () ->
  (* Occupy the single inflight slot with the sleeper, then query from a
     second connection while it holds the slot. *)
  let slow_sent = J.Obj [ ("id", J.Int 1); ("op", J.String "slow") ] in
  (match c1 with
  | _ ->
      (* send without waiting for the response *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      Harness.Wire.write_frame fd slow_sent;
      ignore (Unix.select [] [] [] 0.15);
      let r = request_ok c2 (J.Obj [ ("id", J.Int 2); ("op", J.String "echo") ]) in
      Alcotest.(check bool) "busy flag" true (field "busy" r = J.Bool true);
      Alcotest.(check bool) "not ok" true (field "ok" r = J.Bool false);
      Alcotest.(check int) "busy counted" 1 (metric "daemon.busy_rejects" r);
      (* the occupant still completes *)
      (match Harness.Wire.read_frame (Harness.Wire.decoder ()) fd with
      | Some (Ok slow_r) ->
          Alcotest.(check bool) "sleeper completed" true
            (J.member "result" slow_r = Some (J.String "slept"))
      | _ -> Alcotest.fail "sleeper lost");
      Harness.Wire.close_quietly fd;
      (* slot free again: the next request is served, reject count stays *)
      let r2 = get path (J.Obj [ ("op", J.String "echo"); ("x", J.Int 5) ]) in
      Alcotest.(check bool) "served after slot freed" true
        (field "ok" r2 = J.Bool true);
      Alcotest.(check int) "rejects stable" 1 (metric "daemon.busy_rejects" r2))

(* --- concurrency --- *)

let test_two_concurrent_clients () =
  with_daemon ~workers:2 ~cache_key:toy_cache_key toy_handler @@ fun path ->
  let c1 = D.Client.connect (D.Unix_socket path) in
  let c2 = D.Client.connect (D.Unix_socket path) in
  Fun.protect
    ~finally:(fun () ->
      D.Client.close c1;
      D.Client.close c2)
  @@ fun () ->
  for i = 1 to 5 do
    let r1 =
      request_ok c1
        (J.Obj [ ("id", J.Int (10 + i)); ("op", J.String "echo"); ("x", J.Int i) ])
    in
    let r2 =
      request_ok c2
        (J.Obj
           [ ("id", J.Int (20 + i)); ("op", J.String "echo"); ("x", J.Int (-i)) ])
    in
    Alcotest.(check bool)
      (Printf.sprintf "client 1 round %d" i)
      true
      (field "id" r1 = J.Int (10 + i) && field "result" r1 = J.Int i);
    Alcotest.(check bool)
      (Printf.sprintf "client 2 round %d" i)
      true
      (field "id" r2 = J.Int (20 + i) && field "result" r2 = J.Int (-i))
  done

(* --- worker faults surface as error envelopes --- *)

let test_worker_crash_and_timeout () =
  with_daemon ~workers:1 ~timeout:0.3 ~cache_key:toy_cache_key toy_handler
  @@ fun path ->
  let r = get path (J.Obj [ ("op", J.String "crash") ]) in
  Alcotest.(check bool) "crash becomes an error envelope" true
    (match (field "ok" r, field "error" r) with
    | J.Bool false, J.String e -> contains e "worker crashed"
    | _ -> false);
  let r2 = get path (J.Obj [ ("op", J.String "hang") ]) in
  Alcotest.(check bool) "deadline becomes an error envelope" true
    (match (field "ok" r2, field "error" r2) with
    | J.Bool false, J.String e -> contains e "timed out"
    | _ -> false);
  (* and the daemon still answers *)
  let r3 = get path (J.Obj [ ("op", J.String "ping") ]) in
  Alcotest.(check bool) "alive after faults" true (field "ok" r3 = J.Bool true)

(* --- shutdown and drain --- *)

let test_shutdown_op_drains () =
  let path = fresh_socket () in
  let ready_r, ready_w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close ready_r;
      (try
         let stats =
           D.serve ~address:(D.Unix_socket path) ~workers:1
             ~on_ready:(fun _ ->
               ignore (Unix.write ready_w (Bytes.of_string "R") 0 1))
             ~cache_key:toy_cache_key toy_handler
         in
         (* the drain path must report the counters faithfully *)
         if stats.D.requests = 2 && stats.D.cache_hits = 0 then Unix._exit 0
         else Unix._exit 3
       with _ -> Unix._exit 2)
  | daemon -> (
      Unix.close ready_w;
      let b = Bytes.create 1 in
      (match Unix.read ready_r b 0 1 with
      | 1 -> ()
      | _ -> Alcotest.fail "daemon never ready");
      Unix.close ready_r;
      let r = get path (J.Obj [ ("op", J.String "ping") ]) in
      Alcotest.(check bool) "ping ok" true (field "ok" r = J.Bool true);
      let r2 = get path (J.Obj [ ("op", J.String "shutdown") ]) in
      Alcotest.(check bool) "shutdown acknowledged" true
        (field "result" r2 = J.String "draining");
      match wait_status daemon with
      | Unix.WEXITED 0 ->
          Alcotest.(check bool) "socket removed" false (Sys.file_exists path)
      | Unix.WEXITED c -> Alcotest.failf "daemon exited %d" c
      | _ -> Alcotest.fail "daemon killed by signal")

(* Fork a toy daemon that exits 0 when [serve] returns and 2 if it
   raises; return its pid once it is ready. *)
let spawn_toy_daemon ~workers path =
  let ready_r, ready_w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close ready_r;
      (try
         ignore
           (D.serve ~address:(D.Unix_socket path) ~workers
              ~on_ready:(fun _ ->
                ignore (Unix.write ready_w (Bytes.of_string "R") 0 1))
              ~cache_key:toy_cache_key toy_handler)
       with _ -> Unix._exit 2);
      Unix._exit 0
  | daemon ->
      Unix.close ready_w;
      let b = Bytes.create 1 in
      (match Unix.read ready_r b 0 1 with
      | 1 -> ()
      | _ -> Alcotest.fail "daemon never ready");
      Unix.close ready_r;
      daemon

let expect_drained_exit daemon =
  match wait_status daemon with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> Alcotest.failf "daemon exited %d on SIGTERM" c
  | Unix.WSIGNALED s ->
      Alcotest.failf "daemon killed by %s instead of draining"
        (Harness.Wire.signal_name s)
  | Unix.WSTOPPED _ -> Alcotest.fail "daemon stopped"

let test_sigterm_drains () =
  let path = fresh_socket () in
  let daemon = spawn_toy_daemon ~workers:2 path in
  let r = get path (J.Obj [ ("op", J.String "ping") ]) in
  Alcotest.(check bool) "ping ok" true (field "ok" r = J.Bool true);
  Unix.kill daemon Sys.sigterm;
  expect_drained_exit daemon

(* A client that stops reading without closing: after
   [shutdown SHUTDOWN_RECEIVE] the daemon sees no EOF, and its answer to
   the client's pending slow request hits EPIPE.  SIGPIPE is ignored for
   the daemon's whole life, so that write fails softly: the client is
   dropped, the others are still served, and SIGTERM still drains. *)
let test_epipe_drops_client () =
  let path = fresh_socket () in
  let daemon = spawn_toy_daemon ~workers:1 path in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Harness.Wire.write_frame fd (J.Obj [ ("id", J.Int 1); ("op", J.String "slow") ]);
  Unix.shutdown fd Unix.SHUTDOWN_RECEIVE;
  (* The sleeper takes 0.5 s; poll [stats] until its answer has been
     written (nothing in flight), for up to 5 s more. *)
  let rec settled tries =
    let stats = field "result" (get path (J.Obj [ ("op", J.String "stats") ])) in
    J.member "inflight" stats = Some (J.Int 0)
    || tries > 0
       && (ignore (Unix.select [] [] [] 0.1);
           settled (tries - 1))
  in
  ignore (Unix.select [] [] [] 0.5);
  Alcotest.(check bool) "stats answered, slow answer settled" true
    (settled 50);
  let ping = get path (J.Obj [ ("op", J.String "ping") ]) in
  Alcotest.(check bool) "ping answered after it" true
    (field "result" ping = J.String "pong");
  Harness.Wire.close_quietly fd;
  Unix.kill daemon Sys.sigterm;
  expect_drained_exit daemon

(* --- the real defender service: canonical key across relabelings --- *)

let test_service_solve_shares_cache_across_relabelings () =
  with_daemon ~workers:1 ~cache_key:Service.Daemon_service.cache_key
    Service.Daemon_service.handle
  @@ fun path ->
  let g6_a = Netgraph.Graph6.encode (Netgraph.Gen.path 6) in
  (* the same 6-path under the relabeling 3-5-1-0-2-4 *)
  let g6_b =
    Netgraph.Graph6.encode
      (Netgraph.Graph.make ~n:6 [ (3, 5); (5, 1); (1, 0); (0, 2); (2, 4) ])
  in
  Alcotest.(check bool) "relabeling changes the bytes" true (g6_a <> g6_b);
  let q g6 =
    J.Obj
      [
        ("id", J.Int 0);
        ("op", J.String "solve");
        ("graph6", J.String g6);
        ("k", J.Int 2);
        ("nu", J.Int 3);
      ]
  in
  let r1 = get path (q g6_a) in
  Alcotest.(check bool) "cold solve ok" true (field "ok" r1 = J.Bool true);
  Alcotest.(check bool) "cold is a miss" true (field "cached" r1 = J.Bool false);
  Alcotest.(check bool) "gain 2 = k*nu/|IS|" true
    (J.member "gain" (field "result" r1) = Some (J.String "2"));
  let r2 = get path (q g6_b) in
  Alcotest.(check bool) "relabeled query hits" true
    (field "cached" r2 = J.Bool true);
  Alcotest.(check string) "identical result payload"
    (J.to_string (field "result" r1))
    (J.to_string (field "result" r2));
  check_counters "relabeled" r2 ~requests:2 ~hits:1 ~busy:0;
  (* different parameters are different instances *)
  let r3 =
    get path
      (J.Obj
         [
           ("op", J.String "solve");
           ("graph6", J.String g6_b);
           ("k", J.Int 1);
           ("nu", J.Int 3);
         ])
  in
  Alcotest.(check bool) "different k misses" true
    (field "cached" r3 = J.Bool false)

let test_service_profit_and_check_not_cached () =
  with_daemon ~workers:1 ~cache_key:Service.Daemon_service.cache_key
    Service.Daemon_service.handle
  @@ fun path ->
  let g = Netgraph.Gen.path 6 in
  let m = Defender.Model.make ~graph:g ~nu:3 ~k:2 in
  let prof =
    match Defender.Tuple_nash.a_tuple_auto m with
    | Ok p -> p
    | Error e -> Alcotest.failf "solver failed: %s" e
  in
  let text = Engine.Io.to_string prof in
  let q op =
    J.Obj
      [
        ("op", J.String op);
        ("graph6", J.String (Netgraph.Graph6.encode g));
        ("k", J.Int 2);
        ("nu", J.Int 3);
        ("profile", J.String text);
      ]
  in
  let r1 = get path (q "profit") in
  Alcotest.(check bool) "profit ok" true (field "ok" r1 = J.Bool true);
  Alcotest.(check bool) "gain reported" true
    (J.member "gain" (field "result" r1) = Some (J.String "2"));
  let r2 = get path (q "profit") in
  Alcotest.(check bool) "profit never cached" true
    (field "cached" r2 = J.Bool false);
  let r3 = get path (q "equilibrium-check") in
  Alcotest.(check bool) "equilibrium confirmed" true
    (J.member "confirmed" (field "result" r3) = Some (J.Bool true));
  let r4 = get path (q "equilibrium-check") in
  Alcotest.(check bool) "equilibrium-check never cached" true
    (field "cached" r4 = J.Bool false);
  (* malformed inputs come back as typed errors, not crashes *)
  let r5 =
    get path
      (J.Obj [ ("op", J.String "solve"); ("graph6", J.String "!!bogus!!") ])
  in
  Alcotest.(check bool) "bad graph6 is a clean error" true
    (match (field "ok" r5, field "error" r5) with
    | J.Bool false, J.String e -> not (contains e "crashed")
    | _ -> false)

let test_service_double_oracle_method () =
  with_daemon ~workers:1 ~cache_key:Service.Daemon_service.cache_key
    Service.Daemon_service.handle
  @@ fun path ->
  (* C5 with k=2: no closed-form characterization, but the double-oracle
     loop solves it (value 4/5 — see test_solver.ml). *)
  let g6 = Netgraph.Graph6.encode (Netgraph.Gen.cycle 5) in
  let q fields =
    J.Obj
      ([ ("op", J.String "solve"); ("graph6", J.String g6) ] @ fields)
  in
  let base = [ ("k", J.Int 2); ("nu", J.Int 2) ] in
  let r1 = get path (q (base @ [ ("method", J.String "double-oracle") ])) in
  Alcotest.(check bool) "double-oracle solve ok" true
    (field "ok" r1 = J.Bool true);
  Alcotest.(check bool) "value 4/5" true
    (J.member "value" (field "result" r1) = Some (J.String "4/5"));
  Alcotest.(check bool) "gain 8/5" true
    (J.member "gain" (field "result" r1) = Some (J.String "8/5"));
  Alcotest.(check bool) "verdict confirmed" true
    (J.member "verdict" (field "result" r1) = Some (J.String "confirmed"));
  (* the characterization answer for the same instance lives under a
     DIFFERENT cache key: it must be a miss, and a negative answer *)
  let r2 = get path (q base) in
  Alcotest.(check bool) "characterization is a separate key" true
    (field "cached" r2 = J.Bool false);
  Alcotest.(check bool) "characterization has no closed form" true
    (J.member "solvable" (field "result" r2) = Some (J.Bool false));
  (* resending the double-oracle request hits its own entry *)
  let r3 = get path (q (base @ [ ("method", J.String "double-oracle") ])) in
  Alcotest.(check bool) "double-oracle resend hits" true
    (field "cached" r3 = J.Bool true);
  Alcotest.(check string) "identical cached payload"
    (J.to_string (field "result" r1))
    (J.to_string (field "result" r3));
  (* spelling out the default method maps to the characterization key *)
  let r4 = get path (q (base @ [ ("method", J.String "characterization") ])) in
  Alcotest.(check bool) "explicit default method hits the same entry" true
    (field "cached" r4 = J.Bool true);
  (* the subgraph game solves under double-oracle only *)
  let r5 =
    get path
      (q
         [
           ("game", J.String "subgraph");
           ("lambda", J.Int 2);
           ("nu", J.Int 2);
           ("method", J.String "double-oracle");
         ])
  in
  Alcotest.(check bool) "subgraph double-oracle ok" true
    (field "ok" r5 = J.Bool true);
  Alcotest.(check bool) "subgraph value 2/5" true
    (J.member "value" (field "result" r5) = Some (J.String "2/5"))

let test_service_equilibrium_check_oracle_mode () =
  with_daemon ~workers:1 ~cache_key:Service.Daemon_service.cache_key
    Service.Daemon_service.handle
  @@ fun path ->
  let g = Netgraph.Gen.path 6 in
  let m = Defender.Model.make ~graph:g ~nu:3 ~k:2 in
  let prof =
    match Defender.Tuple_nash.a_tuple_auto m with
    | Ok p -> p
    | Error e -> Alcotest.failf "solver failed: %s" e
  in
  let r =
    get path
      (J.Obj
         [
           ("op", J.String "equilibrium-check");
           ("graph6", J.String (Netgraph.Graph6.encode g));
           ("k", J.Int 2);
           ("nu", J.Int 3);
           ("profile", J.String (Engine.Io.to_string prof));
           ("mode", J.String "oracle");
         ])
  in
  Alcotest.(check bool) "oracle-mode check ok" true (field "ok" r = J.Bool true);
  Alcotest.(check bool) "confirmed" true
    (J.member "confirmed" (field "result" r) = Some (J.Bool true))

(* An exhaustive check on a tuple space just past the enumeration
   budget (K11, k = 5: C(55,5) = 3 478 761) is refused with the
   engine's own message, inside the error envelope.  The profile's one
   tuple leaves vertex 10 uncovered for the attacker, so the defender
   side is reached and refuses.  The profile's edge ids are those of
   the graph as the service decodes it. *)
let test_service_exhaustive_check_over_budget () =
  let g6 = Netgraph.Graph6.encode (Netgraph.Gen.complete 11) in
  let g = Netgraph.Graph6.decode g6 in
  let m = Defender.Model.make ~graph:g ~nu:1 ~k:5 in
  let edge a b = Option.get (Netgraph.Graph.find_edge g a b) in
  let t =
    Defender.Tuple.of_list g [ edge 0 1; edge 2 3; edge 4 5; edge 6 7; edge 8 9 ]
  in
  let prof =
    Engine.Profile.make_mixed m ~vp:[ Dist.Finite.point 10 ] ~tp:[ (t, Exact.Q.one) ]
  in
  Alcotest.(check string) "refusal envelope"
    {|{"ok":false,"error":"Best_response: tuple space too large for enumeration"}|}
    (J.to_string
       (Service.Daemon_service.handle
          (J.Obj
             [
               ("op", J.String "equilibrium-check");
               ("graph6", J.String g6);
               ("k", J.Int 5);
               ("nu", J.Int 1);
               ("profile", J.String (Engine.Io.to_string prof));
               ("mode", J.String "exhaustive");
             ])))

(* A 9-byte sparse6 line declaring 10^9 vertices: decoding it would
   allocate gigabytes in the parent (the cache key) and in a worker.
   The service refuses it from the size header alone, and the daemon
   keeps answering.  A valid sparse6 instance still solves, with the
   same answer as its graph6 form. *)
let test_service_sparse6_bomb_refused () =
  with_daemon ~workers:1 ~cache_key:Service.Daemon_service.cache_key
    Service.Daemon_service.handle
  @@ fun path ->
  let solve g6 =
    get path (J.Obj [ ("op", J.String "solve"); ("graph6", J.String g6) ])
  in
  let r = solve ":~~?zekg?" in
  Alcotest.(check bool) "bomb refused" true (field "ok" r = J.Bool false);
  Alcotest.(check bool) "names the bound" true
    (match field "error" r with
    | J.String e -> contains e "6 vertices per byte"
    | _ -> false);
  let ping = get path (J.Obj [ ("op", J.String "ping") ]) in
  Alcotest.(check bool) "ping still answers" true
    (field "result" ping = J.String "pong");
  let g = Netgraph.Gen.cycle 6 in
  let sparse = solve (Netgraph.Graph6.encode_sparse6 g) in
  Alcotest.(check bool) "valid sparse6 solves" true
    (field "ok" sparse = J.Bool true);
  Alcotest.(check string) "same answer as graph6"
    (J.to_string (field "result" (solve (Netgraph.Graph6.encode g))))
    (J.to_string (field "result" sparse))

(* A malformed graph6 line makes the parent's cache key raise
   Invalid_argument while decoding; the request still reaches a worker,
   whose decode error comes back, and the same connection keeps being
   served. *)
let test_service_malformed_graph6_keeps_connection () =
  with_daemon ~workers:1 ~cache_key:Service.Daemon_service.cache_key
    Service.Daemon_service.handle
  @@ fun path ->
  let conn = D.Client.connect (D.Unix_socket path) in
  Fun.protect ~finally:(fun () -> D.Client.close conn) @@ fun () ->
  List.iter
    (fun (g6, expected) ->
      let r =
        request_ok conn
          (J.Obj [ ("op", J.String "solve"); ("graph6", J.String g6) ])
      in
      Alcotest.(check string) (g6 ^ ": the worker's error")
        (J.to_string (J.Obj [ ("ok", J.Bool false); ("error", J.String expected) ]))
        (J.to_string (J.Obj [ ("ok", field "ok" r); ("error", field "error" r) ]));
      let ping = request_ok conn (J.Obj [ ("op", J.String "ping") ]) in
      Alcotest.(check bool) (g6 ^ ": ping answered after it") true
        (field "result" ping = J.String "pong"))
    [
      ("!!bogus!!", "Graph6.decode: invalid character");
      ("E", "Graph6.decode: truncated adjacency data");
    ]

(* A sparse6 line of [bytes] bytes declaring [n] vertices and no edge:
   its (b, x) groups only move the current vertex forward (b = 0, x
   rising from 1), and a short trailing group is padding. *)
let sparse6_isolated ~n ~bytes =
  let k =
    let rec bits k = if n - 1 < 1 lsl k then k else bits (k + 1) in
    bits 1
  in
  let header = String.sub (Netgraph.Graph6.encode_sparse6 (Netgraph.Graph.make ~n [])) 0 5 in
  let data_bytes = bytes - String.length header in
  let bit i =
    let group = i / (k + 1) and j = i mod (k + 1) in
    if j = 0 then 0 else ((group + 1) lsr (k - j)) land 1
  in
  header
  ^ String.init data_bytes (fun b ->
        let v = ref 0 in
        for j = 0 to 5 do
          v := (!v lsl 1) lor bit ((6 * b) + j)
        done;
        Char.chr (63 + !v))

(* Two hostile requests on connection A must not stall connection B:
   a solve on 6 000 isolated vertices (no solve accepts it, so the
   parent computes no cache key for it) and a frame of 10^6 nested '['
   (refused at the JSON depth bound).  B pings until A's answer is
   waiting, and every ping must come back within [bound]; canonicalizing
   that graph in the parent took seconds, and parsing that frame most
   of one. *)
let test_service_hostile_requests_do_not_stall () =
  let bound = 0.5 in
  with_daemon ~workers:1 ~cache_key:Service.Daemon_service.cache_key
    Service.Daemon_service.handle
  @@ fun path ->
  let b = D.Client.connect (D.Unix_socket path) in
  Fun.protect ~finally:(fun () -> D.Client.close b) @@ fun () ->
  let a = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Harness.Wire.close_quietly a) @@ fun () ->
  Unix.connect a (Unix.ADDR_UNIX path);
  let pings_until_answered label =
    let rec loop count =
      let t0 = Unix.gettimeofday () in
      let r = request_ok b (J.Obj [ ("op", J.String "ping") ]) in
      let took = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) (label ^ ": pong") true (field "result" r = J.String "pong");
      if took > bound then
        Alcotest.failf "%s: a ping took %.3f s (bound %.1f s)" label took bound;
      match Unix.select [ a ] [] [] 0.0 with
      | [], _, _ when count < 10_000 -> loop (count + 1)
      | _ -> ()
    in
    loop 1
  in
  let dec = Harness.Wire.decoder () in
  let g6 = sparse6_isolated ~n:6000 ~bytes:1000 in
  Alcotest.(check int) "line declares 6 000 vertices" 6000 (Netgraph.Graph6.order g6);
  Harness.Wire.write_frame a
    (J.Obj [ ("op", J.String "solve"); ("graph6", J.String g6) ]);
  pings_until_answered "isolated-vertex solve";
  (match Harness.Wire.read_frame dec a with
  | Some (Ok r) ->
      Alcotest.(check bool) "instance refused" true (field "ok" r = J.Bool false);
      Alcotest.(check bool) "the worker's instance error" true
        (match field "error" r with
        | J.String e -> contains e "isolated"
        | _ -> false)
  | _ -> Alcotest.fail "no answer to the isolated-vertex solve");
  let deep = String.make 1_000_000 '[' in
  Harness.Wire.write_all a (string_of_int (String.length deep) ^ "\n" ^ deep);
  pings_until_answered "deep frame";
  (match Harness.Wire.read_frame dec a with
  | Some (Ok r) ->
      Alcotest.(check bool) "bad frame" true
        (match field "error" r with
        | J.String e -> contains e "bad frame"
        | _ -> false)
  | _ -> Alcotest.fail "no answer to the deep frame");
  Alcotest.(check bool) "A closed" true (Harness.Wire.read_frame dec a = None);
  let ping = request_ok b (J.Obj [ ("op", J.String "ping") ]) in
  Alcotest.(check bool) "the daemon keeps serving" true
    (field "result" ping = J.String "pong")

let () =
  Alcotest.run "daemon"
    [
      ( "protocol",
        [
          Alcotest.test_case "ping and ids" `Quick test_ping_and_ids;
          Alcotest.test_case "byte-at-a-time frames" `Quick
            test_byte_at_a_time_frames;
          Alcotest.test_case "two concurrent clients" `Quick
            test_two_concurrent_clients;
        ] );
      ( "frame safety",
        [
          Alcotest.test_case "garbage frame" `Quick test_garbage_frame_rejected;
          Alcotest.test_case "oversized frame" `Quick
            test_oversized_frame_rejected;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hits and counters" `Quick
            test_cache_hits_and_counters;
          Alcotest.test_case "handler errors not cached" `Quick
            test_handler_errors_not_cached;
        ] );
      ( "backpressure",
        [ Alcotest.test_case "busy rejects" `Quick test_busy_rejects ] );
      ( "faults",
        [
          Alcotest.test_case "worker crash and timeout" `Quick
            test_worker_crash_and_timeout;
        ] );
      ( "drain",
        [
          Alcotest.test_case "shutdown op" `Quick test_shutdown_op_drains;
          Alcotest.test_case "SIGTERM" `Quick test_sigterm_drains;
          Alcotest.test_case "EPIPE drops the client" `Quick
            test_epipe_drops_client;
        ] );
      ( "service",
        [
          Alcotest.test_case "solve cache across relabelings" `Quick
            test_service_solve_shares_cache_across_relabelings;
          Alcotest.test_case "profit/check uncached" `Quick
            test_service_profit_and_check_not_cached;
          Alcotest.test_case "double-oracle method" `Quick
            test_service_double_oracle_method;
          Alcotest.test_case "oracle-mode equilibrium check" `Quick
            test_service_equilibrium_check_oracle_mode;
          Alcotest.test_case "sparse6 memory bomb refused" `Quick
            test_service_sparse6_bomb_refused;
          Alcotest.test_case "malformed graph6 keeps the connection" `Quick
            test_service_malformed_graph6_keeps_connection;
          Alcotest.test_case "exhaustive check over the budget" `Quick
            test_service_exhaustive_check_over_budget;
          Alcotest.test_case "hostile requests do not stall others" `Quick
            test_service_hostile_requests_do_not_stall;
        ] );
    ]
