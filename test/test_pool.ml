(* Tests for the persistent worker pool (Harness.Pool) and the shared
   pipe machinery (Harness.Wire): a seeded fuzz of the frame decoder,
   EINTR-hardened pipe I/O under a signal storm, worker respawn with one
   retry, timeouts and the deadline-race rule, graceful drain, worker
   signal dispositions, and registry sweeps at worker counts and fault
   paths beyond those in test_experiment.ml. *)

module J = Harness.Json
module E = Harness.Experiment
module R = Harness.Registry
module P = Harness.Pool

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  scan 0

(* --- Wire: framing and the streaming decoder --- *)

let frame json =
  let payload = J.to_string json in
  string_of_int (String.length payload) ^ "\n" ^ payload

let test_wire_decoder_split_feed () =
  let d = Harness.Wire.decoder () in
  let msg = J.Obj [ ("job", J.Int 7); ("payload", J.List [ J.Int 1 ]) ] in
  let bytes = frame msg in
  (* One byte at a time: no prefix shorter than the whole frame yields
     anything, the full frame yields exactly the message. *)
  String.iteri
    (fun i c ->
      let got =
        Harness.Wire.feed d (Bytes.make 1 c) 1;
        Harness.Wire.next_frame d
      in
      if i < String.length bytes - 1 then
        Alcotest.(check bool)
          (Printf.sprintf "no frame after %d bytes" (i + 1))
          true (got = None)
      else
        Alcotest.(check bool) "full frame decodes" true (got = Some (Ok msg)))
    bytes;
  Alcotest.(check bool) "decoder drained" false (Harness.Wire.partial d);
  (* Two frames plus a partial third in a single feed. *)
  let m1 = J.Int 1 and m2 = J.Obj [ ("k", J.Bool true) ] in
  let all = frame m1 ^ frame m2 ^ "5\n{\"a\"" in
  Harness.Wire.feed d (Bytes.of_string all) (String.length all);
  Alcotest.(check bool) "first frame" true
    (Harness.Wire.next_frame d = Some (Ok m1));
  Alcotest.(check bool) "second frame" true
    (Harness.Wire.next_frame d = Some (Ok m2));
  Alcotest.(check bool) "third incomplete" true
    (Harness.Wire.next_frame d = None);
  Alcotest.(check bool) "partial bytes held" true (Harness.Wire.partial d)

let test_wire_decoder_bad_header () =
  let d = Harness.Wire.decoder () in
  let junk = "nonsense\n{}" in
  Harness.Wire.feed d (Bytes.of_string junk) (String.length junk);
  (match Harness.Wire.next_frame d with
  | Some (Error e) ->
      Alcotest.(check bool) "names the header" true (contains e "nonsense")
  | _ -> Alcotest.fail "bad header accepted");
  let d2 = Harness.Wire.decoder () in
  let long = String.make 30 '1' in
  Harness.Wire.feed d2 (Bytes.of_string long) (String.length long);
  match Harness.Wire.next_frame d2 with
  | Some (Error e) ->
      Alcotest.(check bool) "overlong header rejected" true (contains e "too long")
  | _ -> Alcotest.fail "overlong header accepted"

let test_wire_frame_roundtrip () =
  let rd, wr = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      Harness.Wire.close_quietly rd;
      Harness.Wire.close_quietly wr)
    (fun () ->
      let msg = J.Obj [ ("s", J.String "n\xe2\x9c\x93l\n") ] in
      Harness.Wire.write_frame wr msg;
      (match Harness.Wire.read_frame rd with
      | Some (Ok got) -> Alcotest.(check bool) "round-trips" true (got = msg)
      | Some (Error e) -> Alcotest.failf "frame failed: %s" e
      | None -> Alcotest.fail "unexpected EOF");
      Unix.close wr;
      Alcotest.(check bool) "EOF is None" true
        (Harness.Wire.read_frame rd = None))

(* --- Wire: decoder fuzz --- *)

(* Seeded random streams: well-formed frames (some over the payload
   limit) interleaved with corrupt headers, digit runs and raw random
   bytes.  Three properties, checked on every stream:
   - the decoder never raises, whatever the bytes and split points;
   - no Ok payload exceeds [max_payload];
   - once a header error is reported, no later call returns Ok.
   Payload sizes are measured exactly from a byte-at-a-time reference
   run, where each result comes out on the byte that completes it; a
   random-split run must then report the same result sequence. *)

let fuzz_limit = 24

let is_header_error msg =
  List.exists
    (fun prefix -> String.starts_with ~prefix msg)
    [ "frame header too long"; "bad frame header"; "frame payload of" ]

let fuzz_stream rng =
  let module Rng = Prng.Rng in
  let buf = Buffer.create 256 in
  let letters n = String.init n (fun _ -> Char.chr (97 + Rng.int rng 26)) in
  let add_frame payload =
    Buffer.add_string buf (string_of_int (String.length payload));
    Buffer.add_char buf '\n';
    Buffer.add_string buf payload
  in
  let alphabet = "0123456789\n{}[]\",:-+ ax_" in
  for _ = 1 to Rng.int_in_range rng ~lo:1 ~hi:12 do
    match Rng.int rng 6 with
    | 0 | 1 ->
        add_frame
          (J.to_string (J.String (letters (Rng.int rng (2 * fuzz_limit)))))
    | 2 -> add_frame (J.to_string (J.List [ J.Int (Rng.int rng 1000) ]))
    | 3 ->
        (* a valid header whose payload is cut short or overrun *)
        Buffer.add_string buf (string_of_int (Rng.int rng (3 * fuzz_limit)));
        Buffer.add_char buf '\n';
        Buffer.add_string buf (letters (Rng.int rng 8))
    | 4 ->
        for _ = 1 to Rng.int rng 24 do
          Buffer.add_char buf alphabet.[Rng.int rng (String.length alphabet)]
        done
    | _ ->
        for _ = 1 to Rng.int rng 8 do
          Buffer.add_char buf (Char.chr (Rng.int rng 256))
        done
  done;
  Buffer.contents buf

let fuzz_next label d =
  match Harness.Wire.next_frame ~max_payload:fuzz_limit d with
  | (None | Some (Ok _) | Some (Error _)) as r -> r
  | exception e ->
      Alcotest.failf "%s: next_frame raised %s" label (Printexc.to_string e)

let fuzz_feed label d s pos len =
  try Harness.Wire.feed d (Bytes.of_string (String.sub s pos len)) len
  with e -> Alcotest.failf "%s: feed raised %s" label (Printexc.to_string e)

(* Feed [stream] in [chunks]; the results in order, draining after each
   chunk, up to and including the first header error.  Past that point
   the remaining chunks are still fed and polled, and must yield no Ok.
   [on_result] sees each result with the stream offset fed so far. *)
let fuzz_decode label stream chunks ~on_result =
  let d = Harness.Wire.decoder () in
  let results = ref [] and poisoned = ref false and fed = ref 0 in
  List.iter
    (fun len ->
      fuzz_feed label d stream !fed len;
      fed := !fed + len;
      if !poisoned then (
        match fuzz_next label d with
        | Some (Ok _) ->
            Alcotest.failf "%s: Ok after a header error (offset %d)" label !fed
        | None | Some (Error _) -> ())
      else
        let rec drain () =
          match fuzz_next label d with
          | None -> ()
          | Some r ->
              results := r :: !results;
              on_result !fed r;
              (match r with
              | Error msg when is_header_error msg -> poisoned := true
              | Ok _ | Error _ -> drain ())
        in
        drain ())
    chunks;
  List.rev !results

let test_wire_decoder_fuzz () =
  let rng = Prng.Rng.create 4242 in
  for i = 1 to 300 do
    let stream = fuzz_stream rng in
    let n = String.length stream in
    let label = Printf.sprintf "stream %d (%d bytes)" i n in
    (* Reference run, one byte at a time: a frame's result comes out on
       the byte that completes it, so [start] (where the frame began)
       and the offset fed so far bound its payload exactly. *)
    let start = ref 0 in
    let reference =
      fuzz_decode label stream (List.init n (fun _ -> 1))
        ~on_result:(fun fed r ->
          match r with
          | Ok _ ->
              let nl = String.index_from stream !start '\n' in
              let payload = fed - nl - 1 in
              if payload > fuzz_limit then
                Alcotest.failf "%s: Ok payload of %d bytes over limit %d"
                  label payload fuzz_limit;
              start := fed
          | Error msg -> if not (is_header_error msg) then start := fed)
    in
    (* Random split points must not change what comes out. *)
    let rec split left =
      if left = 0 then []
      else
        let len = Prng.Rng.int_in_range rng ~lo:1 ~hi:(min left 40) in
        len :: split (left - len)
    in
    let chunked =
      fuzz_decode label stream (split n) ~on_result:(fun _ _ -> ())
    in
    Alcotest.(check bool)
      (label ^ ": random splits decode like byte-at-a-time")
      true (chunked = reference)
  done

(* --- signal storms: EINTR on every pipe path --- *)

(* Flood both sides with SIGALRM while payloads several times the pipe
   buffer stream through: worker writes block and get interrupted
   (Wire.write_all must retry), parent select/reads get interrupted.
   Before write_all retried EINTR, this lost workers to spurious
   exceptions and misreported completed jobs as crashes. *)
let with_parent_storm f =
  let old_handler =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ()))
  in
  let stop = { Unix.it_interval = 0.0; it_value = 0.0 } in
  let storm = { Unix.it_interval = 0.002; it_value = 0.002 } in
  ignore (Unix.setitimer Unix.ITIMER_REAL storm);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL stop);
      Sys.set_signal Sys.sigalrm old_handler)
    f

let storm_job i =
  (* Re-arm inside the worker: interval timers do not survive fork. *)
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ()));
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = 0.0005; it_value = 0.0005 });
  J.Obj [ ("i", J.Int i); ("blob", J.String (String.make 200_000 'x')) ]

let check_storm_outcomes outcomes =
  Array.iteri
    (fun i outcome ->
      match outcome with
      | P.Completed json ->
          Alcotest.(check bool)
            (Printf.sprintf "job %d payload intact" i)
            true
            (J.member "i" json = Some (J.Int i)
            &&
            match J.member "blob" json with
            | Some (J.String s) -> String.length s = 200_000
            | _ -> false)
      | P.Crashed { reason; _ } ->
          Alcotest.failf "job %d crashed under signal storm: %s" i reason)
    outcomes

let test_pool_eintr_storm () =
  with_parent_storm (fun () ->
      check_storm_outcomes (P.run ~jobs:4 40 storm_job))

(* --- Pool basics --- *)

let test_pool_run_basics () =
  let out = P.run ~jobs:3 10 (fun i -> J.Int (i * i)) in
  Alcotest.(check int) "all jobs answered" 10 (Array.length out);
  Array.iteri
    (fun i outcome ->
      match outcome with
      | P.Completed (J.Int v) ->
          Alcotest.(check int) (Printf.sprintf "job %d" i) (i * i) v
      | _ -> Alcotest.failf "job %d did not complete" i)
    out;
  (* More workers than jobs is clamped, zero jobs is empty. *)
  Alcotest.(check int) "count 0" 0 (Array.length (P.run ~jobs:4 0 (fun _ -> J.Null)));
  Alcotest.check_raises "jobs 0 rejected"
    (Invalid_argument "Pool.run: jobs must be positive") (fun () ->
      ignore (P.run ~jobs:0 1 (fun _ -> J.Null)));
  Alcotest.check_raises "negative timeout rejected"
    (Invalid_argument "Pool.run: timeout must be positive") (fun () ->
      ignore (P.run ~jobs:1 ~timeout:(-1.0) 1 (fun _ -> J.Null)))

(* Workers persist across jobs and batches: every job on a 1-worker pool
   reports the same worker pid, across two separate batches.  This is
   the property fork-per-job cannot have, and the whole point of the
   pool (warm caches live exactly as long as the worker). *)
let test_pool_workers_persist () =
  let p = P.create ~workers:1 (fun _ -> J.Int (Unix.getpid ())) in
  Fun.protect ~finally:(fun () -> P.shutdown p) @@ fun () ->
  Alcotest.(check int) "worker count" 1 (P.worker_count p);
  let pids =
    List.concat_map
      (fun batch ->
        List.map
          (fun (_, outcome) ->
            match outcome with
            | P.Completed (J.Int pid) -> pid
            | _ -> Alcotest.fail "job did not complete")
          (P.run_batch p batch))
      [ [ 0; 1; 2 ]; [ 3; 4 ] ]
  in
  Alcotest.(check int) "five answers" 5 (List.length pids);
  Alcotest.(check bool) "one persistent worker served all jobs" true
    (List.for_all (fun pid -> pid = List.hd pids) pids);
  Alcotest.(check bool) "worker is not the test process" true
    (List.hd pids <> Unix.getpid ())

(* --- fault tolerance --- *)

(* A job that kills its worker on first attempt and succeeds on the
   retry (a crash marker file distinguishes the attempts).  The pool
   must respawn the worker and deliver the retried result; the counters
   record exactly one respawn and jobs+1 dispatches. *)
let test_pool_respawn_retry_success () =
  let marker = Filename.temp_file "pool_retry" ".flag" in
  Sys.remove marker;
  Fun.protect ~finally:(fun () -> if Sys.file_exists marker then Sys.remove marker)
  @@ fun () ->
  let module Obs = Harness.Obs in
  let ambient = Obs.level () in
  Obs.set_level Obs.Counters;
  Fun.protect ~finally:(fun () -> Obs.set_level ambient) @@ fun () ->
  let snap = Obs.snapshot () in
  let out =
    P.run ~jobs:2 3 (fun i ->
        if i = 1 && not (Sys.file_exists marker) then begin
          let oc = open_out marker in
          close_out oc;
          Unix.kill (Unix.getpid ()) Sys.sigkill
        end;
        J.Int (i * 10))
  in
  Array.iteri
    (fun i outcome ->
      match outcome with
      | P.Completed (J.Int v) ->
          Alcotest.(check int) (Printf.sprintf "job %d" i) (i * 10) v
      | P.Completed _ ->
          Alcotest.failf "job %d returned an unexpected payload" i
      | P.Crashed { reason; _ } ->
          Alcotest.failf "job %d crashed despite retry: %s" i reason)
    out;
  Alcotest.(check bool) "first attempt really crashed" true
    (Sys.file_exists marker);
  let d = Obs.delta snap in
  Alcotest.(check bool) "one respawn recorded" true
    (List.mem_assoc "pool.respawns" d.Obs.counters
    && List.assoc "pool.respawns" d.Obs.counters = 1);
  Alcotest.(check bool) "dispatches = jobs + one retry" true
    (List.assoc_opt "pool.dispatches" d.Obs.counters = Some 4)

(* A worker that dies on both attempts: the job is Crashed with the
   signal named, siblings are untouched. *)
let test_pool_persistent_crash () =
  let out =
    P.run ~jobs:2 4 (fun i ->
        if i = 2 then Unix.kill (Unix.getpid ()) Sys.sigkill;
        J.Int i)
  in
  (match out.(2) with
  | P.Crashed { reason; _ } ->
      Alcotest.(check string) "reason names the signal"
        "worker killed by SIGKILL" reason
  | P.Completed _ -> Alcotest.fail "crasher completed?");
  List.iter
    (fun i ->
      match out.(i) with
      | P.Completed (J.Int v) ->
          Alcotest.(check int) (Printf.sprintf "sibling %d" i) i v
      | _ -> Alcotest.failf "sibling %d crashed" i)
    [ 0; 1; 3 ]

(* A timed-out job is killed and reported with the timeout reason and
   no retry (the deadline must not be paid twice); siblings complete. *)
let test_pool_timeout () =
  let module Obs = Harness.Obs in
  let ambient = Obs.level () in
  Obs.set_level Obs.Counters;
  Fun.protect ~finally:(fun () -> Obs.set_level ambient) @@ fun () ->
  let snap = Obs.snapshot () in
  let out =
    P.run ~jobs:2 ~timeout:0.2 3 (fun i ->
        if i = 1 then ignore (Unix.select [] [] [] 30.0);
        J.Int i)
  in
  (match out.(1) with
  | P.Crashed { reason; wall } ->
      Alcotest.(check bool) "reason says timed out" true
        (contains reason "timed out after 0.2 s");
      Alcotest.(check bool) "wall at least the budget" true (wall >= 0.2)
  | P.Completed _ -> Alcotest.fail "sleeper completed?");
  List.iter
    (fun i ->
      match out.(i) with
      | P.Completed (J.Int v) ->
          Alcotest.(check int) (Printf.sprintf "fast job %d" i) i v
      | _ -> Alcotest.failf "fast job %d crashed" i)
    [ 0; 2 ];
  let d = Obs.delta snap in
  Alcotest.(check bool) "timeout not retried: dispatches = jobs" true
    (List.assoc_opt "pool.dispatches" d.Obs.counters = Some 3)

(* --- work stealing --- *)

(* 2 workers, 12 jobs dealt round-robin, job 0 sleeps: worker 1 drains
   its own six fast jobs and must steal from worker 0's queue, so the
   batch finishes long before the sleeper alone would let worker 0's
   share.  The steal count is timing-dependent by nature — which is
   exactly why pool.steals is a volatile counter — but under a 0.6 s
   head start at least one steal is certain. *)
let test_pool_work_stealing () =
  let module Obs = Harness.Obs in
  let ambient = Obs.level () in
  Obs.set_level Obs.Counters;
  Fun.protect ~finally:(fun () -> Obs.set_level ambient) @@ fun () ->
  let snap = Obs.snapshot () in
  let p =
    P.create ~workers:2 (fun i ->
        if i = 0 then ignore (Unix.select [] [] [] 0.6);
        J.Int i)
  in
  Fun.protect ~finally:(fun () -> P.shutdown p) @@ fun () ->
  let results = P.run_batch p (List.init 12 Fun.id) in
  Alcotest.(check (list int)) "argument order kept" (List.init 12 Fun.id)
    (List.map fst results);
  List.iter
    (fun (i, outcome) ->
      match outcome with
      | P.Completed (J.Int v) ->
          Alcotest.(check int) (Printf.sprintf "job %d" i) i v
      | _ -> Alcotest.failf "job %d crashed" i)
    results;
  let d = Obs.delta snap in
  Alcotest.(check bool) "dispatches deterministic" true
    (List.assoc_opt "pool.dispatches" d.Obs.counters = Some 12);
  Alcotest.(check bool) "at least one steal, recorded volatile" true
    (match List.assoc_opt "pool.steals" d.Obs.volatile with
    | Some n -> n >= 1
    | None -> false);
  Alcotest.(check bool) "steals never in the deterministic section" true
    (not (List.mem_assoc "pool.steals" d.Obs.counters))

(* --- health checks and drain --- *)

let test_pool_alive_ping_shutdown () =
  let p =
    P.create ~workers:2 (fun i ->
        (* Job 0 arms a time bomb: the worker answers normally, then the
           default SIGALRM disposition kills it ~1 s later while idle. *)
        if i = 0 then ignore (Unix.alarm 1);
        J.Int i)
  in
  Fun.protect ~finally:(fun () -> P.shutdown p) @@ fun () ->
  Alcotest.(check (list bool)) "all alive at start" [ true; true ] (P.alive p);
  Alcotest.(check (list bool)) "all answer ping" [ true; true ] (P.ping p);
  let b1 = P.run_batch p [ 0; 1 ] in
  Alcotest.(check int) "first batch done" 2 (List.length b1);
  ignore (Unix.select [] [] [] 1.3);
  (* The bomb went off while the worker sat idle: liveness sees it. *)
  Alcotest.(check (list bool)) "dead worker detected" [ false; true ]
    (P.alive p);
  Alcotest.(check (list bool)) "ping agrees" [ false; true ] (P.ping p);
  (* The next batch respawns the dead slot and completes on both. *)
  let b2 = P.run_batch p [ 5; 6 ] in
  List.iter
    (fun (i, outcome) ->
      match outcome with
      | P.Completed (J.Int v) ->
          Alcotest.(check int) (Printf.sprintf "job %d after respawn" i) i v
      | _ -> Alcotest.failf "job %d crashed after respawn" i)
    b2;
  Alcotest.(check (list bool)) "full strength again" [ true; true ] (P.alive p);
  P.shutdown p;
  P.shutdown p (* idempotent *);
  Alcotest.(check (list bool)) "drained" [ false; false ] (P.alive p);
  Alcotest.check_raises "run_batch after shutdown"
    (Invalid_argument "Pool.run_batch: pool is shut down") (fun () ->
      ignore (P.run_batch p [ 1 ]))

(* --- asynchronous service interface --- *)

(* Drive a service pool's submit/step cycle the way the daemon does:
   select on resp_fds, hand the readable set to step, collect
   settlements until nothing is pending. *)
let drive ?(budget = 30.0) p =
  let deadline = Unix.gettimeofday () +. budget in
  let out = ref [] in
  while P.pending p > 0 do
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "service pool did not settle in time";
    let fds = P.resp_fds p in
    let readable, _, _ =
      try Unix.select fds [] [] 0.2
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    out := !out @ P.step p ~readable
  done;
  !out

let test_pool_service_submit_step () =
  let p =
    P.create_service ~workers:2 (fun arg ->
        match J.member "x" arg with
        | Some (J.Int x) -> J.Obj [ ("ok", J.Bool true); ("y", J.Int (x * x)) ]
        | _ -> J.Obj [ ("ok", J.Bool false) ])
  in
  Fun.protect ~finally:(fun () -> P.shutdown p) @@ fun () ->
  List.iter
    (fun t -> P.submit p ~arg:(J.Obj [ ("x", J.Int t) ]) (100 + t))
    [ 0; 1; 2; 3; 4 ];
  Alcotest.(check int) "five pending" 5 (P.pending p);
  let settled = drive p in
  Alcotest.(check int) "five settled" 5 (List.length settled);
  List.iter
    (fun t ->
      match List.assoc_opt (100 + t) settled with
      | Some (P.Completed json) ->
          Alcotest.(check bool)
            (Printf.sprintf "ticket %d payload" t)
            true
            (J.member "y" json = Some (J.Int (t * t)))
      | Some (P.Crashed { reason; _ }) ->
          Alcotest.failf "ticket %d crashed: %s" t reason
      | None -> Alcotest.failf "ticket %d never settled" t)
    [ 0; 1; 2; 3; 4 ];
  (* arg-handler pairing is validated both ways, batch mode is locked. *)
  Alcotest.check_raises "submit without payload"
    (Invalid_argument "Pool.submit: this pool's handler needs a payload")
    (fun () -> P.submit p 9);
  Alcotest.check_raises "run_batch on a service pool"
    (Invalid_argument "Pool.run_batch: service pools take jobs through submit")
    (fun () -> ignore (P.run_batch p [ 1 ]));
  let batch = P.create ~workers:1 (fun i -> J.Int i) in
  Fun.protect ~finally:(fun () -> P.shutdown batch) @@ fun () ->
  Alcotest.check_raises "payload on a batch pool"
    (Invalid_argument "Pool.submit: this pool's handler takes no payload")
    (fun () -> P.submit batch ~arg:J.Null 1)

let test_pool_service_crash_and_deadline () =
  let p =
    P.create_service ~workers:2 ~timeout:0.3 (fun arg ->
        match J.member "op" arg with
        | Some (J.String "crash") -> Unix._exit 9
        | Some (J.String "hang") ->
            ignore (Unix.select [] [] [] 30.0);
            J.Null
        | _ -> J.Obj [ ("fine", J.Bool true) ])
  in
  Fun.protect ~finally:(fun () -> P.shutdown p) @@ fun () ->
  P.submit p ~arg:(J.Obj [ ("op", J.String "crash") ]) 1;
  P.submit p ~arg:(J.Obj [ ("op", J.String "hang") ]) 2;
  P.submit p ~arg:(J.Obj [ ("op", J.String "echo") ]) 3;
  let settled = drive p in
  (match List.assoc_opt 1 settled with
  | Some (P.Crashed { reason; _ }) ->
      Alcotest.(check bool) "crash reported after retry" true
        (contains reason "exited with code 9")
  | _ -> Alcotest.fail "crasher did not crash");
  (match List.assoc_opt 2 settled with
  | Some (P.Crashed { reason; _ }) ->
      Alcotest.(check bool) "deadline enforced" true
        (contains reason "timed out after 0.3 s")
  | _ -> Alcotest.fail "hanger did not time out");
  (match List.assoc_opt 3 settled with
  | Some (P.Completed json) ->
      Alcotest.(check bool) "sibling fine" true
        (J.member "fine" json = Some (J.Bool true))
  | _ -> Alcotest.fail "sibling lost");
  (* the pool is back at full strength for more submissions *)
  P.submit p ~arg:(J.Obj [ ("op", J.String "echo") ]) 4;
  match drive p with
  | [ (4, P.Completed _) ] -> ()
  | _ -> Alcotest.fail "pool unusable after crashes"

(* The deadline race: a worker that answered in time but whose answer
   the parent had not yet read when the deadline passed completed — it
   must not be reported as a timeout.  The answer is left unread in the
   response pipe until after the deadline, in both orders [step] can
   meet it: read first (the deadline check then sees an idle worker),
   and deadline first (the worker is killed, and the answer is
   recovered from the pipe of the dead worker). *)
let test_pool_service_deadline_race () =
  let budget = 0.05 in
  let p =
    P.create_service ~workers:1 ~timeout:budget (fun arg ->
        J.Obj [ ("echo", arg) ])
  in
  Fun.protect ~finally:(fun () -> P.shutdown p) @@ fun () ->
  let answer_unread_past_deadline ticket =
    P.submit p ~arg:(J.Int ticket) ticket;
    Alcotest.(check int) "dispatch settles nothing" 0
      (List.length (P.step p ~readable:[]));
    (* Wait for the answer without consuming it, then for the deadline. *)
    (match Unix.select (P.resp_fds p) [] [] 10.0 with
    | [], _, _ -> Alcotest.fail "worker never answered"
    | _ -> ());
    ignore (Unix.select [] [] [] (2.0 *. budget))
  in
  let check_completed ticket settled =
    match settled with
    | [ (t, P.Completed json) ] when t = ticket ->
        Alcotest.(check bool)
          (Printf.sprintf "ticket %d payload" ticket)
          true
          (J.member "echo" json = Some (J.Int ticket))
    | [ (_, P.Crashed { reason; _ }) ] ->
        Alcotest.failf "answered job %d reported crashed: %s" ticket reason
    | _ -> Alcotest.failf "ticket %d: unexpected settlements" ticket
  in
  answer_unread_past_deadline 1;
  check_completed 1 (drive p);
  Alcotest.(check (list bool)) "read-first: worker spared" [ true ] (P.alive p);
  answer_unread_past_deadline 2;
  Alcotest.(check int) "deadline-first step settles nothing" 0
    (List.length (P.step p ~readable:[]));
  check_completed 2 (drive p);
  let rec killed tries =
    match P.alive p with
    | [ false ] -> true
    | _ when tries = 0 -> false
    | _ ->
        ignore (Unix.select [] [] [] 0.01);
        killed (tries - 1)
  in
  Alcotest.(check bool) "deadline-first: worker was killed" true (killed 500)

(* --- worker signal dispositions and orphan reaping --- *)

let poll_until_gone ?(budget = 5.0) pids =
  (* "Gone" means exited: the pid is unknown to the kernel, or its
     /proc stat shows it as a zombie awaiting an init that may or may
     not reap promptly.  Both prove the worker's process ran to exit. *)
  let dead pid =
    match Unix.kill pid 0 with
    | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
    | exception Unix.Unix_error _ -> false
    | () -> (
        match
          let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> input_line ic)
        with
        | line -> (
            (* state is the first field after the parenthesized comm *)
            match String.rindex_opt line ')' with
            | Some i when i + 2 < String.length line -> line.[i + 2] = 'Z'
            | _ -> false)
        | exception Sys_error _ -> true)
  in
  let deadline = Unix.gettimeofday () +. budget in
  let rec wait () =
    if List.for_all dead pids then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      ignore (Unix.select [] [] [] 0.05);
      wait ()
    end
  in
  wait ()

(* Workers must die to a SIGTERM delivered directly to them (the shape a
   supervisor's process-group signal takes) even when the pool's parent
   had installed a flag-setting handler before forking — the worker_loop
   resets the inherited disposition to the lethal default.  Before the
   reset, the inherited handler swallowed the signal and the worker sat
   in its read loop forever. *)
let test_pool_worker_dies_on_direct_sigterm () =
  let old = Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> ())) in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigterm old) @@ fun () ->
  let p = P.create ~workers:2 (fun i -> J.Int i) in
  Fun.protect ~finally:(fun () -> P.shutdown p) @@ fun () ->
  let pids = P.worker_pids p in
  Alcotest.(check int) "two workers" 2 (List.length pids);
  (* a pong proves the worker reached its frame loop — i.e. is past the
     point where it reset the inherited SIGTERM disposition *)
  Alcotest.(check (list bool)) "workers up" [ true; true ] (P.ping p);
  List.iter (fun pid -> Unix.kill pid Sys.sigterm) pids;
  Alcotest.(check bool) "workers died despite inherited handler" true
    (poll_until_gone pids);
  Alcotest.(check (list bool)) "pool sees both dead" [ false; false ]
    (P.alive p)

(* A pool parent killed outright (SIGKILL: no drain, no atexit) must not
   orphan live workers: the kernel closes the parent's request-pipe
   ends, each worker reads EOF at its next frame boundary and exits. *)
let test_pool_orphans_reaped_on_parent_kill () =
  let r, w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      (try
         let p = P.create ~workers:2 (fun i -> J.Int i) in
         Harness.Wire.write_frame w
           (J.List (List.map (fun pid -> J.Int pid) (P.worker_pids p)));
         (* hold the pool open until the parent kills us *)
         ignore (Unix.select [] [] [] 600.0)
       with _ -> Unix._exit 2);
      Unix._exit 0
  | mini ->
      Unix.close w;
      let pids =
        match Harness.Wire.read_frame r with
        | Some (Ok (J.List l)) ->
            List.map (function J.Int p -> p | _ -> Alcotest.fail "bad pid") l
        | _ -> Alcotest.fail "mini-parent never reported its workers"
      in
      Unix.close r;
      Alcotest.(check int) "two workers reported" 2 (List.length pids);
      Unix.kill mini Sys.sigkill;
      ignore (Harness.Wire.waitpid_retry mini);
      Alcotest.(check bool) "workers exit after parent SIGKILL" true
        (poll_until_gone pids)

(* --- registry sweeps through the pool --- *)

let descr ~id run =
  {
    E.id;
    claim = "claim " ^ id;
    expected = "expected " ^ id;
    tag = E.Table;
    game = "tuple";
    run;
  }

let with_clean_registry f =
  R.clear ();
  Fun.protect ~finally:R.clear f

let test_registry_pool_matches_sequential () =
  with_clean_registry (fun () ->
      for i = 1 to 5 do
        let id = Printf.sprintf "P%d" i in
        R.register
          (descr ~id (fun ctx ->
               E.outf ctx "result %d\n" (i * i);
               ignore (E.check ctx ~label:"square" (i * i = i * i));
               E.measure ctx "sq" (E.Int (i * i));
               E.measure ctx "q" (E.Rat (Exact.Q.make i (i + 1)))))
      done;
      let seq = R.run ~echo:ignore (R.all ()) in
      let strip results =
        J.to_string (R.strip_timings (R.report_json ~scale:E.Full results))
      in
      let matches what pooled =
        Alcotest.(check (list string))
          (what ^ ": registration order kept")
          (List.map (fun (r : E.result) -> r.E.id) seq)
          (List.map (fun (r : E.result) -> r.E.id) pooled);
        Alcotest.(check string)
          (what ^ ": stripped artifact byte-identical")
          (strip seq) (strip pooled);
        Alcotest.(check bool) (what ^ ": no crashes") true
          ((R.summarize pooled).R.crashed = 0)
      in
      List.iter
        (fun jobs ->
          matches
            (Printf.sprintf "%d workers" jobs)
            (R.run_parallel ~jobs ~echo:ignore (R.all ())))
        [ 2; 4 ];
      (* a timeout needs a worker to kill: jobs = 1 runs on a 1-worker pool *)
      matches "1 worker, timeout 60"
        (R.run_parallel ~jobs:1 ~timeout:60.0 ~echo:ignore (R.all ())))

(* A single-worker pool: the forced crash kills the only worker (twice,
   with the retry), and the experiments after it still run on the
   respawned worker. *)
let test_registry_pool_crash_isolation () =
  with_clean_registry (fun () ->
      List.iter
        (fun id ->
          R.register
            (descr ~id (fun ctx -> ignore (E.check ctx ~label:"fine" true))))
        [ "C1"; "C2"; "C3" ];
      let results =
        R.run_parallel ~jobs:1 ~force_crash:[ "C2" ] ~echo:ignore (R.all ())
      in
      let find id =
        match List.find_opt (fun (r : E.result) -> r.E.id = id) results with
        | Some r -> r
        | None -> Alcotest.failf "no result for %s" id
      in
      let c2 = find "C2" in
      Alcotest.(check bool) "forced experiment crashed (after its retry)" true
        (c2.E.verdict = E.Crashed);
      Alcotest.(check bool) "reason names the signal" true
        (List.exists (fun l -> contains l "SIGKILL") c2.E.failed_labels);
      List.iter
        (fun id ->
          Alcotest.(check bool) (id ^ " unaffected") true
            ((find id).E.verdict = E.Pass))
        [ "C1"; "C3" ];
      Alcotest.(check int) "summary counts the crash" 1
        (R.summarize results).R.crashed)

let () =
  Alcotest.run "pool"
    [
      ( "wire",
        [
          Alcotest.test_case "decoder split feed" `Quick
            test_wire_decoder_split_feed;
          Alcotest.test_case "decoder bad header" `Quick
            test_wire_decoder_bad_header;
          Alcotest.test_case "frame roundtrip" `Quick test_wire_frame_roundtrip;
          Alcotest.test_case "decoder fuzz" `Quick test_wire_decoder_fuzz;
        ] );
      ( "eintr",
        [
          Alcotest.test_case "pool under signal storm" `Quick
            test_pool_eintr_storm;
        ] );
      ( "pool",
        [
          Alcotest.test_case "run basics" `Quick test_pool_run_basics;
          Alcotest.test_case "workers persist" `Quick test_pool_workers_persist;
          Alcotest.test_case "respawn + retry success" `Quick
            test_pool_respawn_retry_success;
          Alcotest.test_case "persistent crash" `Quick
            test_pool_persistent_crash;
          Alcotest.test_case "timeout" `Quick test_pool_timeout;
          Alcotest.test_case "work stealing" `Quick test_pool_work_stealing;
          Alcotest.test_case "alive/ping/shutdown" `Quick
            test_pool_alive_ping_shutdown;
        ] );
      ( "service",
        [
          Alcotest.test_case "submit/step" `Quick test_pool_service_submit_step;
          Alcotest.test_case "crash and deadline" `Quick
            test_pool_service_crash_and_deadline;
          Alcotest.test_case "deadline race" `Quick
            test_pool_service_deadline_race;
        ] );
      ( "signals",
        [
          Alcotest.test_case "worker dies on direct SIGTERM" `Quick
            test_pool_worker_dies_on_direct_sigterm;
          Alcotest.test_case "orphans reaped on parent kill" `Quick
            test_pool_orphans_reaped_on_parent_kill;
        ] );
      ( "registry",
        [
          Alcotest.test_case "pool matches sequential" `Quick
            test_registry_pool_matches_sequential;
          Alcotest.test_case "pool crash isolation" `Quick
            test_registry_pool_crash_isolation;
        ] );
    ]
