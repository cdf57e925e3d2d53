(* Daemon load benchmark.

     loadbench run --workload W --seed N --seconds S --trace 0|1
     loadbench replay --workload W --seed N     (used by a traced run)
     loadbench serve SOCKET                     (the daemon under test)

   A run launches the real defender daemon ([Service.Daemon_service.serve],
   two pool workers) several times to time its set-up (launch to first
   pong, plus priming), drives one of them from this process in a
   closed loop over the workload's connections, checks every answer
   against an in-process reference, and prints a report whose last line
   is one JSON object: [correct], [attempted], [failed] and [metrics] —
   the end-to-end metrics, or with [--trace 1] the per-layer ones.

   Without tracing the timed phase lasts [--seconds].  A traced run sends
   each connection's fixed [trace_counts] prefix instead, so that every
   count it reports is a pure function of the seed; a fresh [replay]
   process then feeds that same sequence through the layers in-process.
   perfbench/METRICS.md lists every metric and workload. *)

module J = Harness.Json
open Util

let workers = 2

(* Daemon launches per run whose set-up time is measured. *)
let setup_reps = 9
let run_dir = ".bench_build/perfbench"

(* ---- answers ------------------------------------------------------ *)

(* The raw bytes of the envelope's "result" value.  The daemon emits
   compact JSON with "metrics" last, so the value sits between the first
   ["result":] and the last [,"metrics":]. *)
let raw_result response =
  let n = String.length response in
  let at i sub =
    let k = String.length sub in
    let rec same j = j = k || (response.[i + j] = sub.[j] && same (j + 1)) in
    i + k <= n && same 0
  in
  let rec scan i step sub =
    if i < 0 || i >= n then None else if at i sub then Some i else scan (i + step) step sub
  in
  let key = "\"result\":" in
  match (scan 0 1 key, scan (n - 1) (-1) ",\"metrics\":") with
  | Some a, Some b when b > a + String.length key ->
      let a = a + String.length key in
      Some (String.sub response a (b - a))
  | _ -> None

(* Reference answers, computed in-process with [Daemon_service.handle]
   in [workers] forked children (the daemon is down by then, so the
   cores are free).  A reference is the compact result, or "error: ...". *)
let references (w : Spec.t) ids =
  let ids = Array.of_list ids in
  let answer id =
    let resp = Service.Daemon_service.handle (Grow.get w.Spec.refs id) in
    match (J.member "ok" resp, J.member "result" resp, J.member "error" resp) with
    | Some (J.Bool true), Some r, _ -> J.to_string r
    | _, _, Some e -> "error: " ^ J.to_string e
    | _ -> "error: malformed"
  in
  let children =
    List.init workers (fun k ->
        let rd, wr = Unix.pipe () in
        flush stdout;
        match Unix.fork () with
        | 0 ->
            Unix.close rd;
            let oc = Unix.out_channel_of_descr wr in
            Array.iteri
              (fun i id ->
                if i mod workers = k then Printf.fprintf oc "%d\t%s\n" id (answer id))
              ids;
            close_out oc;
            Unix._exit 0
        | pid ->
            Unix.close wr;
            (pid, Unix.in_channel_of_descr rd))
  in
  let table = Hashtbl.create (Array.length ids) in
  List.iter
    (fun (pid, ic) ->
      (try
         while true do
           let line = input_line ic in
           let tab = String.index line '\t' in
           Hashtbl.replace table
             (int_of_string (String.sub line 0 tab))
             (String.sub line (tab + 1) (String.length line - tab - 1))
         done
       with End_of_file -> ());
      close_in ic;
      match Harness.Wire.waitpid_retry pid with
      | Unix.WEXITED 0 -> ()
      | _ -> failwith "reference worker failed")
    children;
  table

(* One response against what the workload designed it to be. *)
let check (r : Spec.req) ~idx ~reference ~cold response =
  match J.of_string response with
  | Error e -> Error ("unparseable response: " ^ e)
  | Ok env -> (
      let cached = J.member "cached" env = Some (J.Bool true) in
      let raw = raw_result response in
      match (J.member "ok" env, J.member "id" env) with
      | Some (J.Bool true), Some (J.Int id) when id = idx -> (
          match r.Spec.cls with
          | Spec.Ping -> if raw = Some "\"pong\"" then Ok () else Error "ping not answered pong"
          | Spec.Stats -> (
              match Option.bind (J.member "result" env) (J.member "requests") with
              | Some (J.Int _) -> Ok ()
              | _ -> Error "stats without a request count")
          | Spec.Cold | Spec.Profit | Spec.Check ->
              if cached then Error "answered from the cache, designed as a miss"
              else if raw <> Some reference then Error "answer differs from the reference"
              else Ok ()
          | Spec.Hit_same | Spec.Hit_relabel ->
              if not cached then Error "not a cache hit, designed as one"
              else if raw <> Some reference then Error "answer differs from the reference"
              else if raw <> cold then Error "cached answer differs from the cold answer"
              else Ok ())
      | Some (J.Bool true), _ -> Error "response id does not match"
      | _ ->
          if J.member "busy" env = Some (J.Bool true) then Error "busy reject"
          else
            Error
              (match J.member "error" env with
              | Some (J.String e) -> "error: " ^ e
              | _ -> "ok:false"))

(* ---- one run ------------------------------------------------------ *)

type phase_count = { mutable sent : int; mutable good : int; mutable bad : int }

let stats_field name response =
  match J.of_string response with
  | Ok env -> (
      match Option.bind (J.member "result" env) (J.member name) with
      | Some (J.Int i) -> i
      | _ -> -1)
  | Error _ -> -1

let ms x = 1000.0 *. x

(* The traced replay, in a fresh process.  Returns its per-layer
   metrics with the two that set replayed layer time against this run's
   client latencies ([latency]: (phase, connection, index) -> ms), and
   the deterministic counts. *)
let replayed ~exe ~workload ~seed ~latency =
  let ic =
    Unix.open_process_args_in exe [| exe; "replay"; "--workload"; workload; "--seed"; string_of_int seed |]
  in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "replay process failed");
  let doc = match J.of_string (String.trim out) with Ok d -> d | Error e -> failwith e in
  let num = function J.Float x -> x | J.Int i -> float_of_int i | _ -> failwith "replay: not a number" in
  let layers =
    match J.member "layers" doc with
    | Some (J.Obj l) ->
        List.map
          (fun (n, v) ->
            match (J.member "value" v, J.member "unit" v) with
            | Some x, Some (J.String u) -> (n, num x, u)
            | _ -> failwith ("replay: malformed metric " ^ n))
          l
    | _ -> failwith "replay: no layers"
  in
  let counts = Option.value (J.member "counts" doc) ~default:J.Null in
  let overhead = Grow.create () in
  let layer_ms = ref 0.0 and client_ms = ref 0.0 in
  (match J.member "records" doc with
  | Some (J.List records) ->
      List.iter
        (function
          | J.List [ J.Int phase; J.Int conn; J.Int idx; ck; handle; codec; J.Bool worker ] -> (
              match Hashtbl.find_opt latency (phase, conn, idx) with
              | Some l ->
                  layer_ms := !layer_ms +. num ck +. num handle +. num codec;
                  client_ms := !client_ms +. l;
                  if worker then Grow.push overhead (l -. num ck -. num handle)
              | None -> ())
          | _ -> failwith "replay: malformed record")
        records
  | _ -> failwith "replay: no records");
  let ov = Grow.to_array overhead in
  ( [
      ("pool.overhead_ms_p50", percentile 0.5 ov, "ms");
      ("pool.overhead_ms_p99", percentile 0.99 ov, "ms");
      ("trace.unaccounted_share", (if !client_ms > 0.0 then 1.0 -. (!layer_ms /. !client_ms) else 0.0), "ratio");
    ]
    @ layers,
    counts )

let run ~workload ~seed ~seconds ~trace =
  let exe = Sys.executable_name in
  let w = Spec.make workload seed in
  let nconn = Array.length w.Spec.conns in
  let get = Spec.sequences w in
  let limit c = if trace then w.Spec.trace_counts.(c) else max_int in
  for c = 0 to nconn - 1 do
    ignore (get c ((if trace then w.Spec.trace_counts.(c) else w.Spec.prefill.(c)) - 1))
  done;
  let priming = w.Spec.priming in
  let priming_frames = Array.mapi (fun j r -> Client.frame (Spec.payload r j)) priming in
  let rec mkdirs d =
    if not (Sys.file_exists d) then begin
      mkdirs (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  mkdirs run_dir;
  let launched = ref [] in
  at_exit (fun () -> List.iter Client.kill_group !launched);
  (* Set-up: launch, connect, first pong, priming.  Repeated so the
     reported set-up time is a median. *)
  let launch rep =
    let socket = Printf.sprintf "%s/daemon-%d-%d.sock" run_dir (Unix.getpid ()) rep in
    let t0 = now () in
    let d = Client.launch ~exe ~socket in
    launched := d :: !launched;
    let fds = Array.init nconn (fun _ -> Client.connect socket) in
    let pong = Client.request fds.(0) Spec.ping_payload in
    let primed =
      Client.run fds ~next:(fun c i ->
          let j = c + (i * nconn) in
          if j < Array.length priming then Some priming_frames.(j) else None)
    in
    (d, fds, pong, primed, now () -. t0)
  in
  let shutdown (d, fds, _, _, _) =
    ignore (Client.request fds.(0) Spec.shutdown_payload);
    Array.iter Unix.close fds;
    Client.reap d;
    launched := List.filter (fun x -> x != d) !launched
  in
  (* Half of the launches run before the timed phase, the last of them
     staying up for it, and the rest after it, so that a slow spell of
     the shared machine at one end of the run moves only some of them. *)
  let before = (setup_reps + 1) / 2 in
  let launch_and_stop rep =
    let s = launch rep in
    shutdown s;
    s
  in
  let earlier = List.init (before - 1) launch_and_stop in
  let last = launch (before - 1) in
  let d, fds, _, primed_last, _ = last in
  (* The timed phase. *)
  let pool = Util.children_of d.Client.pid in
  let cpu () = (cpu_ms d.Client.pid, List.fold_left (fun acc p -> acc +. cpu_ms p) 0.0 pool) in
  (* Marks cut the timed window into slices; CPU and time are read at
     each.  Throughput and CPU per request are medians over the slices,
     so a short stall of the shared machine moves one slice, not the
     figure. *)
  let nslices = if trace then 1 else max 1 (int_of_float (Float.round (seconds /. 2.0))) in
  let cuts = Array.make (nslices + 1) (0.0, (0.0, 0.0)) in
  let cut i = cuts.(i) <- (now (), cpu ()) in
  cut 0;
  let t_start = fst cuts.(0) in
  let short c i = not (List.mem (fst (get c i)).Spec.cls w.Spec.slow) in
  let samples =
    if trace then begin
      let s =
        Client.run fds ~short ~next:(fun c i -> if i < limit c then Some (Client.frame (snd (get c i))) else None)
      in
      cut 1;
      s
    end
    else
      Client.run fds ~short
        ~marks:(Array.init nslices (fun i -> t_start +. (seconds *. float_of_int (i + 1) /. float_of_int nslices)))
        ~on_mark:(fun i -> cut (i + 1))
        ~next:(fun c i -> Some (Client.frame (snd (get c i))))
  in
  let final_stats = Client.request fds.(0) Spec.stats_payload in
  shutdown last;
  let later = List.init (setup_reps - before) (fun i -> launch_and_stop (before + i)) in
  let setups = earlier @ (last :: later) in
  let t_end = fst cuts.(nslices) in
  let window = t_end -. t_start in
  (* Correctness: every priming and timed answer against its reference. *)
  let req_of (s : Client.sample) = fst (get s.Client.conn s.Client.idx) in
  let ref_ids =
    List.sort_uniq compare
      (Array.to_list (Array.map (fun (r : Spec.req) -> r.Spec.ref_id) priming)
      @ List.filter_map
          (fun s -> let r = req_of s in if r.Spec.ref_id >= 0 then Some r.Spec.ref_id else None)
          samples)
  in
  let refs = references w ref_ids in
  let reference (r : Spec.req) = Option.value (Hashtbl.find_opt refs r.Spec.ref_id) ~default:"" in
  (* The cold answers: what the timed daemon itself sent while priming. *)
  let cold = Hashtbl.create 256 in
  List.iter
    (fun (s : Client.sample) ->
      let j = s.Client.conn + (s.Client.idx * nconn) in
      Hashtbl.replace cold priming.(j).Spec.ref_id (raw_result s.Client.response))
    primed_last;
  let failures = Hashtbl.create 8 in
  let note why = Hashtbl.replace failures why (1 + Option.value (Hashtbl.find_opt failures why) ~default:0) in
  let judge r ~idx response =
    let cold = Option.join (Hashtbl.find_opt cold r.Spec.ref_id) in
    match check r ~idx ~reference:(reference r) ~cold response with
    | Ok () -> true
    | Error why ->
        note why;
        false
  in
  let tally () = Hashtbl.create 8 in
  let count tbl r good =
    let k = Spec.cls_name r.Spec.cls in
    let c =
      match Hashtbl.find_opt tbl k with
      | Some c -> c
      | None ->
          let c = { sent = 0; good = 0; bad = 0 } in
          Hashtbl.replace tbl k c;
          c
    in
    c.sent <- c.sent + 1;
    if good then c.good <- c.good + 1 else c.bad <- c.bad + 1
  in
  let priming_tally = tally () and timed_tally = tally () in
  List.iter
    (fun (_, _, pong, primed, _) ->
      count priming_tally Spec.ping (judge Spec.ping ~idx:(-1) pong);
      List.iter
        (fun (s : Client.sample) ->
          let j = s.Client.conn + (s.Client.idx * nconn) in
          count priming_tally priming.(j) (judge priming.(j) ~idx:j s.Client.response))
        primed)
    setups;
  let good =
    Array.of_list
      (List.map
         (fun (s : Client.sample) ->
           let r = req_of s in
           let g = judge r ~idx:s.Client.idx s.Client.response in
           count timed_tally r g;
           g)
         samples)
  in
  (* Designed ratios: the daemon's own counters must agree with what
     the workload was built to do. *)
  let timed_hits =
    List.length
      (List.filter
         (fun s -> match (req_of s).Spec.cls with Spec.Hit_same | Spec.Hit_relabel -> true | _ -> false)
         samples)
  in
  let daemon_hits = stats_field "cache_hits" final_stats in
  if daemon_hits <> timed_hits then note "daemon cache hits differ from the designed hits";
  let daemon_requests = stats_field "requests" final_stats in
  let expected_requests = 2 + Array.length priming + List.length samples in
  if daemon_requests <> expected_requests then note "daemon request count differs from requests sent";
  (* End-to-end metrics over the timed phase. *)
  let samples_a = Array.of_list samples in
  let lat = Array.map (fun (s : Client.sample) -> ms (s.Client.recv -. s.Client.sent)) samples_a in
  let fast =
    Array.of_list
      (List.filter_map
         (fun (s : Client.sample) ->
           if Spec.is_fast (req_of s).Spec.cls then Some (ms (s.Client.recv -. s.Client.sent)) else None)
         samples)
  in
  let slice_of t =
    let rec go i = if i > nslices then None else if t <= fst cuts.(i) then Some (i - 1) else go (i + 1) in
    if t < t_start then None else go 1
  in
  let ok_in = Array.make nslices 0 and done_in = Array.make nslices 0 in
  Array.iteri
    (fun i (s : Client.sample) ->
      match slice_of s.Client.recv with
      | Some k ->
          done_in.(k) <- done_in.(k) + 1;
          if good.(i) then ok_in.(k) <- ok_in.(k) + 1
      | None -> ())
    samples_a;
  let done_in_window = Array.fold_left ( + ) 0 done_in in
  let attempted_timed = Array.length samples_a in
  let failed_timed = Array.fold_left (fun n g -> if g then n else n + 1) 0 good in
  let span i = fst cuts.(i + 1) -. fst cuts.(i) in
  let cpu_in i =
    let (p1, w1), (p0, w0) = (snd cuts.(i + 1), snd cuts.(i)) in
    (p1 -. p0) +. (w1 -. w0)
  in
  let per_slice f = median (Array.init nslices f) in
  let (p_end, w_end), (p_start, w_start) = (snd cuts.(nslices), snd cuts.(0)) in
  let parent_cpu = p_end -. p_start and pool_cpu = w_end -. w_start in
  let setup_times = Array.of_list (List.map (fun (_, _, _, _, t) -> t) setups) in
  let e2e =
    [
      ("setup_s", median setup_times, "s");
      ("throughput_rps", per_slice (fun i -> float_of_int ok_in.(i) /. span i), "1/s");
      ("latency_p50_ms", percentile 0.5 lat, "ms");
      ("latency_p99_ms", percentile 0.99 lat, "ms");
      ("server_cpu_ms_per_req", per_slice (fun i -> cpu_in i /. float_of_int (max 1 done_in.(i))), "ms");
    ]
  in
  (* Reported, not in the result line: see METRICS.md. *)
  let ungated =
    [
      ("fast_p50_ms", percentile 0.5 fast, "ms");
      ("fast_p99_ms", percentile 0.99 fast, "ms");
      ("error_rate", ratio failed_timed attempted_timed, "ratio");
    ]
  in
  (* Report. *)
  Printf.printf "# workload %s  seed %d  %s  daemon workers %d  connections %d\n" workload seed
    (if trace then Printf.sprintf "traced: fixed counts %s"
         (String.concat "+" (Array.to_list (Array.map string_of_int w.Spec.trace_counts)))
     else Printf.sprintf "timed %.0f s" seconds)
    workers nconn;
  Printf.printf "# setup_s per launch: %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") setup_times)));
  let show_tally phase tbl =
    List.iter
      (fun c ->
        match Hashtbl.find_opt tbl (Spec.cls_name c) with
        | Some t ->
            Printf.printf "# %-7s %-12s sent %7d  ok %7d  failed %d\n" phase (Spec.cls_name c) t.sent
              t.good t.bad
        | None -> ())
      Spec.all_classes
  in
  show_tally "priming" priming_tally;
  show_tally "timed" timed_tally;
  Hashtbl.iter (fun why n -> Printf.printf "# FAILED %d x %s\n" n why) failures;
  Printf.printf "# latency samples %d, fast samples %d, window %.3f s, completed in window %d\n"
    (Array.length lat) (Array.length fast) window done_in_window;
  let pcts xs = String.concat " " (List.map (fun p -> Printf.sprintf "p%g %.3f" (100.0 *. p) (percentile p xs)) [ 0.5; 0.9; 0.95; 0.99; 0.999 ]) in
  Printf.printf "# latency ms: %s\n# fast ms:    %s\n" (pcts lat) (pcts fast);
  (* Per op class, so a change to one path reads without the mix's
     weights. *)
  List.iter
    (fun c ->
      let xs =
        Array.of_list
          (List.filter_map
             (fun (s : Client.sample) ->
               if (req_of s).Spec.cls = c then Some (ms (s.Client.recv -. s.Client.sent)) else None)
             samples)
      in
      if Array.length xs > 0 then
        Printf.printf "# latency ms %-12s n %7d  %s\n" (Spec.cls_name c) (Array.length xs) (pcts xs))
    Spec.all_classes;
  Printf.printf "# per slice: ok/s %s  cpu ms/req %s\n"
    (String.concat " " (List.init nslices (fun i -> Printf.sprintf "%.1f" (float_of_int ok_in.(i) /. span i))))
    (String.concat " " (List.init nslices (fun i -> Printf.sprintf "%.3f" (cpu_in i /. float_of_int (max 1 done_in.(i))))));
  let by_latency = Array.copy samples_a in
  Array.sort (fun (a : Client.sample) (b : Client.sample) -> compare (b.Client.recv -. b.Client.sent) (a.Client.recv -. a.Client.sent)) by_latency;
  Printf.printf "# slowest: %s\n"
    (String.concat ", "
       (List.map
          (fun (s : Client.sample) ->
            Printf.sprintf "%s %.2f ms" (Spec.cls_name (req_of s).Spec.cls) (ms (s.Client.recv -. s.Client.sent)))
          (List.filteri (fun i _ -> i < 8) (Array.to_list by_latency))));
  Printf.printf "# server cpu: parent %.0f ms, workers %.0f ms (pids %s)\n" parent_cpu pool_cpu
    (String.concat "," (List.map string_of_int pool));
  Printf.printf "# daemon counters: requests %d, cache_hits %d, busy_rejects %d\n" daemon_requests
    daemon_hits (stats_field "busy_rejects" final_stats);
  List.iter (fun (n, v, u) -> Printf.printf "# %-24s %12.4f %s\n" n v u) (e2e @ ungated);
  let metrics =
    if not trace then e2e
    else begin
      let latency = Hashtbl.create 4096 in
      let lat_ms (s : Client.sample) = ms (s.Client.recv -. s.Client.sent) in
      List.iter
        (fun (s : Client.sample) -> Hashtbl.replace latency (0, 0, s.Client.conn + (s.Client.idx * nconn)) (lat_ms s))
        primed_last;
      List.iter
        (fun (s : Client.sample) -> Hashtbl.replace latency (1, s.Client.conn, s.Client.idx) (lat_ms s))
        samples;
      let layers, counts = replayed ~exe ~workload ~seed ~latency in
      (match J.member "cache_hits" counts with
      | Some (J.Int h) when h = daemon_hits -> ()
      | _ -> note "replayed cache hits differ from the daemon's");
      if J.member "relabels" counts <> J.member "relabel_memo_misses" counts then
        note "a relabeled resend hit the byte memo";
      Printf.printf "# counts %s\n" (J.to_string counts);
      [
        ("daemon.cache_hit_ratio", ratio daemon_hits daemon_requests, "ratio");
        ("daemon.busy_rejects", float_of_int (stats_field "busy_rejects" final_stats), "count");
        ("daemon.parent_cpu_share",
          (if parent_cpu +. pool_cpu > 0.0 then parent_cpu /. (parent_cpu +. pool_cpu) else 0.0), "ratio");
      ]
      @ layers
    end
  in
  let attempted =
    attempted_timed
    + List.fold_left (fun n (_, _, _, primed, _) -> n + 1 + List.length primed) 0 setups
  in
  let failed = Hashtbl.fold (fun _ n acc -> acc + n) failures 0 in
  let correct = failed = 0 in
  let result =
    J.Obj
      [
        ("correct", J.Bool correct);
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ( "metrics",
          J.Obj (List.map (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ])) metrics) );
      ]
  in
  print_endline (J.to_string result);
  if not correct then exit 1

(* ---- command line ------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | x :: _ -> failwith ("unexpected argument " ^ x)
  in
  let usage () =
    prerr_endline
      "usage: loadbench run --workload W --seed N --seconds S --trace 0|1\n\
      \       loadbench replay --workload W --seed N\n\
      \       loadbench serve SOCKET";
    exit 2
  in
  try
    match args with
    | [ "serve"; socket ] ->
        ignore (Unix.setsid ());
        ignore
          (Service.Daemon_service.serve ~address:(Harness.Daemon.Unix_socket socket) ~workers ())
    | "replay" :: rest ->
        let o = opts [] rest in
        Replay.main ~workload:(List.assoc "workload" o) ~seed:(int_of_string (List.assoc "seed" o))
    | "run" :: rest ->
        let o = opts [] rest in
        let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
        let workload = get "workload" in
        if not (List.mem workload Spec.names) then usage ();
        run ~workload ~seed:(int_of_string (get "seed"))
          ~seconds:(float_of_string (get "seconds"))
          ~trace:(get "trace" = "1")
    | _ -> usage ()
  with
  | Failure msg | Invalid_argument msg | Sys_error msg ->
      prerr_endline ("loadbench: " ^ msg);
      exit 2
  | Not_found -> usage ()
