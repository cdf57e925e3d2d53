let experiments : Experiment.t list ref = ref [] (* reversed *)

let register (e : Experiment.t) =
  if List.exists (fun (r : Experiment.t) -> r.id = e.id) !experiments then
    invalid_arg (Printf.sprintf "Registry.register: duplicate experiment id %S" e.id);
  experiments := e :: !experiments

let clear () = experiments := []
let all () = List.rev !experiments
let ids () = List.map (fun (e : Experiment.t) -> e.id) (all ())

let find id =
  List.find_opt (fun (e : Experiment.t) -> e.id = id) !experiments

let select ~only =
  let unknown = List.filter (fun id -> find id = None) only in
  if unknown <> [] then
    Error
      (Printf.sprintf "unknown experiment id(s): %s (try --list)"
         (String.concat ", " unknown))
  else
    Ok
      (List.filter
         (fun (e : Experiment.t) -> List.mem e.id only)
         (all ()))

type summary = {
  total : int;
  pass : int;
  info : int;
  degraded : int;
  crashed : int;
  checks_total : int;
  checks_failed : int;
  wall : float;
}

let summarize (results : Experiment.result list) =
  List.fold_left
    (fun acc (r : Experiment.result) ->
      {
        total = acc.total + 1;
        pass = acc.pass + (if r.verdict = Experiment.Pass then 1 else 0);
        info = acc.info + (if r.verdict = Experiment.Info then 1 else 0);
        degraded =
          acc.degraded + (if r.verdict = Experiment.Degraded then 1 else 0);
        crashed =
          acc.crashed + (if r.verdict = Experiment.Crashed then 1 else 0);
        checks_total = acc.checks_total + r.checks_total;
        checks_failed = acc.checks_failed + r.checks_failed;
        wall = acc.wall +. r.wall;
      })
    {
      total = 0;
      pass = 0;
      info = 0;
      degraded = 0;
      crashed = 0;
      checks_total = 0;
      checks_failed = 0;
      wall = 0.0;
    }
    results

let summary_table (results : Experiment.result list) =
  let table =
    Table.create ~title:"experiment summary"
      ~columns:[ "id"; "tag"; "verdict"; "checks"; "wall" ]
  in
  List.iter
    (fun (r : Experiment.result) ->
      Table.add_row table
        [
          r.id;
          Experiment.tag_to_string r.tag;
          Experiment.verdict_to_string r.verdict;
          (if r.checks_total = 0 then "-"
           else
             Printf.sprintf "%d/%d" (r.checks_total - r.checks_failed)
               r.checks_total);
          Printf.sprintf "%.3fs" r.wall;
        ])
    results;
  let s = summarize results in
  (* The crashed count only appears when nonzero, so a healthy sweep's
     totals line stays byte-identical to the historical rendering. *)
  let crashed_cell =
    if s.crashed = 0 then "" else Printf.sprintf ", %d crashed" s.crashed
  in
  Table.to_string table
  ^ Printf.sprintf
      "total: %d experiments (%d pass, %d info, %d degraded%s); checks %d/%d; \
       %.2fs\n"
      s.total s.pass s.info s.degraded crashed_cell
      (s.checks_total - s.checks_failed)
      s.checks_total s.wall

let metrics_table ?driver (results : Experiment.result list) =
  let det : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let vol : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let spans : (string, int * float option) Hashtbl.t = Hashtbl.create 16 in
  let add tbl (k, n) =
    Hashtbl.replace tbl k (n + Option.value (Hashtbl.find_opt tbl k) ~default:0)
  in
  let add_span (k, (s : Experiment.span_metric)) =
    let c0, t0 = Option.value (Hashtbl.find_opt spans k) ~default:(0, None) in
    let t =
      match (t0, s.total_s) with
      | None, t | t, None -> t
      | Some a, Some b -> Some (a +. b)
    in
    Hashtbl.replace spans k (c0 + s.calls, t)
  in
  let absorb (m : Experiment.metrics) =
    List.iter (add det) m.m_counters;
    List.iter (add vol) m.m_volatile;
    List.iter add_span m.m_spans
  in
  List.iter (fun (r : Experiment.result) -> Option.iter absorb r.metrics) results;
  Option.iter absorb driver;
  let rows tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  let buf = Buffer.create 256 in
  let counter_rows =
    rows det @ List.map (fun (k, n) -> (k ^ " (volatile)", n)) (rows vol)
  in
  if counter_rows <> [] then begin
    let t =
      Table.create ~title:"observability counters (summed over sweep)"
        ~columns:[ "counter"; "total" ]
    in
    List.iter (fun (k, n) -> Table.add_row t [ k; string_of_int n ]) counter_rows;
    Buffer.add_string buf (Table.to_string t)
  end;
  let span_rows = rows spans in
  if span_rows <> [] then begin
    let t =
      Table.create ~title:"observability spans (summed over sweep)"
        ~columns:[ "span"; "calls"; "total_s" ]
    in
    List.iter
      (fun (k, (c, secs)) ->
        Table.add_row t
          [
            k;
            string_of_int c;
            (match secs with Some s -> Printf.sprintf "%.6f" s | None -> "-");
          ])
      span_rows;
    Buffer.add_string buf (Table.to_string t)
  end;
  Buffer.contents buf

let run ?(scale = Experiment.Full) ?(echo = fun _ -> ()) experiments =
  List.map
    (fun e ->
      let r = Experiment.run ~scale e in
      echo r.Experiment.text;
      r)
    experiments

let run_parallel ?(scale = Experiment.Full) ?(jobs = 1) ?timeout
    ?(force_crash = []) ?(echo = fun _ -> ()) experiments =
  if jobs < 1 then invalid_arg "Registry.run_parallel: jobs must be positive";
  if jobs = 1 && timeout = None && force_crash = [] then
    (* Nothing to isolate and nothing to fan out: the sequential runner
       itself — same code path, same streaming echo, byte-identical
       output.  A timeout or a forced crash needs a worker to kill, so
       those run on a 1-worker pool. *)
    run ~scale ~echo experiments
  else begin
    let arr = Array.of_list experiments in
    let worker i =
      let e = arr.(i) in
      if List.mem e.Experiment.id force_crash then
        (* Fault injection: die the way an OOM-killed worker does, on
           the retry too, so the isolation path under test is the real
           one. *)
        Unix.kill (Unix.getpid ()) Sys.sigkill;
      Experiment.result_to_wire (Experiment.run ~scale e)
    in
    let outcomes = Pool.run ~jobs ?timeout (Array.length arr) worker in
    let results =
      Array.to_list
        (Array.mapi
           (fun i outcome ->
             let e = arr.(i) in
             match outcome with
             | Pool.Completed json -> (
                 match Experiment.result_of_json json with
                 | Ok r -> r
                 | Error msg ->
                     Experiment.crashed e
                       ~reason:("malformed worker result: " ^ msg) ~wall:0.0)
             | Pool.Crashed { reason; wall } ->
                 Experiment.crashed e ~reason ~wall)
           outcomes)
    in
    (* Workers complete in machine order; echo in registration order
       once the sweep is done, matching the sequential rendering. *)
    List.iter (fun (r : Experiment.result) -> echo r.Experiment.text) results;
    results
  end

let report_json ~scale results =
  let s = summarize results in
  Json.Obj
    [
      ("schema", Json.String "defender-bench/v1");
      ( "source",
        Json.String
          "The Power of the Defender (ICDCS 2006) reproduction harness" );
      ("scale", Json.String (Experiment.scale_to_string scale));
      ("experiments", Json.List (List.map Experiment.result_to_json results));
      ( "summary",
        Json.Obj
          [
            ("total", Json.Int s.total);
            ("pass", Json.Int s.pass);
            ("info", Json.Int s.info);
            ("degraded", Json.Int s.degraded);
            ("crashed", Json.Int s.crashed);
            ("checks_total", Json.Int s.checks_total);
            ("checks_failed", Json.Int s.checks_failed);
            ("wall_s", Json.Float s.wall);
          ] );
    ]

(* Timing data is the only nondeterminism a healthy artifact contains:
   wall clocks, Timer cells, and float-valued measures (OLS estimates,
   speedups, fitted slopes — every float measure in the registry derives
   from the clock; exact results are Int/Bool/rational-string).  Drop
   all of it and two sweeps of the same registry at the same scale must
   be byte-identical, however the work was scheduled.

   Metrics objects are deliberately only half stripped: span "total_s"
   durations and the "volatile" section go (clock- respectively
   payload-dependent), while deterministic counters and span call
   counts STAY — so the B14 sequential-vs-parallel byte-equality gate
   also proves the counters' determinism contract across --jobs. *)
let rec strip_timings json =
  match json with
  | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             match (k, v) with
             | ("wall_s" | "timings" | "total_s" | "volatile"), _ -> None
             | "measures", Json.Obj ms ->
                 Some
                   ( k,
                     Json.Obj
                       (List.filter
                          (fun (_, v) ->
                            match v with
                            | Json.Float _ | Json.Null -> false
                            | _ -> true)
                          ms) )
             | _ -> Some (k, strip_timings v))
           fields)
  | Json.List items -> Json.List (List.map strip_timings items)
  | other -> other
