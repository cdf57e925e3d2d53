(* Artifact gate for the @bench-smoke alias: re-parse a defender-bench/v1
   JSON artifact through Harness.Json (the same parser external tools are
   told to trust) and fail on schema drift or verdict degradation, so a
   sweep that silently emits a malformed or failing artifact cannot pass
   `dune runtest`.

     check_artifact.exe FILE.json             # gate one artifact
     check_artifact.exe --strip FILE.json     # print it timing-stripped
     check_artifact.exe --same-stripped A B   # equal modulo timings?
     check_artifact.exe --compare OLD NEW     # timing regression gate

   The gate exits 0 when the artifact is well-formed, non-empty, and
   contains no degraded or crashed verdict and no failed check; exit 1
   with a diagnostic otherwise.  Every experiment entry is decoded by
   Experiment.result_of_json, the reader the worker pool uses for its
   results, so the gate and --compare read one schema; the gate then
   applies the semantic checks.  Per-experiment "metrics" objects (only
   present on --metrics/--trace sweeps) are shape-checked too, including
   that known scheduling-dependent counters (pipe bytes, and the steals
   of the pool's retired work-stealing scheduler) never appear in the
   deterministic "counters" section.  --strip
   prints the artifact with every nondeterministic field removed
   (Registry.strip_timings: wall clocks, Timer cells, float measures,
   span durations and volatile counters — deterministic counters stay),
   the normal form under which sequential and --jobs N sweeps of the
   same registry must agree; --same-stripped asserts exactly that for
   two artifact files.

   --compare is the cross-artifact timing gate, one fixed rule: for
   every float measure named *ns_per_run or *ns_per_edge that both
   artifacts carry it takes the ratio NEW/OLD, divides it by the
   median of all those ratios (cancelling drift in the host's overall
   speed; unlike a mean, one large speed-up or slow-down does not skew
   every other ratio), and exits 1 naming each measure whose normalized
   ratio exceeds [max_slowdown].  Artifacts of different scales time
   different instances and cannot be compared: exit 2.

   The field-by-field contract this program checks is documented in the
   "Artifact schema" section of EXPERIMENTS.md; keep the two in sync. *)

module J = Harness.Json
module E = Harness.Experiment

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("check_artifact: " ^ s); exit 1) fmt

(* Counters whose value depends on scheduling, buffering or completion
   order rather than on the computation alone.  Both were registered
   [Obs.volatile] while their code lived: pipe_bytes belonged to the
   retired fork-per-job runner (committed artifacts such as BENCH_4.json
   still carry it) and pool.steals to the pool's retired work-stealing
   scheduler.  An artifact carrying one in the deterministic "counters"
   section was built against a miscategorized registration and would
   flakily break the stripped normal form that --same-stripped gates. *)
let scheduling_dependent = [ "parallel.pipe_bytes"; "pool.steals" ]

let member_exn key json ~ctx =
  match J.member key json with
  | Some v -> v
  | None -> fail "%s: missing field %S" ctx key

let as_int ~ctx = function
  | J.Int n -> n
  | _ -> fail "%s: expected an integer" ctx

let as_string ~ctx = function
  | J.String s -> s
  | _ -> fail "%s: expected a string" ctx

let load file =
  if not (Sys.file_exists file) then fail "%s: no such file" file;
  let text =
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match J.of_string text with
  | Ok j -> j
  | Error e -> fail "%s does not parse: %s" file e

(* Every experiment entry, decoded by the reader the worker pool uses
   for its results: the artifact's schema of an experiment is that
   decoder's, checked in one place. *)
let experiments file json =
  match member_exn "experiments" json ~ctx:file with
  | J.List es ->
      List.mapi
        (fun i e ->
          match E.result_of_json e with
          | Ok r -> r
          | Error msg ->
              let id =
                match J.member "id" e with
                | Some (J.String id) -> id
                | _ -> Printf.sprintf "#%d" (i + 1)
              in
              fail "%s: experiment %s: %s" file id msg)
        es
  | _ -> fail "%s: \"experiments\" is not a list" file

let gate file =
  let json = load file in
  let schema = as_string ~ctx:"schema" (member_exn "schema" json ~ctx:file) in
  if schema <> "defender-bench/v1" then
    fail "%s: unexpected schema %S (want \"defender-bench/v1\")" file schema;
  ignore (as_string ~ctx:"scale" (member_exn "scale" json ~ctx:file));
  let experiments = experiments file json in
  if experiments = [] then fail "%s: empty experiment list" file;
  List.iter
    (fun (r : E.result) ->
      let ctx = Printf.sprintf "%s: experiment %s" file r.id in
      (match r.verdict with
      | E.Pass | E.Info -> ()
      | E.Degraded -> fail "%s: degraded verdict" ctx
      | E.Crashed ->
          let reason =
            match r.failed_labels with l :: _ -> ": " ^ l | [] -> ""
          in
          fail "%s: crashed verdict (worker died)%s" ctx reason);
      if r.checks_failed > 0 then
        fail "%s: %d failed check(s)" ctx r.checks_failed;
      (* The game tag: absent means the tuple game; when present it must
         name a known GAME instance. *)
      if not (List.mem r.game [ "tuple"; "subgraph" ]) then
        fail "%s: unknown game tag %S" ctx r.game;
      (* Optional metrics (--metrics/--trace sweeps): positive counters,
         none of them scheduling-dependent in the deterministic section,
         spans with a positive count. *)
      Option.iter
        (fun (m : E.metrics) ->
          List.iter
            (fun (name, n) ->
              if n <= 0 then
                fail "%s: metrics counter %s is not positive" ctx name)
            (m.m_counters @ m.m_volatile);
          List.iter
            (fun (name, _) ->
              if List.mem name scheduling_dependent then
                fail
                  "%s: scheduling-dependent counter %s in the deterministic \
                   \"counters\" section (must be registered Obs.volatile)"
                  ctx name)
            m.m_counters;
          List.iter
            (fun (name, (sp : E.span_metric)) ->
              if sp.calls <= 0 then
                fail "%s: metrics span %s lacks a positive count" ctx name)
            m.m_spans)
        r.metrics)
    experiments;
  let summary = member_exn "summary" json ~ctx:file in
  let s_ctx = file ^ ": summary" in
  let total = as_int ~ctx:s_ctx (member_exn "total" summary ~ctx:s_ctx) in
  let degraded = as_int ~ctx:s_ctx (member_exn "degraded" summary ~ctx:s_ctx) in
  (* pre-crash-verdict artifacts (BENCH_2/3.json) lack the field: 0 *)
  let crashed =
    match J.member "crashed" summary with
    | Some v -> as_int ~ctx:s_ctx v
    | None -> 0
  in
  let checks_failed =
    as_int ~ctx:s_ctx (member_exn "checks_failed" summary ~ctx:s_ctx)
  in
  if total <> List.length experiments then
    fail "%s: total %d <> %d listed experiments" s_ctx total
      (List.length experiments);
  if degraded <> 0 then fail "%s: %d degraded experiment(s)" s_ctx degraded;
  if crashed <> 0 then fail "%s: %d crashed experiment(s)" s_ctx crashed;
  if checks_failed <> 0 then fail "%s: %d failed check(s)" s_ctx checks_failed;
  Printf.printf
    "check_artifact: %s ok (%d experiments, schema defender-bench/v1, 0 \
     degraded, 0 crashed, 0 failed checks)\n"
    file total

let strip file =
  print_endline
    (J.to_string ~pretty:true (Harness.Registry.strip_timings (load file)))

(* On the committed artifacts, clean consecutive pairs peak at 1.29
   and a real regression (B11 between BENCH_4 and BENCH_5) reads 3.08. *)
let max_slowdown = 1.5

let timings file json =
  List.concat_map
    (fun (r : E.result) ->
      List.filter_map
        (fun (name, v) ->
          match v with
          | E.Float x
            when x > 0.0
                 && (String.ends_with ~suffix:"ns_per_run" name
                    || String.ends_with ~suffix:"ns_per_edge" name) ->
              Some ((r.id, name), x)
          | _ -> None)
        r.measures)
    (experiments file json)

let compare_timings old_file new_file =
  let old_json = load old_file and new_json = load new_file in
  let scale file json =
    as_string ~ctx:"scale" (member_exn "scale" json ~ctx:file)
  in
  let old_scale = scale old_file old_json
  and new_scale = scale new_file new_json in
  if old_scale <> new_scale then begin
    prerr_endline
      (Printf.sprintf
         "check_artifact: %s is %s scale but %s is %s scale: not comparable"
         old_file old_scale new_file new_scale);
    exit 2
  end;
  let fresh = timings new_file new_json in
  let ratios =
    List.filter_map
      (fun (key, old) ->
        Option.map (fun x -> (key, x /. old)) (List.assoc_opt key fresh))
      (timings old_file old_json)
  in
  if ratios = [] then
    fail "%s and %s share no ns_per_run/ns_per_edge measure" old_file new_file;
  let drift =
    let sorted = Array.of_list (List.map snd ratios) in
    Array.sort Float.compare sorted;
    let k = Array.length sorted in
    (sorted.((k - 1) / 2) +. sorted.(k / 2)) /. 2.0
  in
  let normalized = List.map (fun (key, r) -> (key, r /. drift)) ratios in
  let show ((id, name), r) = Printf.sprintf "%s %s %.2fx" id name r in
  match List.filter (fun (_, r) -> r > max_slowdown) normalized with
  | [] ->
      let worst =
        List.fold_left
          (fun a b -> if snd b > snd a then b else a)
          (List.hd normalized) normalized
      in
      Printf.printf
        "check_artifact: %s -> %s: %d timings, host drift %.2fx, slowest \
         %s (bound %.2fx)\n"
        old_file new_file (List.length normalized) drift (show worst)
        max_slowdown
  | slow ->
      fail "%s -> %s: slower than the host drift (%.2fx) by more than %.2fx: %s"
        old_file new_file drift max_slowdown
        (String.concat ", " (List.map show slow))

let same_stripped a b =
  let sa = Harness.Registry.strip_timings (load a) in
  let sb = Harness.Registry.strip_timings (load b) in
  if sa = sb then
    Printf.printf "check_artifact: %s and %s agree modulo timing fields\n" a b
  else begin
    (* Point at the first differing experiment id, if any, before the
       generic failure: "they differ" alone is unactionable. *)
    let ids j =
      match J.member "experiments" j with
      | Some (J.List es) ->
          List.map
            (fun e ->
              match J.member "id" e with Some (J.String s) -> s | _ -> "?")
            es
      | _ -> []
    in
    let culprit =
      List.find_opt
        (fun id ->
          let exp j =
            match J.member "experiments" j with
            | Some (J.List es) ->
                List.find_opt (fun e -> J.member "id" e = Some (J.String id)) es
            | _ -> None
          in
          exp sa <> exp sb)
        (ids sa @ ids sb)
    in
    match culprit with
    | Some id -> fail "%s and %s differ beyond timing fields (experiment %s)" a b id
    | None -> fail "%s and %s differ beyond timing fields" a b
  end

let () =
  match Sys.argv with
  | [| _; file |] -> gate file
  | [| _; "--strip"; file |] -> strip file
  | [| _; "--same-stripped"; a; b |] -> same_stripped a b
  | [| _; "--compare"; a; b |] -> compare_timings a b
  | _ ->
      prerr_endline
        "usage: check_artifact.exe FILE.json\n\
        \       check_artifact.exe --strip FILE.json\n\
        \       check_artifact.exe --same-stripped A.json B.json\n\
        \       check_artifact.exe --compare OLD.json NEW.json";
      exit 2
