(* Benchmark harness entry point: a generic driver over the experiment
   registry (tables T1-T12 + ablations A1-A2, figures F1-F6, Bechamel
   microbenchmarks B0-B15 and B17-B19, subgraph S1-S2, biggraph G1-G2,
   double-oracle D1-D3).

     dune exec bench/main.exe                       # everything, full scale
     dune exec bench/main.exe -- tables             # legacy group selectors
     dune exec bench/main.exe -- figures            #   (tables|figures|micro
     dune exec bench/main.exe -- micro              #    |subgraph|biggraph
     dune exec bench/main.exe -- oracle             #    |oracle|smoke|all)
     dune exec bench/main.exe -- smoke              # reduced-size sweep of the
                                                    # whole registry (runs
                                                    # under `dune runtest`)
     dune exec bench/main.exe -- --list             # registered experiments
     dune exec bench/main.exe -- --only T4,F2       # just those experiments
     dune exec bench/main.exe -- --json BENCH_2.json  # write the JSON artifact
     dune exec bench/main.exe -- --jobs 4           # 4 pre-forked workers
     dune exec bench/main.exe -- --timeout 60       # per-experiment budget
     dune exec bench/main.exe -- --metrics          # record Obs counters
     dune exec bench/main.exe -- --trace            # + span wall time

   --jobs N runs the selected experiments on a persistent pool of N
   pre-forked workers (Harness.Pool): results reassemble in
   registration order, a crashed worker is respawned and its experiment
   retried once, and a worker that dies again or exceeds --timeout
   crashes only its own experiment.  The default --jobs 1 is the
   in-process sequential runner, byte-identical to the historical
   output (a --timeout or --force-crash runs it on one pool worker).

   Exits 0 when every selected experiment passes, 1 if any verdict is
   degraded or crashed (--force-degrade / --force-crash ID[,ID..] force
   those paths for testing), 2 on usage errors. *)

module Runner = Experiments.Runner

let usage () =
  prerr_endline
    "usage: main.exe [tables|figures|micro|subgraph|biggraph|oracle|smoke|all]\n\
    \       [--smoke] [--list]\n\
    \       [--only ID[,ID..]] [--json FILE] [--jobs N]\n\
    \       [--timeout SECS]\n\
    \       [--metrics] [--trace]\n\
    \       [--force-degrade ID[,ID..]] [--force-crash ID[,ID..]] [--quiet]"

let split_ids s = String.split_on_char ',' s |> List.filter (fun x -> x <> "")

let () =
  let opts = ref Runner.default_opts in
  let list_only = ref false in
  let rec parse = function
    | [] -> ()
    | "--list" :: rest ->
        list_only := true;
        parse rest
    | "--smoke" :: rest ->
        opts := { !opts with Runner.scale = Harness.Experiment.Smoke };
        parse rest
    | "--quiet" :: rest ->
        opts := { !opts with Runner.echo = false };
        parse rest
    | "--metrics" :: rest ->
        opts := { !opts with Runner.metrics = true };
        parse rest
    | "--trace" :: rest ->
        opts := { !opts with Runner.trace = true };
        parse rest
    | "--only" :: ids :: rest ->
        opts := { !opts with Runner.only = split_ids ids };
        parse rest
    | "--json" :: path :: rest ->
        opts := { !opts with Runner.json_out = Some path };
        parse rest
    | "--force-degrade" :: ids :: rest ->
        opts := { !opts with Runner.force_degrade = split_ids ids };
        parse rest
    | "--force-crash" :: ids :: rest ->
        opts := { !opts with Runner.force_crash = split_ids ids };
        parse rest
    | "--jobs" :: count :: rest -> (
        match int_of_string_opt count with
        | Some n when n >= 1 ->
            opts := { !opts with Runner.jobs = n };
            parse rest
        | _ ->
            Printf.eprintf "--jobs: expected a positive integer, got %S\n" count;
            usage ();
            exit 2)
    | "--timeout" :: secs :: rest -> (
        match float_of_string_opt secs with
        | Some t when t > 0.0 ->
            opts := { !opts with Runner.timeout = Some t };
            parse rest
        | _ ->
            Printf.eprintf "--timeout: expected positive seconds, got %S\n" secs;
            usage ();
            exit 2)
    | [ ("--only" | "--json" | "--force-degrade" | "--force-crash" | "--jobs"
        | "--timeout") ]
    | "--help" :: _
    | "-h" :: _ ->
        usage ();
        exit 2
    | sel :: rest when Runner.group_prefixes sel <> None ->
        let scale =
          if sel = "smoke" then Harness.Experiment.Smoke else !opts.Runner.scale
        in
        opts := { !opts with Runner.group = sel; scale };
        parse rest
    | other :: _ ->
        Printf.eprintf "unknown argument %S\n" other;
        usage ();
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !list_only then print_string (Runner.list_text ())
  else begin
    if !opts.Runner.echo then
      Printf.printf
        "Reproduction harness: \"The Power of the Defender\" (ICDCS 2006)\n\
         ================================================================\n\n";
    let code = Runner.run !opts in
    if !opts.Runner.echo && code = 0 then print_endline "done.";
    exit code
  end
