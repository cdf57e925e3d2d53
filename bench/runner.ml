(* Driver logic of bench/main.exe: registration, selection (legacy
   group selectors and --only id lists), execution at either scale —
   sequentially or across --jobs persistent pre-forked workers, with an
   optional per-experiment --timeout — optional observability recording
   (--metrics counters, --trace span durations: a metrics object per
   experiment in the artifact and a summed table after the summary),
   JSON artifact emission (with a parse round-trip so a malformed
   artifact can never be written), and the exit-code policy (nonzero on
   any degraded or crashed verdict). *)

module E = Harness.Experiment
module R = Harness.Registry

let ensure_registered () =
  if R.all () = [] then begin
    Exp_tables.register ();
    Exp_figures.register ();
    Micro.register ();
    (* last: the S and G families land after the tuple experiments,
       keeping tuple artifact prefixes stable *)
    Exp_subgraph.register ();
    Exp_biggraph.register ();
    (* last again: the D family (double-oracle) postdates S and G *)
    Exp_oracle.register ()
  end

(* Legacy group selectors, mapped by id prefix: T*/A* are the table
   experiments, F* the figures, B* the microbenchmarks. *)
let group_prefixes = function
  | "tables" -> Some [ "T"; "A" ]
  | "figures" -> Some [ "F" ]
  | "micro" -> Some [ "B" ]
  | "subgraph" -> Some [ "S" ]
  | "biggraph" -> Some [ "G" ]
  | "oracle" -> Some [ "D" ]
  | "all" | "smoke" -> Some []
  | _ -> None

let in_group prefixes (e : E.t) =
  prefixes = []
  || List.exists
       (fun p -> String.length e.id >= 1 && String.sub e.id 0 1 = p)
       prefixes

let list_text () =
  ensure_registered ();
  let table =
    Harness.Table.create ~title:"registered experiments"
      ~columns:[ "id"; "tag"; "claim" ]
  in
  List.iter
    (fun (e : E.t) ->
      Harness.Table.add_row table [ e.id; E.tag_to_string e.tag; e.claim ])
    (R.all ());
  Harness.Table.to_string table

type opts = {
  scale : E.scale;
  only : string list;  (** experiment ids; [[]] = no id filter *)
  group : string;
      (** legacy selector:
          tables|figures|micro|subgraph|biggraph|oracle|smoke|all *)
  json_out : string option;
  echo : bool;
  force_degrade : string list;
      (** ids whose verdict is forced to Degraded after the run — a
          testing hook for the nonzero-exit path *)
  jobs : int;
      (** worker processes; 1 = in-process sequential run (unless a
          timeout or forced crash needs a worker to kill) *)
  timeout : float option;  (** per-experiment wall-clock budget, seconds *)
  force_crash : string list;
      (** ids whose worker is killed mid-run — the fault-injection hook
          for the crash-isolation path (implies forked workers) *)
  metrics : bool;
      (** record Obs counters: a metrics object per experiment in the
          artifact, plus a summed table after the summary *)
  trace : bool;  (** additionally accumulate span wall time (implies metrics) *)
}

let default_opts =
  {
    scale = E.Full;
    only = [];
    group = "all";
    json_out = None;
    echo = true;
    force_degrade = [];
    jobs = 1;
    timeout = None;
    force_crash = [];
    metrics = false;
    trace = false;
  }

(* Serialize, then parse what we are about to publish: an artifact that
   does not round-trip is a bug worth failing loudly on. *)
let render_json ~scale results =
  let text = Harness.Json.to_string ~pretty:true (R.report_json ~scale results) in
  match Harness.Json.of_string text with
  | Ok _ -> Ok text
  | Error e -> Error (Printf.sprintf "internal: JSON artifact does not parse: %s" e)

(* Run the selected experiments; returns the process exit code. *)
let run opts =
  ensure_registered ();
  let selected =
    match
      ( (if opts.only = [] then Ok (R.all ()) else R.select ~only:opts.only),
        group_prefixes opts.group )
    with
    | Error e, _ ->
        Printf.eprintf "error: %s\n" e;
        None
    | _, None ->
        Printf.eprintf
          "error: unknown selector %S (use \
           tables|figures|micro|subgraph|biggraph|oracle|smoke|all)\n"
          opts.group;
        None
    | Ok es, Some prefixes -> Some (List.filter (in_group prefixes) es)
  in
  match selected with
  | None -> 2
  | Some [] ->
      Printf.eprintf "error: selection matched no experiments (try --list)\n";
      2
  | Some experiments -> (
      let unknown_forced =
        List.filter (fun id -> R.find id = None)
          (opts.force_degrade @ opts.force_crash)
      in
      if unknown_forced <> [] then begin
        Printf.eprintf
          "error: --force-degrade/--force-crash: unknown experiment id(s): %s\n"
          (String.concat ", " unknown_forced);
        2
      end
      else if opts.jobs < 1 then begin
        Printf.eprintf "error: --jobs must be at least 1\n";
        2
      end
      else if (match opts.timeout with Some t -> t <= 0.0 | None -> false)
      then begin
        Printf.eprintf "error: --timeout must be positive\n";
        2
      end
      else
        let module Obs = Harness.Obs in
        let ambient = Obs.level () in
        if opts.trace then Obs.set_level Obs.Trace
        else if opts.metrics then Obs.set_level Obs.Counters;
        Fun.protect ~finally:(fun () -> Obs.set_level ambient) @@ fun () ->
        (* In forked mode the parent performs no experiment work, so its
           own delta is exactly the orchestration-side story (pool
           dispatches, respawns) — worth a table row.  In the
           in-process sequential run the same delta would merely
           double-count every experiment, so it is not collected. *)
        let forked =
          opts.jobs > 1 || opts.timeout <> None || opts.force_crash <> []
        in
        let driver_snap =
          if forked && Obs.recording () then Some (Obs.snapshot ()) else None
        in
        let echo = if opts.echo then print_string else fun _ -> () in
        let results =
          R.run_parallel ~scale:opts.scale ~jobs:opts.jobs ?timeout:opts.timeout
            ~force_crash:opts.force_crash ~echo experiments
        in
        let driver =
          Option.map (fun snap -> E.metrics_of_obs (Obs.delta snap)) driver_snap
        in
        let results =
          if opts.force_degrade = [] then results
          else
            List.map
              (fun (r : E.result) ->
                if List.mem r.id opts.force_degrade then
                  E.degrade ~reason:"forced via --force-degrade (driver test hook)" r
                else r)
              results
        in
        match render_json ~scale:opts.scale results with
        | Error e ->
            Printf.eprintf "%s\n" e;
            3
        | Ok json_text ->
            (match opts.json_out with
            | None -> ()
            | Some path ->
                let oc = open_out path in
                output_string oc json_text;
                output_char oc '\n';
                close_out oc;
                if opts.echo then
                  Printf.printf "wrote %s (%d experiments)\n\n" path
                    (List.length results));
            if opts.echo then print_string (R.summary_table results);
            if opts.echo && (opts.metrics || opts.trace) then
              print_string (R.metrics_table ?driver results);
            let s = R.summarize results in
            if s.R.degraded > 0 || s.R.crashed > 0 then 1 else 0)
