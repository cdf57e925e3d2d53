type tag = Table | Figure | Micro | Extension
type scale = Smoke | Full
type verdict = Pass | Info | Degraded | Crashed

type value =
  | Int of int
  | Rat of Exact.Q.t
  | Float of float
  | Str of string
  | Bool of bool

type timing = Timer.stats = {
  median : float;
  min : float;
  max : float;
  runs : int;
}

type ctx = {
  ctx_scale : scale;
  buf : Buffer.t;
  mutable checks_total : int;
  mutable checks_failed : int;
  mutable failed_rev : string list;
  mutable measures_rev : (string * value) list;
  mutable timings_rev : (string * timing) list;
}

let scale ctx = ctx.ctx_scale
let is_smoke ctx = ctx.ctx_scale = Smoke
let out ctx s = Buffer.add_string ctx.buf s
let outf ctx fmt = Printf.ksprintf (out ctx) fmt

let check ctx ~label ok =
  ctx.checks_total <- ctx.checks_total + 1;
  if not ok then begin
    ctx.checks_failed <- ctx.checks_failed + 1;
    ctx.failed_rev <- label :: ctx.failed_rev
  end;
  ok

let measure ctx name v =
  ctx.measures_rev <- (name, v) :: List.remove_assoc name ctx.measures_rev

let record_timing ctx name t =
  ctx.timings_rev <- (name, t) :: List.remove_assoc name ctx.timings_rev

let time ctx name ?repeat f =
  let result = ref None in
  let stats =
    Timer.time_stats ?repeat (fun () -> result := Some (f ()))
  in
  record_timing ctx name stats;
  match !result with Some r -> r | None -> assert false

type t = {
  id : string;
  claim : string;
  expected : string;
  tag : tag;
  game : string;
  run : ctx -> unit;
}

(* One span as reported in an artifact.  The call count is part of the
   determinism contract; the accumulated duration only exists at Trace
   level and is stripped with the rest of the timing data. *)
type span_metric = { calls : int; total_s : float option }

type metrics = {
  m_counters : (string * int) list;
  m_volatile : (string * int) list;
  m_spans : (string * span_metric) list;
}

type result = {
  id : string;
  claim : string;
  expected : string;
  tag : tag;
  game : string;
  verdict : verdict;
  checks_total : int;
  checks_failed : int;
  failed_labels : string list;
  measures : (string * value) list;
  timings : (string * timing) list;
  metrics : metrics option;
  text : string;
  wall : float;
}

(* Durations only exist at Trace level: at Counters the span cells hold
   secs = 0.0, and emitting those would put a meaningless "total_s": 0
   in every artifact. *)
let metrics_of_obs (d : Obs.metrics) =
  let timed = Obs.level () = Obs.Trace in
  {
    m_counters = d.Obs.counters;
    m_volatile = d.Obs.volatile;
    m_spans =
      List.map
        (fun (name, (s : Obs.span_total)) ->
          (name, { calls = s.calls; total_s = (if timed then Some s.secs else None) }))
        d.Obs.spans;
  }

let run ?(scale = Full) (t : t) =
  let ctx =
    {
      ctx_scale = scale;
      buf = Buffer.create 1024;
      checks_total = 0;
      checks_failed = 0;
      failed_rev = [];
      measures_rev = [];
      timings_rev = [];
    }
  in
  (* Counters are global and monotone, so a delta against a snapshot
     taken here attributes exactly this experiment's work — including
     under nesting (an experiment that calls [run] itself sees its
     child's work, which is part of its own computation). *)
  let obs_before = if Obs.recording () then Some (Obs.snapshot ()) else None in
  let start = Timer.now () in
  (try t.run ctx
   with exn ->
     let msg = Printf.sprintf "exception: %s" (Printexc.to_string exn) in
     ignore (check ctx ~label:msg false);
     outf ctx "EXPERIMENT %s RAISED: %s\n" t.id (Printexc.to_string exn));
  let wall = Timer.now () -. start in
  let metrics =
    Option.map (fun snap -> metrics_of_obs (Obs.delta snap)) obs_before
  in
  let verdict =
    if ctx.checks_failed > 0 then Degraded
    else if ctx.checks_total = 0 then Info
    else Pass
  in
  {
    id = t.id;
    claim = t.claim;
    expected = t.expected;
    tag = t.tag;
    game = t.game;
    verdict;
    checks_total = ctx.checks_total;
    checks_failed = ctx.checks_failed;
    failed_labels = List.rev ctx.failed_rev;
    measures = List.rev ctx.measures_rev;
    timings = List.rev ctx.timings_rev;
    metrics;
    text = Buffer.contents ctx.buf;
    wall;
  }

let degrade ~reason r =
  {
    r with
    verdict = Degraded;
    checks_total = r.checks_total + 1;
    checks_failed = r.checks_failed + 1;
    failed_labels = r.failed_labels @ [ reason ];
  }

(* A worker process died (signal, timeout, abnormal exit) before it
   could report: synthesize the result from the descriptor alone.  The
   single failed check carries the reason, so artifact consumers that
   only look at check counters still see the failure. *)
let crashed (t : t) ~reason ~wall =
  {
    id = t.id;
    claim = t.claim;
    expected = t.expected;
    tag = t.tag;
    game = t.game;
    verdict = Crashed;
    checks_total = 1;
    checks_failed = 1;
    failed_labels = [ reason ];
    measures = [];
    timings = [];
    metrics = None;
    text = Printf.sprintf "EXPERIMENT %s CRASHED: %s\n" t.id reason;
    wall;
  }

let tag_to_string = function
  | Table -> "table"
  | Figure -> "figure"
  | Micro -> "micro"
  | Extension -> "extension"

let verdict_to_string = function
  | Pass -> "pass"
  | Info -> "info"
  | Degraded -> "degraded"
  | Crashed -> "crashed"

let scale_to_string = function Smoke -> "smoke" | Full -> "full"

let value_to_json = function
  | Int i -> Json.Int i
  | Rat q -> Json.String (Exact.Q.to_string q)
  | Float f -> Json.Float f
  | Str s -> Json.String s
  | Bool b -> Json.Bool b

let timing_to_json (t : timing) =
  Json.Obj
    [
      ("median_s", Json.Float t.median);
      ("min_s", Json.Float t.min);
      ("max_s", Json.Float t.max);
      ("runs", Json.Int t.runs);
    ]

let metrics_to_json (m : metrics) =
  let ints kvs = Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) kvs) in
  let span (k, s) =
    ( k,
      Json.Obj
        (("count", Json.Int s.calls)
        ::
        (match s.total_s with
        | Some t -> [ ("total_s", Json.Float t) ]
        | None -> [])) )
  in
  Json.Obj
    [
      ("counters", ints m.m_counters);
      ("volatile", ints m.m_volatile);
      ("spans", Json.Obj (List.map span m.m_spans));
    ]

let result_to_json (r : result) =
  Json.Obj
    ([ ("id", Json.String r.id); ("tag", Json.String (tag_to_string r.tag)) ]
    @ (* The game tag is versioned into the artifact only for non-tuple
         games, keeping historical tuple artifacts byte-identical. *)
    (if r.game = "tuple" then [] else [ ("game", Json.String r.game) ])
    @ [
       ("claim", Json.String r.claim);
       ("expected", Json.String r.expected);
       ("verdict", Json.String (verdict_to_string r.verdict));
       ( "checks",
         Json.Obj
           [
             ("total", Json.Int r.checks_total);
             ("failed", Json.Int r.checks_failed);
             ( "failed_labels",
               Json.List (List.map (fun l -> Json.String l) r.failed_labels) );
           ] );
       ( "measures",
         Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) r.measures) );
       ( "timings",
         Json.Obj (List.map (fun (k, t) -> (k, timing_to_json t)) r.timings) );
     ]
    @ (match r.metrics with
      | None -> []
      | Some m -> [ ("metrics", metrics_to_json m) ])
    @ [ ("wall_s", Json.Float r.wall) ])

(* --- wire codec for worker processes ---

   A worker sends its result back over a pipe as the artifact JSON
   object plus the text rendering (which the artifact deliberately
   omits).  The decode is lossless for everything the artifact itself
   carries: [Rat] comes back as [Str] holding the same "n/d" string and
   non-finite floats come back as nan, both of which re-render to the
   identical JSON bytes, so a re-assembled artifact matches a
   sequentially produced one field for field (timing values aside).
   The same decoder reads an artifact's experiment entries, which lack
   only the text. *)

let result_to_wire r =
  match result_to_json r with
  | Json.Obj fields -> Json.Obj (fields @ [ ("text", Json.String r.text) ])
  | _ -> assert false

exception Wire of string

let wire_fail fmt = Printf.ksprintf (fun s -> raise (Wire s)) fmt

let result_of_json json =
  let field k =
    match Json.member k json with
    | Some v -> v
    | None -> wire_fail "missing field %S" k
  in
  let as_string ~what = function
    | Json.String s -> s
    | _ -> wire_fail "%s must be a string" what
  in
  let as_int ~what = function
    | Json.Int i -> i
    | _ -> wire_fail "%s must be an integer" what
  in
  let as_float ~what = function
    | Json.Float f -> f
    | Json.Int i -> float_of_int i
    | Json.Null -> Float.nan (* the emitter renders non-finite as null *)
    | _ -> wire_fail "%s must be a number" what
  in
  let tag_of_string = function
    | "table" -> Table
    | "figure" -> Figure
    | "micro" -> Micro
    | "extension" -> Extension
    | s -> wire_fail "unknown tag %S" s
  in
  let verdict_of_string = function
    | "pass" -> Pass
    | "info" -> Info
    | "degraded" -> Degraded
    | "crashed" -> Crashed
    | s -> wire_fail "unknown verdict %S" s
  in
  let value_of_json ~what = function
    | Json.Int i -> Int i
    | Json.Float f -> Float f
    | Json.String s -> Str s
    | Json.Bool b -> Bool b
    | Json.Null -> Float Float.nan
    | _ -> wire_fail "%s must be a scalar" what
  in
  let timing_of_json ~what j =
    let cell k = as_float ~what:(what ^ "." ^ k) (
      match Json.member k j with
      | Some v -> v
      | None -> wire_fail "%s: missing %S" what k)
    in
    {
      median = cell "median_s";
      min = cell "min_s";
      max = cell "max_s";
      runs =
        (match Json.member "runs" j with
        | Some v -> as_int ~what:(what ^ ".runs") v
        | None -> wire_fail "%s: missing \"runs\"" what);
    }
  in
  let counts_of_json ~what = function
    | Json.Obj fields ->
        List.map (fun (k, v) -> (k, as_int ~what:(what ^ "." ^ k) v)) fields
    | _ -> wire_fail "%s must be an object" what
  in
  let metrics_of_json ~what j =
    let section k =
      match Json.member k j with
      | Some v -> v
      | None -> wire_fail "%s: missing %S" what k
    in
    let span (k, sj) =
      let what = Printf.sprintf "%s.spans.%s" what k in
      let calls =
        match Json.member "count" sj with
        | Some v -> as_int ~what:(what ^ ".count") v
        | None -> wire_fail "%s: missing \"count\"" what
      in
      let total_s =
        Option.map (fun v -> as_float ~what:(what ^ ".total_s") v)
          (Json.member "total_s" sj)
      in
      (k, { calls; total_s })
    in
    {
      m_counters = counts_of_json ~what:(what ^ ".counters") (section "counters");
      m_volatile = counts_of_json ~what:(what ^ ".volatile") (section "volatile");
      m_spans =
        (match section "spans" with
        | Json.Obj fields -> List.map span fields
        | _ -> wire_fail "%s.spans must be an object" what);
    }
  in
  try
    let checks = field "checks" in
    let check_field k =
      match Json.member k checks with
      | Some v -> v
      | None -> wire_fail "checks: missing field %S" k
    in
    Ok
      {
        id = as_string ~what:"id" (field "id");
        claim = as_string ~what:"claim" (field "claim");
        expected = as_string ~what:"expected" (field "expected");
        tag = tag_of_string (as_string ~what:"tag" (field "tag"));
        game =
          (* absent in pre-tag and all tuple-game artifacts *)
          (match Json.member "game" json with
          | Some v -> as_string ~what:"game" v
          | None -> "tuple");
        verdict = verdict_of_string (as_string ~what:"verdict" (field "verdict"));
        checks_total = as_int ~what:"checks.total" (check_field "total");
        checks_failed = as_int ~what:"checks.failed" (check_field "failed");
        failed_labels =
          (match check_field "failed_labels" with
          | Json.List ls ->
              List.map (fun l -> as_string ~what:"failed label" l) ls
          | _ -> wire_fail "checks.failed_labels must be a list");
        measures =
          (match field "measures" with
          | Json.Obj fields ->
              List.map
                (fun (k, v) -> (k, value_of_json ~what:("measure " ^ k) v))
                fields
          | _ -> wire_fail "measures must be an object");
        timings =
          (match field "timings" with
          | Json.Obj fields ->
              List.map
                (fun (k, v) -> (k, timing_of_json ~what:("timing " ^ k) v))
                fields
          | _ -> wire_fail "timings must be an object");
        metrics =
          (* Absent when the producing run recorded nothing; artifacts
             without the field decode and re-render identically. *)
          Option.map (metrics_of_json ~what:"metrics") (Json.member "metrics" json);
        text =
          (* only the worker envelope carries it; an artifact does not *)
          (match Json.member "text" json with
          | Some v -> as_string ~what:"text" v
          | None -> "");
        wall = as_float ~what:"wall_s" (field "wall_s");
      }
  with Wire msg -> Error msg
