(* Persistent pre-forked worker pool.  See pool.mli for the contract.

   Topology: one request pipe and one response pipe per worker, both
   speaking Wire's length-delimited JSON frames.  The parent is the only
   scheduler — per-worker queues dealt round-robin, one job in flight
   per worker, steals from the longest queue when a worker runs dry — so
   there is no shared-memory coordination to get wrong: workers know
   nothing of each other and just answer frames until EOF on the
   request pipe tells them to exit.

   Two front-ends share the scheduling core: the synchronous batch API
   (run_batch — deal, steal, block until every job settles) and the
   asynchronous service API (submit/step — a caller-owned select loop
   feeds jobs in and drains completions out; the Daemon is the caller).
   The per-mode differences (where a settled outcome goes, where a
   retried job is requeued) are factored into a [sched] record so the
   crash/timeout/desync rules live in exactly one place. *)

(* Recorded in the parent: these are orchestration metrics, never part
   of an experiment's own delta.  Dispatches (retries included) and
   respawns are pure functions of the jobs run and the crashes suffered;
   how many dispatches crossed queues (steals) depends on completion
   timing and must stay out of the stripped artifact normal form. *)
let c_dispatches = Obs.counter "pool.dispatches"
let c_respawns = Obs.counter "pool.respawns"
let c_steals = Obs.volatile "pool.steals"

type outcome =
  | Completed of Json.t
  | Crashed of { reason : string; wall : float }

type job = {
  pos : int;  (* position in the batch, for result ordering *)
  jid : int;  (* the id handed to [f] (batch) or the caller's ticket *)
  arg : Json.t option;  (* request payload, for service pools *)
  mutable attempts : int;
  mutable started : float;
  mutable deadline : float option;
  mutable timed_out : bool;
  mutable settled : bool;
}

type state = Idle | Busy of job | Dead

type worker = {
  index : int;
  mutable pid : int;
  mutable req : Unix.file_descr;  (* parent writes job/ping frames *)
  mutable resp : Unix.file_descr;  (* parent reads response frames *)
  mutable dec : Wire.decoder;
  mutable state : state;
  queue : job Queue.t;  (* dealt but not yet dispatched (batch mode) *)
}

(* What a worker process runs: indexed jobs compute from the job id
   alone (the batch API), service jobs carry their request as a JSON
   payload in the frame (the daemon API). *)
type handler = Indexed of (int -> Json.t) | Service of (Json.t -> Json.t)

type async = {
  backlog : job Queue.t;  (* submitted, not yet dispatched *)
  done_q : (int * outcome) Queue.t;  (* settled, not yet drained *)
  mutable unfinished : int;  (* submitted minus settled *)
}

type t = {
  f : handler;
  timeout : float option;
  ws : worker array;
  mutable shut : bool;
  async : async;
}

(* The per-mode halves of the scheduler: where a settled outcome goes,
   and where a crashed job's single retry is requeued ([requeue] takes
   the dead worker so batch mode can park the job on its queue for the
   respawned worker — or a thief — to pick up). *)
type sched = {
  settle : job -> outcome -> unit;
  requeue : worker -> job -> unit;
}

let worker_count t = Array.length t.ws

let worker_pids t =
  Array.fold_right
    (fun w acc -> if w.state = Dead then acc else w.pid :: acc)
    t.ws []

exception Desync of string

let reason_of_status = function
  | Unix.WEXITED 0 -> "worker exited before answering"
  | Unix.WEXITED c -> Printf.sprintf "worker exited with code %d" c
  | Unix.WSIGNALED s -> "worker killed by " ^ Wire.signal_name s
  | Unix.WSTOPPED s -> "worker stopped by " ^ Wire.signal_name s

(* --- worker side --- *)

(* The whole worker: answer frames until EOF.  A raised exception
   (inside the handler or writing to a dead parent — SIGPIPE is ignored
   so that surfaces as EPIPE) exits 3, which the parent reports as
   "worker exited with code 3".

   Signal dispositions: a parent embedding the pool in a daemon installs
   SIGTERM/SIGINT handlers that merely set a drain flag.  Workers forked
   after that point inherit those handlers, and an inherited flag-setter
   is worse than useless in a worker: a SIGTERM delivered to the whole
   process group (the shape `kill -TERM -- -PGID`, or a supervisor
   signalling the job) would interrupt the blocking read, set a flag
   nobody reads, and leave the worker alive — orphaned once the parent
   is gone.  So the first thing a worker does is restore the default
   (lethal) dispositions; its clean-exit path stays what it always was:
   EOF on the request pipe. *)
let worker_loop handler ~req ~resp =
  Wire.ignore_sigpipe ();
  List.iter
    (fun s ->
      try Sys.set_signal s Sys.Signal_default
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigterm; Sys.sigint ];
  let rec loop () =
    match Wire.read_frame req with
    | None -> Unix._exit 0 (* graceful drain *)
    | Some (Error _) -> Unix._exit 3
    | Some (Ok msg) -> (
        match (Json.member "job" msg, Json.member "ping" msg) with
        | Some (Json.Int jid), _ ->
            let payload =
              match (handler, Json.member "arg" msg) with
              | Indexed f, None -> f jid
              | Service f, Some arg -> f arg
              | Indexed _, Some _ | Service _, None -> Unix._exit 3
            in
            Wire.write_frame resp
              (Json.Obj [ ("job", Json.Int jid); ("payload", payload) ]);
            loop ()
        | None, Some token ->
            Wire.write_frame resp (Json.Obj [ ("pong", token) ]);
            loop ()
        | _ -> Unix._exit 3)
  in
  (try loop () with _ -> ());
  Unix._exit 3

(* --- parent side --- *)

(* Fork worker [index].  The child closes the parent-side ends of its
   own pipes and both ends the parent holds for every other live worker:
   a child keeping another worker's request pipe open would delay that
   worker's EOF (and hence graceful drain) until this child exits. *)
let spawn t index =
  flush stdout;
  flush stderr;
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close req_w;
      Unix.close resp_r;
      Array.iter
        (fun w ->
          if w.index <> index && w.state <> Dead then begin
            Wire.close_quietly w.req;
            Wire.close_quietly w.resp
          end)
        t.ws;
      worker_loop t.f ~req:req_r ~resp:resp_w
  | pid ->
      Unix.close req_r;
      Unix.close resp_w;
      let w = t.ws.(index) in
      w.pid <- pid;
      w.req <- req_w;
      w.resp <- resp_r;
      w.dec <- Wire.decoder ();
      w.state <- Idle

let respawn t index =
  Obs.incr c_respawns;
  spawn t index

(* Callers settle or requeue a Busy worker's job before marking. *)
let mark_dead w =
  if w.state <> Dead then begin
    Wire.close_quietly w.req;
    Wire.close_quietly w.resp;
    w.state <- Dead
  end

let make_pool ~workers ?timeout f =
  if workers < 1 then invalid_arg "Pool.create: workers must be positive";
  (match timeout with
  | Some s when s <= 0.0 -> invalid_arg "Pool.create: timeout must be positive"
  | _ -> ());
  let t =
    {
      f;
      timeout;
      shut = false;
      async =
        { backlog = Queue.create (); done_q = Queue.create (); unfinished = 0 };
      ws =
        Array.init workers (fun index ->
            {
              index;
              pid = -1;
              req = Unix.stdin (* placeholder: Dead state is never closed *);
              resp = Unix.stdin;
              dec = Wire.decoder ();
              state = Dead;
              queue = Queue.create ();
            });
    }
  in
  Array.iter (fun w -> spawn t w.index) t.ws;
  t

let create ~workers ?timeout f = make_pool ~workers ?timeout (Indexed f)

let create_service ~workers ?timeout f = make_pool ~workers ?timeout (Service f)

(* --- the shared scheduling core --- *)

let wall_of (j : job) = Float.max 0.0 (Timer.now () -. j.started)

let process_frames sched w =
  let continue = ref true in
  while !continue do
    match Wire.next_frame w.dec with
    | None -> continue := false
    | Some (Error e) -> raise (Desync ("worker response does not parse: " ^ e))
    | Some (Ok msg) -> (
        match (w.state, Json.member "job" msg, Json.member "payload" msg) with
        | Busy j, Some (Json.Int jid), Some payload when jid = j.jid ->
            sched.settle j (Completed payload);
            w.state <- Idle
        | _ -> raise (Desync "unexpected frame from worker"))
  done

(* A worker hit EOF (it died) or a dispatch write failed.  Deliver
   whatever it wrote first: a complete buffered response beats any
   crash or timeout verdict — a worker that answered and was then
   killed at its deadline (the kill raced the answer) completed.  Then
   decide the pending job: timeout crashes settle with no retry
   (re-running would double the blown budget), a first crash is
   requeued for one retry on a fresh worker, a second crash settles
   with the wait status's reason. *)
let reap_dead t sched chunk w =
  (try
     let eof = ref false in
     while not !eof do
       match Unix.read w.resp chunk 0 (Bytes.length chunk) with
       | 0 -> eof := true
       | k -> Wire.feed w.dec chunk k
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | exception Unix.Unix_error _ -> eof := true
     done;
     process_frames sched w
   with Desync _ -> ());
  let status = Wire.waitpid_retry w.pid in
  let pending = match w.state with Busy j -> Some j | Idle | Dead -> None in
  (match w.state with Busy _ -> w.state <- Idle | Idle | Dead -> ());
  mark_dead w;
  match pending with
  | None -> ()
  | Some j ->
      if j.timed_out then
        sched.settle j
          (Crashed
             {
               reason =
                 Printf.sprintf "timed out after %g s (worker killed)"
                   (Option.value t.timeout ~default:Float.nan);
               wall = wall_of j;
             })
      else if j.attempts <= 1 then sched.requeue w j
      else
        sched.settle j
          (Crashed { reason = reason_of_status status; wall = wall_of j })

(* A desynchronized response stream is unrecoverable: settle the job
   as unparseable (no retry — the worker "answered", wrongly) and
   replace the worker. *)
let kill_desynced sched w reason =
  (match w.state with
  | Busy j ->
      sched.settle j (Crashed { reason; wall = wall_of j });
      w.state <- Idle
  | Idle | Dead -> ());
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Wire.waitpid_retry w.pid);
  mark_dead w

let dispatch t sched chunk w (j : job) =
  j.attempts <- j.attempts + 1;
  j.started <- Timer.now ();
  j.deadline <- Option.map (fun s -> j.started +. s) t.timeout;
  j.timed_out <- false;
  w.state <- Busy j;
  Obs.incr c_dispatches;
  let frame =
    match j.arg with
    | None -> Json.Obj [ ("job", Json.Int j.jid) ]
    | Some arg -> Json.Obj [ ("job", Json.Int j.jid); ("arg", arg) ]
  in
  match Wire.with_sigpipe_ignored (fun () -> Wire.write_frame w.req frame) with
  | () -> ()
  | exception Unix.Unix_error _ -> reap_dead t sched chunk w

(* Deadlines are enforced after responses are read: any response that
   raced its deadline was already settled, so only genuinely late
   workers are shot.  The kill is the whole enforcement — the EOF it
   provokes flows through reap_dead, which still prefers a completed
   buffered response over the timeout verdict. *)
let enforce_deadlines t =
  let tnow = Timer.now () in
  Array.iter
    (fun w ->
      match w.state with
      | Busy j -> (
          match j.deadline with
          | Some d when (not j.timed_out) && tnow >= d ->
              j.timed_out <- true;
              (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
          | _ -> ())
      | Idle | Dead -> ())
    t.ws

(* --- synchronous batch front-end --- *)

let run_batch t ids =
  if t.shut then invalid_arg "Pool.run_batch: pool is shut down";
  (match t.f with
  | Indexed _ -> ()
  | Service _ ->
      invalid_arg "Pool.run_batch: service pools take jobs through submit");
  if t.async.unfinished > 0 then
    invalid_arg "Pool.run_batch: submitted service jobs are still in flight";
  Array.iter
    (fun w ->
      match w.state with
      | Busy _ -> invalid_arg "Pool.run_batch: a batch is already in flight"
      | Idle | Dead -> ())
    t.ws;
  let jobs =
    Array.of_list
      (List.mapi
         (fun pos jid ->
           {
             pos;
             jid;
             arg = None;
             attempts = 0;
             started = 0.0;
             deadline = None;
             timed_out = false;
             settled = false;
           })
         ids)
  in
  let count = Array.length jobs in
  let results = Array.make (max count 1) None in
  let remaining = ref count in
  let n = Array.length t.ws in
  Array.iter (fun w -> Queue.clear w.queue) t.ws;
  Array.iteri (fun pos j -> Queue.push j t.ws.(pos mod n).queue) jobs;
  let chunk = Bytes.create 65536 in
  let sched =
    {
      settle =
        (fun j outcome ->
          if not j.settled then begin
            j.settled <- true;
            results.(j.pos) <- Some outcome;
            decr remaining
          end);
      requeue = (fun w j -> Queue.push j w.queue);
    }
  in
  let take_next w =
    if not (Queue.is_empty w.queue) then Some (Queue.pop w.queue)
    else begin
      let victim = ref None in
      Array.iter
        (fun v ->
          let len = Queue.length v.queue in
          if len > 0 then
            match !victim with
            | Some u when Queue.length u.queue >= len -> ()
            | _ -> victim := Some v)
        t.ws;
      match !victim with
      | None -> None
      | Some v ->
          Obs.incr c_steals;
          Some (Queue.pop v.queue)
    end
  in
  while !remaining > 0 do
    (* Respawns happen only here (and after the loop): never while a
       stale select result is alive, so a recycled descriptor number can
       never alias a just-closed one. *)
    Array.iter (fun w -> if w.state = Dead then respawn t w.index) t.ws;
    Array.iter
      (fun w ->
        if w.state = Idle then
          match take_next w with
          | Some j -> dispatch t sched chunk w j
          | None -> ())
      t.ws;
    let fds =
      Array.fold_left
        (fun acc w -> if w.state = Dead then acc else w.resp :: acc)
        [] t.ws
    in
    if fds <> [] then begin
      let nearest =
        Array.fold_left
          (fun acc w ->
            match w.state with
            | Busy j -> (
                match j.deadline with
                | Some d when not j.timed_out -> Float.min acc d
                | _ -> acc)
            | Idle | Dead -> acc)
          Float.infinity t.ws
      in
      let select_timeout =
        if nearest = Float.infinity then -1.0
        else Float.max 0.0 (nearest -. Timer.now ())
      in
      let readable, _, _ =
        try Unix.select fds [] [] select_timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      Array.iter
        (fun w ->
          if w.state <> Dead && List.mem w.resp readable then
            match Unix.read w.resp chunk 0 (Bytes.length chunk) with
            | 0 -> reap_dead t sched chunk w
            | k -> (
                Wire.feed w.dec chunk k;
                try process_frames sched w
                with Desync reason -> kill_desynced sched w reason)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
        t.ws;
      enforce_deadlines t
    end
  done;
  (* Persistent-pool invariant: a batch ends at full strength, so the
     respawn count is exactly the death count however settlements were
     ordered. *)
  Array.iter (fun w -> if w.state = Dead then respawn t w.index) t.ws;
  List.map
    (fun (j : job) ->
      match results.(j.pos) with Some o -> (j.jid, o) | None -> assert false)
    (Array.to_list jobs)

(* --- asynchronous service front-end --- *)

let async_sched t =
  let a = t.async in
  {
    settle =
      (fun j outcome ->
        if not j.settled then begin
          j.settled <- true;
          a.unfinished <- a.unfinished - 1;
          Queue.push (j.jid, outcome) a.done_q
        end);
    (* No per-worker queues here: a retried job goes to the back of the
       shared backlog and the next idle worker takes it. *)
    requeue = (fun _w j -> Queue.push j a.backlog);
  }

let submit t ?arg ticket =
  if t.shut then invalid_arg "Pool.submit: pool is shut down";
  (match (t.f, arg) with
  | Indexed _, Some _ ->
      invalid_arg "Pool.submit: this pool's handler takes no payload"
  | Service _, None ->
      invalid_arg "Pool.submit: this pool's handler needs a payload"
  | Indexed _, None | Service _, Some _ -> ());
  Queue.push
    {
      pos = 0;
      jid = ticket;
      arg;
      attempts = 0;
      started = 0.0;
      deadline = None;
      timed_out = false;
      settled = false;
    }
    t.async.backlog;
  t.async.unfinished <- t.async.unfinished + 1

let pending t = t.async.unfinished

let resp_fds t =
  Array.fold_left
    (fun acc w -> if w.state = Dead then acc else w.resp :: acc)
    [] t.ws

let next_deadline t =
  Array.fold_left
    (fun acc w ->
      match w.state with
      | Busy j -> (
          match j.deadline with
          | Some d when not j.timed_out ->
              Some (match acc with None -> d | Some a -> Float.min a d)
          | _ -> acc)
      | Idle | Dead -> acc)
    None t.ws

let step t ~readable =
  if t.shut then invalid_arg "Pool.step: pool is shut down";
  let sched = async_sched t in
  let chunk = Bytes.create 65536 in
  let dispatch_backlog () =
    Array.iter
      (fun w ->
        if w.state = Idle && not (Queue.is_empty t.async.backlog) then
          dispatch t sched chunk w (Queue.pop t.async.backlog))
      t.ws
  in
  (* Same discipline as the batch loop: respawn and dispatch first,
     while no stale select result is alive for the new descriptors to
     alias... *)
  Array.iter (fun w -> if w.state = Dead then respawn t w.index) t.ws;
  dispatch_backlog ();
  (* ...then consume what the caller's select saw.  A freshly respawned
     worker's descriptor cannot be in [readable]: the caller collected
     the fds before this call. *)
  Array.iter
    (fun w ->
      if w.state <> Dead && List.mem w.resp readable then
        match Unix.read w.resp chunk 0 (Bytes.length chunk) with
        | 0 -> reap_dead t sched chunk w
        | k -> (
            Wire.feed w.dec chunk k;
            try process_frames sched w
            with Desync reason -> kill_desynced sched w reason)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    t.ws;
  enforce_deadlines t;
  (* Workers freed by the settlements above take more backlog now, so a
     submit-then-step cycle never leaves an idle worker facing queued
     work across the caller's select.  Deaths are respawned only after
     the readable list has been fully consumed (alias rule again). *)
  Array.iter (fun w -> if w.state = Dead then respawn t w.index) t.ws;
  dispatch_backlog ();
  let out = ref [] in
  while not (Queue.is_empty t.async.done_q) do
    out := Queue.pop t.async.done_q :: !out
  done;
  List.rev !out

(* --- health and teardown --- *)

let alive t =
  Array.to_list
    (Array.map
       (fun w ->
         match w.state with
         | Dead -> false
         | Idle | Busy _ -> (
             match Unix.waitpid [ Unix.WNOHANG ] w.pid with
             | 0, _ -> true
             | _ | (exception Unix.Unix_error (Unix.ECHILD, _, _)) ->
                 w.state <- Idle;
                 mark_dead w;
                 false))
       t.ws)

let ping ?(timeout_s = 5.0) t =
  let chunk = Bytes.create 4096 in
  let ping_idle w =
    let ok =
      match
        Wire.with_sigpipe_ignored (fun () ->
            Wire.write_frame w.req (Json.Obj [ ("ping", Json.Int w.index) ]))
      with
      | () ->
          let stop = Timer.now () +. timeout_s in
          let rec await () =
            match Wire.next_frame w.dec with
            | Some (Ok msg) -> Json.member "pong" msg <> None
            | Some (Error _) -> false
            | None -> (
                let left = stop -. Timer.now () in
                if left <= 0.0 then false
                else
                  match Unix.select [ w.resp ] [] [] left with
                  | [], _, _ -> false
                  | _ -> (
                      match Unix.read w.resp chunk 0 (Bytes.length chunk) with
                      | 0 -> false
                      | k ->
                          Wire.feed w.dec chunk k;
                          await ()
                      | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ())
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ())
          in
          await ()
      | exception Unix.Unix_error _ -> false
    in
    if not ok then begin
      (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Wire.waitpid_retry w.pid);
      mark_dead w
    end;
    ok
  in
  Array.to_list
    (Array.map
       (fun w ->
         match w.state with
         | Dead -> false
         | Busy _ -> (
             (* Mid-job (only possible if a batch raised or a service
                job is in flight): liveness only, the response stream is
                not ours to consume. *)
             match Unix.waitpid [ Unix.WNOHANG ] w.pid with
             | 0, _ -> true
             | _ | (exception Unix.Unix_error (Unix.ECHILD, _, _)) ->
                 w.state <- Idle;
                 mark_dead w;
                 false)
         | Idle -> ping_idle w)
       t.ws)

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    Array.iter
      (fun w ->
        if w.state <> Dead then begin
          (match w.state with
          | Busy _ ->
              (* only reachable with a job still in flight (a batch
                 raised, or a service job was abandoned): don't wait on
                 a half-finished job, just kill *)
              (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
          | Idle | Dead -> ());
          Wire.close_quietly w.req;
          (* EOF: the worker exits 0 at its next frame boundary *)
          ignore (Wire.waitpid_retry w.pid);
          Wire.close_quietly w.resp;
          w.state <- Dead
        end)
      t.ws
  end

let run ~jobs ?timeout count f =
  if jobs < 1 then invalid_arg "Pool.run: jobs must be positive";
  (match timeout with
  | Some s when s <= 0.0 -> invalid_arg "Pool.run: timeout must be positive"
  | _ -> ());
  if count < 0 then invalid_arg "Pool.run: negative job count";
  if count = 0 then [||]
  else begin
    let t = create ~workers:(min jobs count) ?timeout f in
    Fun.protect ~finally:(fun () -> shutdown t) @@ fun () ->
    let outcomes = run_batch t (List.init count Fun.id) in
    let results = Array.make count None in
    List.iter (fun (jid, o) -> results.(jid) <- Some o) outcomes;
    Array.map (function Some o -> o | None -> assert false) results
  end
