(* Persistent pre-forked worker pool.  See pool.mli for the contract.

   Topology: one request pipe and one response pipe per worker, both
   speaking Wire's length-delimited JSON frames.  The parent is the only
   scheduler — one shared FIFO backlog, one job in flight per worker, the
   next idle worker takes the head of the backlog — so there is no
   shared-memory coordination to get wrong: workers know nothing of each
   other and just answer frames until EOF on the request pipe tells them
   to exit.

   There is one front-end, submit/step: a caller-owned select loop feeds
   jobs in and drains completions out.  The Daemon is one caller; [run]
   below is another, so the crash/timeout/desync rules live in exactly
   one place. *)

(* Recorded in the parent: these are orchestration metrics, never part
   of an experiment's own delta.  Dispatches (retries included) and
   respawns are pure functions of the jobs run and the crashes
   suffered. *)
let c_dispatches = Obs.counter "pool.dispatches"
let c_respawns = Obs.counter "pool.respawns"

type outcome =
  | Completed of Json.t
  | Crashed of { reason : string; wall : float }

type job = {
  ticket : int;  (* the caller's id, echoed back with the outcome *)
  arg : Json.t;  (* request payload, handed to [f] in the worker *)
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
  mutable req : Unix.file_descr;  (* parent writes job frames *)
  mutable resp : Unix.file_descr;  (* parent reads response frames *)
  mutable dec : Wire.decoder;
  mutable state : state;
}

type t = {
  f : Json.t -> Json.t;
  timeout : float option;
  ws : worker array;
  mutable shut : bool;
  backlog : job Queue.t;  (* submitted, not yet dispatched *)
  done_q : (int * outcome) Queue.t;  (* settled, not yet returned *)
  mutable unfinished : int;  (* submitted minus settled *)
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
let worker_loop f ~req ~resp =
  Wire.ignore_sigpipe ();
  List.iter
    (fun s ->
      try Sys.set_signal s Sys.Signal_default
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigterm; Sys.sigint ];
  let dec = Wire.decoder () in
  let rec loop () =
    match Wire.read_frame dec req with
    | None -> Unix._exit 0 (* graceful drain *)
    | Some (Error _) -> Unix._exit 3
    | Some (Ok msg) -> (
        match (Json.member "job" msg, Json.member "arg" msg) with
        | Some (Json.Int ticket), Some arg ->
            Wire.write_frame resp
              (Json.Obj [ ("job", Json.Int ticket); ("payload", f arg) ]);
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

let create ~workers ?timeout f =
  if workers < 1 then invalid_arg "Pool.create: workers must be positive";
  (match timeout with
  | Some s when s <= 0.0 -> invalid_arg "Pool.create: timeout must be positive"
  | _ -> ());
  let t =
    {
      f;
      timeout;
      shut = false;
      backlog = Queue.create ();
      done_q = Queue.create ();
      unfinished = 0;
      ws =
        Array.init workers (fun index ->
            {
              index;
              pid = -1;
              req = Unix.stdin (* placeholder: Dead state is never closed *);
              resp = Unix.stdin;
              dec = Wire.decoder ();
              state = Dead;
            });
    }
  in
  Array.iter (fun w -> spawn t w.index) t.ws;
  t

(* --- the scheduling core --- *)

let wall_of (j : job) = Float.max 0.0 (Timer.now () -. j.started)

let settle t j outcome =
  if not j.settled then begin
    j.settled <- true;
    t.unfinished <- t.unfinished - 1;
    Queue.push (j.ticket, outcome) t.done_q
  end

(* A retried job goes to the back of the shared backlog and the next
   idle worker takes it. *)
let requeue t j = Queue.push j t.backlog

let process_frames t w =
  let continue = ref true in
  while !continue do
    match Wire.next_frame w.dec with
    | None -> continue := false
    | Some (Error e) -> raise (Desync ("worker response does not parse: " ^ e))
    | Some (Ok msg) -> (
        match (w.state, Json.member "job" msg, Json.member "payload" msg) with
        | Busy j, Some (Json.Int ticket), Some payload when ticket = j.ticket ->
            settle t j (Completed payload);
            w.state <- Idle
        | _ -> raise (Desync "unexpected frame from worker"))
  done

(* A worker hit EOF (it died) or a dispatch write failed.  Deliver
   whatever it wrote first: a complete buffered response beats any
   crash or timeout verdict — a worker that answered and was then
   killed at its deadline (the kill raced the answer) completed.  Then
   decide the pending job: timeout crashes settle with no retry
   (re-running would double the blown budget), a first crash goes back
   on the backlog for one retry on the next idle worker, a second crash
   settles with the wait status's reason. *)
let reap_dead t w =
  while Wire.fill w.dec w.resp do
    ()
  done;
  (try process_frames t w with Desync _ -> ());
  let status = Wire.waitpid_retry w.pid in
  let pending = match w.state with Busy j -> Some j | Idle | Dead -> None in
  (match w.state with Busy _ -> w.state <- Idle | Idle | Dead -> ());
  mark_dead w;
  match pending with
  | None -> ()
  | Some j ->
      if j.timed_out then
        settle t j
          (Crashed
             {
               reason =
                 Printf.sprintf "timed out after %g s (worker killed)"
                   (Option.value t.timeout ~default:Float.nan);
               wall = wall_of j;
             })
      else if j.attempts <= 1 then requeue t j
      else
        settle t j
          (Crashed { reason = reason_of_status status; wall = wall_of j })

(* A desynchronized response stream is unrecoverable: settle the job
   as unparseable (no retry — the worker "answered", wrongly) and
   replace the worker. *)
let kill_desynced t w reason =
  (match w.state with
  | Busy j ->
      settle t j (Crashed { reason; wall = wall_of j });
      w.state <- Idle
  | Idle | Dead -> ());
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Wire.waitpid_retry w.pid);
  mark_dead w

let dispatch t w (j : job) =
  j.attempts <- j.attempts + 1;
  j.started <- Timer.now ();
  j.deadline <- Option.map (fun s -> j.started +. s) t.timeout;
  j.timed_out <- false;
  w.state <- Busy j;
  Obs.incr c_dispatches;
  let frame = Json.Obj [ ("job", Json.Int j.ticket); ("arg", j.arg) ] in
  match Wire.with_sigpipe_ignored (fun () -> Wire.write_frame w.req frame) with
  | () -> ()
  | exception Unix.Unix_error _ -> reap_dead t w

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

(* --- the submit/step front-end --- *)

let submit t ~arg ticket =
  if t.shut then invalid_arg "Pool.submit: pool is shut down";
  Queue.push
    {
      ticket;
      arg;
      attempts = 0;
      started = 0.0;
      deadline = None;
      timed_out = false;
      settled = false;
    }
    t.backlog;
  t.unfinished <- t.unfinished + 1

let pending t = t.unfinished

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
  let respawn_dead () =
    Array.iter (fun w -> if w.state = Dead then respawn t w.index) t.ws
  in
  let dispatch_backlog () =
    Array.iter
      (fun w ->
        if w.state = Idle && not (Queue.is_empty t.backlog) then
          dispatch t w (Queue.pop t.backlog))
      t.ws
  in
  (* Respawn and dispatch first, while no stale select result is alive
     for the new descriptors to alias... *)
  respawn_dead ();
  dispatch_backlog ();
  (* ...then consume what the caller's select saw.  A freshly respawned
     worker's descriptor cannot be in [readable]: the caller collected
     the fds before this call. *)
  Array.iter
    (fun w ->
      if w.state <> Dead && List.mem w.resp readable then
        if not (Wire.fill w.dec w.resp) then reap_dead t w
        else
          try process_frames t w
          with Desync reason -> kill_desynced t w reason)
    t.ws;
  enforce_deadlines t;
  (* Workers freed by the settlements above take more backlog now, so a
     submit-then-step cycle never leaves an idle worker facing queued
     work across the caller's select.  Deaths are respawned only after
     the readable list has been fully consumed (alias rule again), so
     every death seen here is replaced within this call and
     [pool.respawns] is exactly the death count. *)
  respawn_dead ();
  dispatch_backlog ();
  let out = ref [] in
  while not (Queue.is_empty t.done_q) do
    out := Queue.pop t.done_q :: !out
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

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    Array.iter
      (fun w ->
        if w.state <> Dead then begin
          (match w.state with
          | Busy _ ->
              (* only reachable with a job still in flight (a run
                 raised, or a submitted job was abandoned): don't wait
                 on a half-finished job, just kill *)
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

(* The one-call batch: a transient pool driven by the same select loop
   the daemon runs, with the job index as each job's payload. *)
let run ~jobs ?timeout count f =
  if jobs < 1 then invalid_arg "Pool.run: jobs must be positive";
  (match timeout with
  | Some s when s <= 0.0 -> invalid_arg "Pool.run: timeout must be positive"
  | _ -> ());
  if count < 0 then invalid_arg "Pool.run: negative job count";
  if count = 0 then [||]
  else begin
    let t =
      create ~workers:(min jobs count) ?timeout (function
        | Json.Int i -> f i
        | _ -> invalid_arg "Pool.run: job payload is not an index")
    in
    Fun.protect ~finally:(fun () -> shutdown t) @@ fun () ->
    for i = 0 to count - 1 do
      submit t ~arg:(Json.Int i) i
    done;
    let results = Array.make count None in
    let collect = List.iter (fun (i, o) -> results.(i) <- Some o) in
    collect (step t ~readable:[]);
    while pending t > 0 do
      (* No live worker means nothing to wait for: the next step
         respawns them. *)
      let readable =
        match resp_fds t with
        | [] -> []
        | fds -> (
            let timeout =
              match next_deadline t with
              | None -> -1.0
              | Some d -> Float.max 0.0 (d -. Timer.now ())
            in
            match Unix.select fds [] [] timeout with
            | readable, _, _ -> readable
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> [])
      in
      collect (step t ~readable)
    done;
    Array.map (function Some o -> o | None -> assert false) results
  end
