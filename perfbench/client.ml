(* Daemon process control and the closed-loop client.

   The daemon is this same executable re-run in [serve] mode, so it
   starts from a fresh address space: nothing the benchmark computed
   while generating its workload (the canonical-form memo in particular)
   leaks into the server under test.  It starts its own session, so a
   kill of its process group also takes its pool workers.  It is started
   with [Unix.create_process] (posix_spawn), not fork: the cost of a fork
   grows with this process's heap, which holds the timed phase's samples
   when the later set-up launches run. *)

open Util

type daemon = { pid : int; socket : string }

let launch ~exe ~socket =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process exe [| exe; "serve"; socket |] Unix.stdin null Unix.stderr in
  Unix.close null;
  { pid; socket }

let kill_group d =
  (try Unix.kill (-d.pid) Sys.sigkill with Unix.Unix_error _ -> ());
  try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()

(* Wait up to [timeout] seconds for the daemon to exit, then kill it;
   either way reap it and anything left in its group. *)
let reap ?(timeout = 20.0) d =
  let deadline = now () +. timeout in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.002;
        wait ()
    | 0, _ ->
        kill_group d;
        ignore (Harness.Wire.waitpid_retry d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  kill_group d;
  try Unix.unlink d.socket with Unix.Unix_error _ -> ()

let connect ?(timeout = 10.0) socket =
  let deadline = now () +. timeout in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception
        Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
      when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

(* ---- framing ----------------------------------------------------- *)

(* The daemon's frame: decimal payload length, '\n', compact JSON.  The
   client frames and unframes by hand, without parsing the JSON, so its
   own cost between "response complete" and the timestamp is a scan for
   the length header. *)
let frame payload = string_of_int (String.length payload) ^ "\n" ^ payload

type reader = { mutable buf : Bytes.t; mutable len : int }

let reader () = { buf = Bytes.create 65536; len = 0 }

(* Read what is available; [Some payload] once a whole frame is in. *)
let read_frame fd r =
  if r.len = Bytes.length r.buf then begin
    let bigger = Bytes.create (2 * r.len) in
    Bytes.blit r.buf 0 bigger 0 r.len;
    r.buf <- bigger
  end;
  let got =
    try Unix.read fd r.buf r.len (Bytes.length r.buf - r.len)
    with Unix.Unix_error (Unix.EINTR, _, _) -> -1
  in
  if got = 0 then failwith "connection closed by daemon";
  if got > 0 then r.len <- r.len + got;
  match Bytes.index_opt r.buf '\n' with
  | Some nl when nl < r.len ->
      let size = int_of_string (Bytes.sub_string r.buf 0 nl) in
      let total = nl + 1 + size in
      if r.len < total then None
      else begin
        let payload = Bytes.sub_string r.buf (nl + 1) size in
        Bytes.blit r.buf total r.buf 0 (r.len - total);
        r.len <- r.len - total;
        Some payload
      end
  | _ -> None

(* ---- the closed loop --------------------------------------------- *)

type sample = {
  conn : int;
  idx : int;  (** position in the connection's sequence *)
  sent : float;
  recv : float;
  response : string;  (** the response frame's JSON payload *)
}

(* Drive each connection in a closed loop: its next request goes out
   the moment its previous response is complete.  [next conn idx] gives
   the framed request or [None] when the connection is finished.  With
   [marks] (ascending absolute times), [on_mark i] runs as soon as the
   loop sees mark [i] pass (the caller samples CPU there), no request is
   sent after the last mark, and what is still in flight is drained.
   While every request in flight is one for which [short conn idx]
   holds, the loop polls instead of blocking, but for at most
   [spin_budget] after the last send or receive: on a virtual machine,
   waking an idle CPU can take milliseconds, which would swamp answers
   that take tens of microseconds.  It sleeps while a long request is
   out, and once the budget is spent, so that the client gives the
   daemon back the CPU it holds.  Returns every sample in completion
   order; a transport failure raises. *)
let spin_budget = 0.001

let run ?(short = fun _ _ -> false) ?(marks = [||]) ?(on_mark = ignore) fds ~next =
  let n = Array.length fds in
  let readers = Array.init n (fun _ -> reader ()) in
  let idx = Array.make n 0 in
  let sent_at = Array.make n 0.0 in
  let busy = Array.make n false in
  let samples = ref [] in
  let last_event = ref (now ()) in
  let passed = ref 0 in
  let nmarks = Array.length marks in
  (* Fire every mark up to [t]; true once the last one has passed. *)
  let closed t =
    while !passed < nmarks && t >= marks.(!passed) do
      on_mark !passed;
      incr passed
    done;
    nmarks > 0 && !passed = nmarks
  in
  let send c =
    if not (closed (now ())) then
      match next c idx.(c) with
      | None -> ()
      | Some bytes ->
          busy.(c) <- true;
          sent_at.(c) <- now ();
          Harness.Wire.write_all fds.(c) bytes
  in
  for c = 0 to n - 1 do
    send c
  done;
  let active () = List.filter (fun c -> busy.(c)) (List.init n Fun.id) in
  let rec loop () =
    match active () with
    | [] -> ()
    | live ->
        let timeout =
          if
            List.for_all (fun c -> short c idx.(c)) live
            && now () -. !last_event < spin_budget
          then 0.0
          else if !passed < nmarks then Float.max 0.0 (marks.(!passed) -. now ())
          else -1.0
        in
        let readable, _, _ =
          try Unix.select (List.map (fun c -> fds.(c)) live) [] [] timeout
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        ignore (closed (now ()));
        List.iter
          (fun c ->
            if List.mem fds.(c) readable then
              match read_frame fds.(c) readers.(c) with
              | None -> ()
              | Some response ->
                  let recv = now () in
                  last_event := recv;
                  busy.(c) <- false;
                  let s = { conn = c; idx = idx.(c); sent = sent_at.(c); recv; response } in
                  idx.(c) <- idx.(c) + 1;
                  send c;
                  samples := s :: !samples)
          live;
        loop ()
  in
  loop ();
  ignore (closed infinity);
  List.rev !samples

(* One request, one response, on an idle connection. *)
let request fd payload =
  match run [| fd |] ~next:(fun _ i -> if i = 0 then Some (frame payload) else None) with
  | [ s ] -> s.response
  | _ -> failwith "no response"
