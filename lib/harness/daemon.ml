(* Batch-query daemon: a socket front-end over a worker Pool with a
   canonical-instance response cache.  See daemon.mli for the protocol. *)

(* Mirrored into Obs so a traced serve run surfaces them alongside the
   pool's own counters; the daemon also keeps plain ints (below) so the
   counters it reports in every response envelope are live regardless of
   the Obs level. *)
let c_requests = Obs.counter "daemon.requests"
let c_cache_hits = Obs.counter "daemon.cache_hits"
let c_busy_rejects = Obs.counter "daemon.busy_rejects"

type address = Unix_socket of string | Tcp of string * int

type stats = { requests : int; cache_hits : int; busy_rejects : int }

let resolve_inet host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
      | _ | (exception Not_found) ->
          failwith (Printf.sprintf "cannot resolve host %S" host))

let sockaddr_of = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp (host, port) -> Unix.ADDR_INET (resolve_inet host, port)

let listen_socket address =
  let sa = sockaddr_of address in
  let domain = Unix.domain_of_sockaddr sa in
  (match address with
  | Unix_socket path -> (
      (* A previous daemon's stale socket file would make bind fail;
         removing it is safe because a live daemon would be rebound
         anyway the moment two share a path. *)
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.set_close_on_exec fd with Unix.Unix_error _ -> ());
  (match address with
  | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Unix_socket _ -> ());
  (try
     Unix.bind fd sa;
     Unix.listen fd 64
   with e ->
     Wire.close_quietly fd;
     raise e);
  fd

type client = {
  fd : Unix.file_descr;
  dec : Wire.decoder;
  mutable connected : bool;
}

type pending_req = { client : client; req_id : Json.t; key : string option }

let serve ~address ~workers ?timeout ?(max_inflight = 64)
    ?(cache_entries = 1024) ?(max_frame = 8 * 1024 * 1024) ?on_ready
    ~cache_key handler =
  if max_inflight < 1 then invalid_arg "Daemon.serve: max_inflight < 1";
  if max_frame < 1 then invalid_arg "Daemon.serve: max_frame < 1";
  Wire.ignore_sigpipe ();
  let listen_fd = listen_socket address in
  (* The pool forks before the drain handlers are installed, and the
     workers reset SIGTERM/SIGINT to lethal defaults anyway: a signal to
     the whole process group kills the workers outright while the parent
     merely flips [draining] and finishes what it owes. *)
  let pool = Pool.create ~workers ?timeout handler in
  let draining = ref false in
  let drain_handler = Sys.Signal_handle (fun _ -> draining := true) in
  let install s =
    try Some (Sys.signal s drain_handler)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let prev_term = install Sys.sigterm in
  let prev_int = install Sys.sigint in
  let restore s = function
    | None -> ()
    | Some prev -> (
        try Sys.set_signal s prev with Invalid_argument _ | Sys_error _ -> ())
  in
  let cache : Json.t Lru.t = Lru.create cache_entries in
  let clients : (Unix.file_descr, client) Hashtbl.t = Hashtbl.create 16 in
  let pending : (int, pending_req) Hashtbl.t = Hashtbl.create 64 in
  let next_ticket = ref 0 in
  let requests = ref 0 in
  let cache_hits = ref 0 in
  let busy_rejects = ref 0 in
  let metrics () =
    Json.Obj
      [
        ("daemon.requests", Json.Int !requests);
        ("daemon.cache_hits", Json.Int !cache_hits);
        ("daemon.busy_rejects", Json.Int !busy_rejects);
      ]
  in
  let drop_client c =
    if c.connected then begin
      c.connected <- false;
      Hashtbl.remove clients c.fd;
      Wire.close_quietly c.fd
    end
  in
  (* SIGPIPE is ignored for the daemon's whole life (above), so a client
     that stopped reading surfaces here as EPIPE and is dropped. *)
  let send c envelope =
    if c.connected then
      match Wire.write_frame c.fd envelope with
      | () -> ()
      | exception Unix.Unix_error _ -> drop_client c
  in
  let respond c ~req_id ~cached body =
    send c
      (Json.Obj
         (("id", req_id) :: ("ok", Json.Bool true) :: ("cached", Json.Bool cached)
         :: body
         @ [ ("metrics", metrics ()) ]))
  in
  let respond_error ?(extra = []) c ~req_id msg =
    send c
      (Json.Obj
         (("id", req_id) :: ("ok", Json.Bool false)
         :: (extra @ [ ("error", Json.String msg); ("metrics", metrics ()) ])))
  in
  let handle_request c msg =
    incr requests;
    Obs.incr c_requests;
    let req_id = Option.value (Json.member "id" msg) ~default:Json.Null in
    match Json.member "op" msg with
    | Some (Json.String "ping") ->
        respond c ~req_id ~cached:false [ ("result", Json.String "pong") ]
    | Some (Json.String "stats") ->
        respond c ~req_id ~cached:false
          [
            ( "result",
              Json.Obj
                [
                  ("requests", Json.Int !requests);
                  ("cache_hits", Json.Int !cache_hits);
                  ("busy_rejects", Json.Int !busy_rejects);
                  ("cache_entries", Json.Int (Lru.length cache));
                  ("inflight", Json.Int (Hashtbl.length pending));
                  ("workers", Json.Int (Pool.worker_count pool));
                ] );
          ]
    | Some (Json.String "shutdown") ->
        draining := true;
        respond c ~req_id ~cached:false [ ("result", Json.String "draining") ]
    | Some (Json.String _) -> (
        if !draining then respond_error c ~req_id "daemon is draining"
        else
          let key = try cache_key msg with Invalid_argument _ -> None in
          match Option.bind key (Lru.find cache) with
          | Some result ->
              incr cache_hits;
              Obs.incr c_cache_hits;
              respond c ~req_id ~cached:true [ ("result", result) ]
          | None ->
              if Hashtbl.length pending >= max_inflight then begin
                incr busy_rejects;
                Obs.incr c_busy_rejects;
                respond_error c ~req_id
                  ~extra:[ ("busy", Json.Bool true) ]
                  "server is at capacity, retry later"
              end
              else begin
                let ticket = !next_ticket in
                incr next_ticket;
                Hashtbl.replace pending ticket { client = c; req_id; key };
                Pool.submit pool ~arg:msg ticket
              end)
    | Some _ | None ->
        respond_error c ~req_id "request has no \"op\" string"
  in
  let settle (ticket, outcome) =
    match Hashtbl.find_opt pending ticket with
    | None -> ()
    | Some p -> (
        Hashtbl.remove pending ticket;
        match outcome with
        | Pool.Crashed { reason; wall = _ } ->
            respond_error p.client ~req_id:p.req_id ("worker crashed: " ^ reason)
        | Pool.Completed payload -> (
            (* The worker speaks the handler convention: an {"ok":…}
               envelope of its own, with "result" or "error".  Only a
               successful result is cacheable — a handler error (bad
               input, unsolvable instance parameters) must be recomputed
               because the cache key may not capture what went wrong. *)
            match
              ( Json.member "ok" payload,
                Json.member "result" payload,
                Json.member "error" payload )
            with
            | Some (Json.Bool true), Some result, _ ->
                (match p.key with
                | Some k -> Lru.add cache k result
                | None -> ());
                respond p.client ~req_id:p.req_id ~cached:false
                  [ ("result", result) ]
            | Some (Json.Bool false), _, Some (Json.String msg) ->
                respond_error p.client ~req_id:p.req_id msg
            | _ ->
                respond_error p.client ~req_id:p.req_id
                  "worker returned a malformed payload"))
  in
  let read_client c =
    if not (Wire.fill c.dec c.fd) then drop_client c;
    let continue = ref c.connected in
    while !continue do
      match Wire.next_frame ~max_payload:max_frame c.dec with
      | None -> continue := false
      | Some (Ok msg) ->
          handle_request c msg;
          continue := c.connected
      | Some (Error e) ->
          (* The stream is desynchronized (or adversarially huge): one
             parting diagnostic, then the connection dies.  The daemon
             itself carries on. *)
          respond_error c ~req_id:Json.Null ("bad frame: " ^ e);
          drop_client c;
          continue := false
    done
  in
  (match on_ready with
  | Some f -> f (Unix.getsockname listen_fd)
  | None -> ());
  let finally () =
    Hashtbl.iter (fun _ c -> drop_client c) (Hashtbl.copy clients);
    Wire.close_quietly listen_fd;
    (match address with
    | Unix_socket path -> (
        try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ());
    Pool.shutdown pool;
    restore Sys.sigterm prev_term;
    restore Sys.sigint prev_int
  in
  Fun.protect ~finally @@ fun () ->
  while (not !draining) || Pool.pending pool > 0 do
    let client_fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) clients [] in
    let watch =
      (if !draining then [] else [ listen_fd ])
      @ client_fds @ Pool.resp_fds pool
    in
    let select_timeout =
      match Pool.next_deadline pool with
      | None -> -1.0
      | Some d -> Float.max 0.0 (d -. Timer.now ())
    in
    let readable, _, _ =
      try Unix.select watch [] [] select_timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if (not !draining) && List.mem listen_fd readable then begin
      match Unix.accept listen_fd with
      | fd, _ ->
          Hashtbl.replace clients fd
            { fd; dec = Wire.decoder (); connected = true }
      | exception Unix.Unix_error _ -> ()
    end;
    (* Client reads may submit pool work; step after them so fresh jobs
       reach idle workers inside the same iteration. *)
    List.iter
      (fun fd ->
        match Hashtbl.find_opt clients fd with
        | Some c when List.mem fd readable -> read_client c
        | _ -> ())
      client_fds;
    List.iter settle (Pool.step pool ~readable)
  done;
  {
    requests = !requests;
    cache_hits = !cache_hits;
    busy_rejects = !busy_rejects;
  }

module Client = struct
  type conn = { fd : Unix.file_descr; dec : Wire.decoder }

  let connect ?(retries = 0) ?(delay = 0.05) address =
    let sa = sockaddr_of address in
    let attempt () =
      let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
      match Unix.connect fd sa with
      | () -> Ok { fd; dec = Wire.decoder () }
      | exception e ->
          Wire.close_quietly fd;
          Error e
    in
    let rec go left =
      match attempt () with
      | Ok conn -> conn
      | Error e ->
          if left <= 0 then raise e
          else begin
            Unix.sleepf delay;
            go (left - 1)
          end
    in
    go retries

  let request conn msg =
    match Wire.with_sigpipe_ignored (fun () -> Wire.write_frame conn.fd msg) with
    | exception Unix.Unix_error (err, _, _) ->
        Error ("write failed: " ^ Unix.error_message err)
    | () -> (
        match Wire.read_frame conn.dec conn.fd with
        | Some (Ok response) -> Ok response
        | Some (Error e) -> Error ("bad response frame: " ^ e)
        | None -> Error "connection closed by daemon")

  let close conn = Wire.close_quietly conn.fd
end
