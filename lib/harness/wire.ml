(* Shared process/pipe machinery for Pool (persistent workers) and
   Daemon (socket clients).  See wire.mli for the frame grammar. *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rec waitpid_retry pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigill then "SIGILL"
  else if s = Sys.sigfpe then "SIGFPE"
  else if s = Sys.sigbus then "SIGBUS"
  else if s = Sys.sigpipe then "SIGPIPE"
  else Printf.sprintf "signal %d" s

let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let with_sigpipe_ignored f =
  match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | previous ->
      Fun.protect
        ~finally:(fun () ->
          try Sys.set_signal Sys.sigpipe previous
          with Invalid_argument _ | Sys_error _ -> ())
        f
  | exception (Invalid_argument _ | Sys_error _) -> f ()

(* A signal delivered mid-write makes the syscall return short or raise
   EINTR (OCaml installs handlers without SA_RESTART); on a descriptor
   someone flipped to non-blocking it can also be EAGAIN.  All three
   mean "try again from where we got to" — which is only sound with
   [Unix.single_write]: plain [Unix.write] loops over multiple write(2)
   calls internally and raises EINTR with some unknown prefix already
   on the pipe, so retrying from our own offset duplicates bytes and
   corrupts the stream.  [single_write] guarantees the error cases wrote
   nothing. *)
let write_all fd s =
  let bytes = Bytes.unsafe_of_string s in
  let len = Bytes.length bytes in
  let written = ref 0 in
  while !written < len do
    match Unix.single_write fd bytes !written (len - !written) with
    | k -> written := !written + k
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
        ()
  done

(* The header never legitimately exceeds the digits of max_int. *)
let max_header_digits = 19

let write_frame fd json =
  let payload = Json.to_string json in
  write_all fd (string_of_int (String.length payload) ^ "\n" ^ payload)

let rec read_retry fd buf pos len =
  try Unix.read fd buf pos len
  with Unix.Unix_error (Unix.EINTR, _, _) -> read_retry fd buf pos len

let read_frame fd =
  let byte = Bytes.create 1 in
  let header = Buffer.create 8 in
  let rec read_header () =
    if read_retry fd byte 0 1 = 0 then
      if Buffer.length header = 0 then None
      else Some (Error "EOF inside frame header")
    else
      let c = Bytes.get byte 0 in
      if c = '\n' then
        match int_of_string_opt (Buffer.contents header) with
        | Some n when n >= 0 -> Some (Ok n)
        | _ ->
            Some
              (Error
                 (Printf.sprintf "bad frame header %S" (Buffer.contents header)))
      else if Buffer.length header >= max_header_digits then
        Some (Error "frame header too long")
      else begin
        Buffer.add_char header c;
        read_header ()
      end
  in
  match read_header () with
  | None -> None
  | Some (Error _ as e) -> Some e
  | Some (Ok n) ->
      let payload = Bytes.create n in
      let rec fill off =
        if off = n then true
        else
          match read_retry fd payload off (n - off) with
          | 0 -> false
          | k -> fill (off + k)
      in
      if not (fill 0) then Some (Error "EOF inside frame payload")
      else Some (Json.of_string (Bytes.unsafe_to_string payload))

type decoder = {
  mutable data : Bytes.t;
  mutable len : int; (* bytes buffered *)
  mutable pos : int; (* bytes consumed *)
}

let decoder () = { data = Bytes.create 4096; len = 0; pos = 0 }

let feed d chunk k =
  (* Compact consumed bytes away first, growing only when the live tail
     plus the new chunk genuinely does not fit. *)
  if d.pos > 0 then begin
    let live = d.len - d.pos in
    Bytes.blit d.data d.pos d.data 0 live;
    d.pos <- 0;
    d.len <- live
  end;
  if d.len + k > Bytes.length d.data then begin
    let grown = Bytes.create (max (2 * Bytes.length d.data) (d.len + k)) in
    Bytes.blit d.data 0 grown 0 d.len;
    d.data <- grown
  end;
  Bytes.blit chunk 0 d.data d.len k;
  d.len <- d.len + k

let next_frame ?max_payload d =
  let rec newline i =
    if i >= d.len then -1
    else if Bytes.get d.data i = '\n' then i
    else if i - d.pos >= max_header_digits then -2
    else newline (i + 1)
  in
  match newline d.pos with
  | -1 -> None (* header still incomplete *)
  | -2 -> Some (Error "frame header too long")
  | nl -> (
      let header = Bytes.sub_string d.data d.pos (nl - d.pos) in
      match int_of_string_opt header with
      | Some n when n >= 0 -> (
          match max_payload with
          | Some limit when n > limit ->
              (* Reject from the header alone: an adversarial or corrupt
                 length must not make the reader buffer gigabytes before
                 discovering the stream is garbage. *)
              Some
                (Error
                   (Printf.sprintf "frame payload of %d bytes exceeds limit %d"
                      n limit))
          | _ ->
              if d.len - (nl + 1) < n then None (* payload still incomplete *)
              else begin
                let payload = Bytes.sub_string d.data (nl + 1) n in
                d.pos <- nl + 1 + n;
                Some (Json.of_string payload)
              end)
      | _ -> Some (Error (Printf.sprintf "bad frame header %S" header)))

let partial d = d.len > d.pos
