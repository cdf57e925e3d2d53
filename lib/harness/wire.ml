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

type decoder = {
  mutable data : Bytes.t;
  mutable len : int; (* bytes buffered *)
  mutable pos : int; (* bytes consumed *)
}

(* The most one read takes: a full Linux pipe buffer. *)
let chunk = 65536

let decoder () = { data = Bytes.create chunk; len = 0; pos = 0 }

(* Make room for [k] more bytes after the live tail: compact consumed
   bytes away first, growing only when the live tail plus [k] genuinely
   does not fit.  [fill] asks for one byte and reads into whatever is
   free, so the buffer grows only under a frame larger than itself. *)
let reserve d k =
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
  end

let feed d bytes k =
  reserve d k;
  Bytes.blit bytes 0 d.data d.len k;
  d.len <- d.len + k

let rec fill d fd =
  reserve d 1;
  match Unix.read fd d.data d.len (min chunk (Bytes.length d.data - d.len)) with
  | 0 -> false
  | k ->
      d.len <- d.len + k;
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill d fd
  | exception Unix.Unix_error _ -> false

(* The one header parser: ASCII digits and nothing else — no sign, no
   underscore, no radix prefix — at least one of them, whose value fits
   an int.  [next_frame]'s newline scan caps the length at
   [max_header_digits]. *)
let header_value b pos len =
  let rec go i acc =
    if i = pos + len then Some acc
    else
      match Bytes.get b i with
      | '0' .. '9' as c ->
          let digit = Char.code c - Char.code '0' in
          if acc > (max_int - digit) / 10 then None
          else go (i + 1) ((10 * acc) + digit)
      | _ -> None
  in
  if len = 0 then None else go pos 0

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
      match header_value d.data d.pos (nl - d.pos) with
      | Some n -> (
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
      | None ->
          Some
            (Error
               (Printf.sprintf "bad frame header %S"
                  (Bytes.sub_string d.data d.pos (nl - d.pos)))))

let partial d = d.len > d.pos

let rec read_frame d fd =
  match next_frame d with
  | Some _ as frame -> frame
  | None ->
      if fill d fd then read_frame d fd
      else if partial d then Some (Error "EOF inside a frame")
      else None
