(** Process and pipe machinery shared by the worker pool and the
    daemon: robust syscall wrappers and the length-delimited {!Json}
    frame protocol.

    {!Pool} moves jobs and results between processes over pipes, and
    {!Daemon} speaks to its clients over sockets; both carry many
    documents in each direction on one descriptor, so each document is
    delimited explicitly as a frame.  The retry/guard fixes for
    interrupted and short I/O live here, in exactly one place: this is
    the only module that reads a descriptor ({!fill}) or parses a frame
    ({!next_frame}); the blocking {!read_frame} is the two in a loop.

    A frame is a header of 1 to 19 ASCII digits (the byte length; no
    sign, underscore or radix prefix), a single ['\n'], then exactly
    that many bytes of compact {!Json}.  The length is written first so
    the reader never has to parse speculatively: a corrupted stream
    surfaces as a framing or JSON error, not as a blocked read. *)

(** Close, swallowing errors — for teardown paths where the descriptor
    may already be gone. *)
val close_quietly : Unix.file_descr -> unit

(** [waitpid] restarted on [EINTR]; returns the process status. *)
val waitpid_retry : int -> Unix.process_status

(** Human name of a signal number ([Sys.sigkill] -> ["SIGKILL"], unknown
    numbers as ["signal n"]) for crash-reason strings. *)
val signal_name : int -> string

(** Ignore SIGPIPE for the rest of the process.  Workers call this once
    before writing results: with the default disposition, a write to a
    pipe whose reader died kills the writer silently; ignored, the same
    write raises [EPIPE] and flows through the normal error path. *)
val ignore_sigpipe : unit -> unit

(** [with_sigpipe_ignored f] runs [f] with SIGPIPE ignored, restoring
    the previous disposition afterwards (also on exceptions).  For
    parent-side writes to a worker that may have died — the failure must
    come back as [EPIPE], not kill the whole pool. *)
val with_sigpipe_ignored : (unit -> 'a) -> 'a

(** Write the whole string, restarting interrupted or would-block
    writes ([EINTR]/[EAGAIN]/[EWOULDBLOCK]).  A short or interrupted
    write is a normal pipe event under signal load, not an error; any
    other [Unix_error] (notably [EPIPE] with {!ignore_sigpipe}
    installed) is re-raised.  Built on [Unix.single_write] — plain
    [Unix.write] raises [EINTR] with an unknown prefix already written,
    so a retry loop over it duplicates bytes into the stream. *)
val write_all : Unix.file_descr -> string -> unit

(** [write_frame fd json] writes one length-delimited frame via
    {!write_all}. *)
val write_frame : Unix.file_descr -> Json.t -> unit

(** Incremental frame decoder: bytes arrive in arbitrary chunks, from
    {!fill} or {!feed}; complete frames are handed out by {!next_frame}
    as they materialize.  A reader keeps one decoder per descriptor for
    the descriptor's lifetime — bytes read past one frame belong to the
    next. *)
type decoder

val decoder : unit -> decoder

(** [fill d fd] reads once from [fd] into [d]'s own buffer, at most
    64 KiB, restarting on [EINTR].  [false] means the peer is gone: EOF
    or a read error.  On a descriptor a select reported readable it
    does not block. *)
val fill : decoder -> Unix.file_descr -> bool

(** [feed d bytes len] appends the first [len] bytes of [bytes] — the
    way to drive a decoder without a descriptor. *)
val feed : decoder -> bytes -> int -> unit

(** The next complete frame, if the buffered bytes contain one.
    [Some (Error _)] means the stream is desynchronized (unparseable
    header or payload) and the connection should be abandoned.  The
    frame's bytes are consumed either way.  [max_payload] rejects a
    frame from its header alone when the declared length exceeds the
    limit — the guard a network-facing reader ({!Daemon}) needs so an
    adversarial length cannot make it buffer gigabytes before
    discovering the stream is garbage. *)
val next_frame : ?max_payload:int -> decoder -> (Json.t, string) result option

(** Blocking read of one frame: {!fill} until {!next_frame} yields.
    [None] on EOF at a frame boundary (the peer closed cleanly);
    [Some (Error _)] on a malformed header, EOF inside a frame or a JSON
    parse failure. *)
val read_frame : decoder -> Unix.file_descr -> (Json.t, string) result option

(** [true] when the decoder holds buffered bytes that do not yet form a
    complete frame — after EOF, evidence of a truncated write. *)
val partial : decoder -> bool
