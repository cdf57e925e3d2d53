(** Minimal JSON tree, emitter and parser (zero dependencies).

    Backs the structured experiment artifacts ([BENCH_*.json]): every
    registered experiment renders its result through this module, and the
    smoke sweep re-parses the rendered report to assert well-formedness.
    The emitter is deterministic — object fields keep insertion order —
    so artifacts are diffable across runs (timing values excepted). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Render to a string.  [pretty] (default [false]) uses two-space
    indentation with one field/element per line; compact mode emits no
    whitespace.  Non-finite floats (nan, infinities) have no JSON
    representation and are emitted as [null]. *)
val to_string : ?pretty:bool -> t -> string

(** Parse a complete JSON document (surrounding whitespace allowed;
    trailing garbage is an error).  Numbers without [.], [e] or [E]
    parse as [Int] when they fit, else as [Float]; leading zeros are
    rejected per the JSON grammar.  [\uXXXX] escapes are decoded to
    UTF-8; UTF-16 surrogate pairs combine into the single astral code
    point they encode, and unpaired surrogates are an error (they have
    no UTF-8 representation).  Arrays and objects may nest at most 128
    deep ([max_depth] in json.ml; committed artifacts nest 7): a deeper
    document is an [Error], found before the parser descends further, so
    a hostile frame of nested brackets costs no more than its first
    129 levels. *)
val of_string : string -> (t, string) result

(** [member key json] is the value of field [key] when [json] is an
    object that has it. *)
val member : string -> t -> t option
