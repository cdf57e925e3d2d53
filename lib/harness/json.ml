type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- emitter --- *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_float buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else
    let s = Printf.sprintf "%.12g" f in
    (* keep floats recognizable as floats on re-parse *)
    let plain = String.for_all (function '0' .. '9' | '-' -> true | _ -> false) s in
    Buffer.add_string buf (if plain then s ^ ".0" else s)

let to_string ?(pretty = false) t =
  let buf = Buffer.create 1024 in
  let pad depth = Buffer.add_string buf (String.make (2 * depth) ' ') in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> add_float buf f
    | String s -> add_escaped buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            if pretty then begin
              Buffer.add_char buf '\n';
              pad (depth + 1)
            end;
            emit (depth + 1) item)
          items;
        if pretty then begin
          Buffer.add_char buf '\n';
          pad depth
        end;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (key, value) ->
            if i > 0 then Buffer.add_char buf ',';
            if pretty then begin
              Buffer.add_char buf '\n';
              pad (depth + 1)
            end;
            add_escaped buf key;
            Buffer.add_string buf (if pretty then ": " else ":");
            emit (depth + 1) value)
          fields;
        if pretty then begin
          Buffer.add_char buf '\n';
          pad depth
        end;
        Buffer.add_char buf '}'
  in
  emit 0 t;
  Buffer.contents buf

(* --- parser --- *)

exception Parse_error of string

(* The deepest nesting of arrays and objects [of_string] accepts.  The
   parser recurses once per level, and the daemon parses every frame in
   its parent: without a bound a frame of a few million '[' costs seconds
   and hundreds of megabytes before it fails.  Committed artifacts nest 7
   levels. *)
let max_depth = 128

let of_string input =
  let n = String.length input in
  let pos = ref 0 in
  let error msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> error (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub input !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else error "invalid literal"
  in
  let add_utf8 buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  (* Exactly four hex digits: int_of_string on "0x" ^ hex would also
     accept underscores and a leading sign, so "\u1_23" must not reach
     it. *)
  let hex4 () =
    if !pos + 4 > n then error "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> error "invalid \\u escape"
    in
    let v = ref 0 in
    for _ = 1 to 4 do
      v := (!v lsl 4) lor digit input.[!pos];
      advance ()
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then error "unterminated string";
      let c = input.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if !pos >= n then error "unterminated escape";
          let e = input.[!pos] in
          advance ();
          match e with
          | '"' -> Buffer.add_char buf '"'; loop ()
          | '\\' -> Buffer.add_char buf '\\'; loop ()
          | '/' -> Buffer.add_char buf '/'; loop ()
          | 'n' -> Buffer.add_char buf '\n'; loop ()
          | 'r' -> Buffer.add_char buf '\r'; loop ()
          | 't' -> Buffer.add_char buf '\t'; loop ()
          | 'b' -> Buffer.add_char buf '\b'; loop ()
          | 'f' -> Buffer.add_char buf '\012'; loop ()
          | 'u' ->
              let code = hex4 () in
              if code >= 0xD800 && code <= 0xDBFF then begin
                (* High surrogate: must pair with a following \u low
                   surrogate to form one astral code point — emitting
                   each half separately would be invalid UTF-8. *)
                if
                  !pos + 2 <= n
                  && input.[!pos] = '\\'
                  && input.[!pos + 1] = 'u'
                then begin
                  pos := !pos + 2;
                  let low = hex4 () in
                  if low < 0xDC00 || low > 0xDFFF then
                    error "invalid low surrogate in \\u escape pair";
                  add_utf8 buf
                    (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
                end
                else error "unpaired high surrogate in \\u escape"
              end
              else if code >= 0xDC00 && code <= 0xDFFF then
                error "unpaired low surrogate in \\u escape"
              else add_utf8 buf code;
              loop ()
          | _ -> error "invalid escape")
      | c -> Buffer.add_char buf c; loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let is_digit () =
      match peek () with Some ('0' .. '9') -> true | _ -> false
    in
    if not (is_digit ()) then error "invalid number";
    let leading_zero = input.[!pos] = '0' in
    advance ();
    (* JSON grammar: the integer part is either a single 0 or starts
       with a nonzero digit — "0123" is not a number. *)
    if leading_zero && is_digit () then error "invalid number: leading zero";
    while is_digit () do advance () done;
    let fractional = ref false in
    if peek () = Some '.' then begin
      fractional := true;
      advance ();
      if not (is_digit ()) then error "invalid number";
      while is_digit () do advance () done
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        fractional := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        if not (is_digit ()) then error "invalid number";
        while is_digit () do advance () done
    | _ -> ());
    let text = String.sub input start (!pos - start) in
    if !fractional then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value depth =
    skip_ws ();
    let open_container () =
      if depth >= max_depth then
        error (Printf.sprintf "nesting deeper than %d" max_depth);
      advance ()
    in
    match peek () with
    | None -> error "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        open_container ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else
          let rec items acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> error "expected ',' or ']'"
          in
          items []
    | Some '{' ->
        open_container ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields ((key, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((key, v) :: acc))
            | _ -> error "expected ',' or '}'"
          in
          fields []
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> error (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then error "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg
  | exception _ -> Error "malformed JSON"

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
