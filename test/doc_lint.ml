(* Documentation lint, attached to both @doc and @runtest: every public
   [.mli] under lib/ must open with a [(** ... *)] synopsis, every
   sublibrary must parse as a library (a dune file with a (name ...)
   field), and no sublibrary may ship with ZERO interface files — a
   library whose every module is implementation-only has no documented
   surface at all, which is how interface gaps slipped in before this
   check existed.  It also rejects the token [Stdlib.compare] in the
   [.ml] files of the hot libraries (core, lp, sim, solver): polymorphic
   compare walks values generically where a typed compare is a few
   instructions, and the allow-list below names the only lines that may
   use it.  Finally, every module [LIB_DIR/*/X.ml] must be used as a
   module path ([X.], [(X)], [open X] or [include X], outside comments
   and literals) by some [.ml] under LIB_DIR or the other ROOTs other
   than its own file: a module only its tests call does no work.  Exit
   0 when clean; exit 1 listing each offender otherwise, so an
   undocumented interface, a new polymorphic compare or a module
   without a caller cannot land.

     doc_lint.exe LIB_DIR [ROOT ...]
     # normally: doc_lint.exe lib bin bench perfbench examples *)

let hot_libraries = [ "core"; "lp"; "sim"; "solver" ]

(* The admitted sites, as (file under LIB_DIR, trimmed line): the
   [Strategy] orders behind the double oracle's [Set.Make]. *)
let compare_allowed =
  [
    ("core/tuple.ml", "let compare = Stdlib.compare");
    ("core/tuple.ml", "let equal a b = Stdlib.compare a b = 0");
    ("core/subgraph_game.ml", "let compare = Stdlib.compare");
    ("core/subgraph_game.ml", "let equal a b = Stdlib.compare a b = 0");
  ]

let is_ident c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Does [line] hold [Stdlib.compare] as a whole identifier? *)
let has_poly_compare line =
  let token = "Stdlib.compare" in
  let n = String.length line and t = String.length token in
  let rec at i =
    i + t <= n
    && ((String.sub line i t = token
        && (i = 0 || not (is_ident line.[i - 1] || line.[i - 1] = '.'))
        && (i + t = n || not (is_ident line.[i + t])))
       || at (i + 1))
  in
  at 0

(* Every non-admitted [Stdlib.compare] line of the hot libraries, as
   "path:line". *)
let poly_compare_sites root =
  List.concat_map
    (fun lib ->
      let dir = Filename.concat root lib in
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".ml")
      |> List.sort String.compare
      |> List.concat_map (fun f ->
             let rel = Filename.concat lib f in
             Doc_scan.read_file (Filename.concat dir f)
             |> String.split_on_char '\n'
             |> List.mapi (fun i line -> (i + 1, line))
             |> List.filter_map (fun (i, line) ->
                    if
                      has_poly_compare line
                      && not (List.mem (rel, String.trim line) compare_allowed)
                    then Some (Printf.sprintf "%s:%d" (Filename.concat root rel) i)
                    else None)))
    hot_libraries

(* [text] with comments, string literals and char literals replaced by
   spaces, so only code the compiler reads remains.  Comments nest, and
   strings inside them are lexed as strings, as OCaml does. *)
let code_only text =
  let n = String.length text in
  let buf = Buffer.create n in
  (* End (exclusive) of the string literal whose opening quote is at [j]. *)
  let string_end j =
    let k = ref (j + 1) in
    while !k < n && text.[!k] <> '"' do
      if text.[!k] = '\\' then incr k;
      incr k
    done;
    !k + 1
  in
  (* End of the char literal opening at [j] ('x', '"', '\n', '\123'), if
     the quote starts one rather than a type variable. *)
  let char_end j =
    if j > 0 && is_ident text.[j - 1] then None
    else if j + 2 < n && text.[j + 1] <> '\\' && text.[j + 2] = '\'' then
      Some (j + 3)
    else if j + 3 < n && text.[j + 1] = '\\' then
      let k = ref (j + 3) in
      while !k < n && !k < j + 7 && text.[!k] <> '\'' do
        incr k
      done;
      if !k < n && text.[!k] = '\'' then Some (!k + 1) else None
    else None
  in
  let depth = ref 0 and i = ref 0 in
  let skip_to e =
    if !depth = 0 then Buffer.add_char buf ' ';
    i := e
  in
  while !i < n do
    let c = text.[!i] in
    let next = if !i + 1 < n then text.[!i + 1] else ' ' in
    if c = '(' && next = '*' then begin
      incr depth;
      i := !i + 2
    end
    else if !depth > 0 && c = '*' && next = ')' then begin
      decr depth;
      i := !i + 2
    end
    else if c = '"' then skip_to (string_end !i)
    else
      match if c = '\'' then char_end !i else None with
      | Some e -> skip_to e
      | None ->
          if !depth = 0 then Buffer.add_char buf c;
          incr i
  done;
  Buffer.contents buf

(* The capitalized names [code] uses as a module path: [X.], [(X)],
   [open X] or [include X].  A qualified [Lib.X.] uses both
   [Lib] and [X]. *)
let module_paths code =
  let n = String.length code in
  let rec back j = if j >= 0 && Doc_scan.is_space code.[j] then back (j - 1) else j in
  let rec fwd j = if j < n && Doc_scan.is_space code.[j] then fwd (j + 1) else j in
  (* Does the word [w] end at index [j]? *)
  let word_ends_at j w =
    let s = j - String.length w + 1 in
    s >= 0 && String.sub code s (String.length w) = w
    && (s = 0 || not (is_ident code.[s - 1]))
  in
  let found = ref [] and i = ref 0 in
  while !i < n do
    let c = code.[!i] in
    if (!i > 0 && is_ident code.[!i - 1]) || not (c >= 'A' && c <= 'Z') then incr i
    else begin
      let j = ref !i in
      while !j < n && is_ident code.[!j] do incr j done;
      let p = back (!i - 1) and q = fwd !j in
      if
        (!j < n && code.[!j] = '.')
        || (p >= 0 && code.[p] = '(' && q < n && code.[q] = ')')
        || word_ends_at p "open" || word_ends_at p "include"
      then found := String.sub code !i (!j - !i) :: !found;
      i := !j
    end
  done;
  !found

(* Every [.ml] under [dir], skipping [_build]-style and dot directories. *)
let rec ml_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then
           if f.[0] = '_' || f.[0] = '.' then [] else ml_files path
         else if Filename.check_suffix f ".ml" then [ path ]
         else [])

(* The modules [X.ml] under [lib] that no [.ml] under [roots] besides
   X.ml itself uses as a module path. *)
let uncalled_modules lib roots =
  let users = Hashtbl.create 256 in
  List.iter
    (fun path ->
      List.iter
        (fun m -> Hashtbl.add users m path)
        (List.sort_uniq String.compare
           (module_paths (code_only (Doc_scan.read_file path)))))
    (List.concat_map ml_files roots);
  ml_files lib
  |> List.filter (fun path ->
         let m =
           String.capitalize_ascii
             (Filename.remove_extension (Filename.basename path))
         in
         List.for_all (String.equal path) (Hashtbl.find_all users m))

let () =
  let root, roots =
    match Array.to_list Sys.argv with
    | _ :: dir :: others -> (dir, dir :: others)
    | _ ->
        prerr_endline "usage: doc_lint.exe LIB_DIR [ROOT ...]";
        exit 2
  in
  let sublibs = Doc_scan.scan root in
  if sublibs = [] then begin
    Printf.eprintf "doc_lint: no sublibraries found under %s\n" root;
    exit 1
  end;
  let undocumented =
    List.concat_map
      (fun (s : Doc_scan.sublib) ->
        List.filter (fun (m : Doc_scan.mli) -> m.synopsis = None) s.mlis)
      sublibs
  in
  let bare = List.filter (fun (s : Doc_scan.sublib) -> s.mlis = []) sublibs in
  let total =
    List.fold_left (fun n (s : Doc_scan.sublib) -> n + List.length s.mlis) 0 sublibs
  in
  let compares = poly_compare_sites root in
  let uncalled = uncalled_modules root roots in
  match (undocumented, bare, compares, uncalled) with
  | [], [], [], [] ->
      Printf.printf
        "doc_lint: ok (%d .mli files across %d sublibraries, all carry a \
         leading (** ... *) synopsis; no unlisted Stdlib.compare in %s; \
         every module has a caller in %s)\n"
        total (List.length sublibs)
        (String.concat ", " hot_libraries)
        (String.concat ", " roots)
  | offenders, bare, compares, uncalled ->
      List.iter
        (fun (m : Doc_scan.mli) ->
          Printf.eprintf
            "doc_lint: %s: missing leading (** ... *) synopsis\n" m.path)
        offenders;
      List.iter
        (fun (s : Doc_scan.sublib) ->
          Printf.eprintf
            "doc_lint: %s (library %s): no .mli files — every module is an \
             undocumented implementation\n"
            s.dir s.libname)
        bare;
      List.iter
        (fun site ->
          Printf.eprintf
            "doc_lint: %s: Stdlib.compare in a hot library (use a typed \
             compare, or admit the line in doc_lint.ml)\n"
            site)
        compares;
      List.iter
        (fun path ->
          Printf.eprintf
            "doc_lint: %s: no .ml under %s uses this module (delete it, or \
             give it a caller)\n"
            path (String.concat ", " roots))
        uncalled;
      if offenders <> [] then
        Printf.eprintf "doc_lint: %d of %d .mli file(s) undocumented\n"
          (List.length offenders) total;
      if bare <> [] then
        Printf.eprintf "doc_lint: %d sublibrar%s without any interface file\n"
          (List.length bare)
          (if List.length bare = 1 then "y" else "ies");
      exit 1
