(* Documentation lint, attached to both @doc and @runtest: every public
   [.mli] under lib/ must open with a [(** ... *)] synopsis, every
   sublibrary must parse as a library (a dune file with a (name ...)
   field), and no sublibrary may ship with ZERO interface files — a
   library whose every module is implementation-only has no documented
   surface at all, which is how interface gaps slipped in before this
   check existed.  It also rejects polymorphic compare ([Stdlib.compare]
   or a bare [compare], outside comments and literals) in the [.ml]
   files of the hot libraries (core, lp, sim, solver): it walks values
   generically where a typed compare is a few instructions, and the
   allow-list below names the only lines that may use it.  Every module
   [LIB_DIR/*/X.ml] must be used as a module path ([X.], [(X)], [open X]
   or [include X], outside comments and literals) by some [.ml] under
   LIB_DIR or the other ROOTs other than its own file: a module only its
   tests call does no work.  Finally, every [val] of a
   [LIB_DIR/*/*.mli] (operators aside) must appear as a whole word,
   outside comments and literals, in some such [.ml] other than its own
   implementation, or sit on the keep list below with its reason.  The
   match is by bare name, so it can only under-report: a common name
   always counts as used.  Exit 0 when clean; exit 1 listing each
   offender otherwise, so an undocumented interface, a new polymorphic
   compare, or a module or export without a caller cannot land.

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

(* [text] with comments, string literals and char literals replaced by
   spaces, so only code the compiler reads remains; every newline stays,
   so line [i] of the result is line [i] of [text].  Comments nest, and
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
  let newlines_to e =
    for j = !i to min e n - 1 do
      if text.[j] = '\n' then Buffer.add_char buf '\n'
    done
  in
  let skip_to e =
    if !depth = 0 then Buffer.add_char buf ' ';
    newlines_to e;
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
          if !depth = 0 || c = '\n' then Buffer.add_char buf c;
          incr i
  done;
  Buffer.contents buf

(* Does [line], code only, use polymorphic compare: [Stdlib.compare],
   or a bare [compare] that no module path qualifies and no [let], [val]
   or [and] defines? *)
let has_poly_compare line =
  let n = String.length line and t = String.length "compare" in
  (* The word that ends at or before [j], skipping blanks. *)
  let word_before j =
    let j = ref j in
    while !j >= 0 && (line.[!j] = ' ' || line.[!j] = '\t') do decr j done;
    let e = !j in
    while !j >= 0 && is_ident line.[!j] do decr j done;
    String.sub line (!j + 1) (e - !j)
  in
  let poly i =
    if i > 0 && line.[i - 1] = '.' then
      word_before (i - 2) = "Stdlib" && (i < 8 || line.[i - 8] <> '.')
    else not (List.mem (word_before (i - 1)) [ "let"; "val"; "and" ])
  in
  let rec at i =
    i + t <= n
    && ((String.sub line i t = "compare"
        && (i = 0 || not (is_ident line.[i - 1]))
        && (i + t = n || not (is_ident line.[i + t]))
        && poly i)
       || at (i + 1))
  in
  at 0

(* Every non-admitted polymorphic-compare line of the hot libraries,
   as "path:line". *)
let poly_compare_sites root =
  List.concat_map
    (fun lib ->
      let dir = Filename.concat root lib in
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".ml")
      |> List.sort String.compare
      |> List.concat_map (fun f ->
             let rel = Filename.concat lib f in
             let text = Doc_scan.read_file (Filename.concat dir f) in
             List.combine
               (String.split_on_char '\n' text)
               (String.split_on_char '\n' (code_only text))
             |> List.mapi (fun i lines -> (i + 1, lines))
             |> List.filter_map (fun (i, (line, code)) ->
                    if
                      has_poly_compare code
                      && not (List.mem (rel, String.trim line) compare_allowed)
                    then Some (Printf.sprintf "%s:%d" (Filename.concat root rel) i)
                    else None)))
    hot_libraries

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

(* The identifiers the [val]s of an interface export, from its
   [code_only] text.  Operators ([val ( = )]) are skipped: every use of
   one is spelled the same, so a name match would say nothing. *)
let val_names code =
  let n = String.length code in
  let rec fwd j = if j < n && Doc_scan.is_space code.[j] then fwd (j + 1) else j in
  let found = ref [] and i = ref 0 in
  while !i + 3 < n do
    if
      String.sub code !i 3 = "val"
      && (!i = 0 || not (is_ident code.[!i - 1]))
      && Doc_scan.is_space code.[!i + 3]
    then begin
      let j = fwd (!i + 3) in
      let k = ref j in
      while !k < n && is_ident code.[!k] do incr k done;
      if !k > j then found := String.sub code j (!k - j) :: !found;
      i := !k
    end
    else incr i
  done;
  List.rev !found

(* The maximal runs of identifier characters in [code]. *)
let identifiers code =
  let n = String.length code in
  let found = ref [] and i = ref 0 in
  while !i < n do
    if is_ident code.[!i] then begin
      let j = ref !i in
      while !j < n && is_ident code.[!j] do incr j done;
      found := String.sub code !i (!j - !i) :: !found;
      i := !j
    end
    else incr i
  done;
  !found

(* The exports kept without a program caller, as (interface under
   LIB_DIR, val name, reason): a test's reference for another path, a
   seam a safety test drives, or a result DESIGN.md names. *)
let export_kept =
  [
    ("core/gain.mli", "price_of_defense", "DESIGN.md names the Price of Defense among Gain's results");
    ("core/gain.mli", "predicted_price_of_defense", "DESIGN.md names the Price of Defense; this is its k-matching closed form |IS|/k");
    ("core/game_engine.mli", "is_pure_ne", "reference: the definitional check Pure_nash.construct and the dynamics' fixed points are held to");
    ("graph/graph6.mli", "encode_sparse6", "seam: the sparse6 decoder and memory-bomb tests build their lines with it");
    ("harness/pool.mli", "alive", "seam: the crash, respawn and drain tests read worker liveness through it");
    ("harness/pool.mli", "worker_pids", "seam: the signal and orphan tests kill workers by pid");
    ("harness/timer.mli", "median_of_sorted", "seam: pins time_stats's even-count median on fixed samples");
    ("harness/wire.mli", "feed", "seam: the frame decoder's split-feed and fuzz tests drive it byte by byte");
    ("harness/wire.mli", "partial", "seam: the frame decoder tests check a held partial frame");
    ("lp/matrix_game.mli", "is_equilibrium", "reference: the certificate every Matrix_game.solve test checks");
    ("matching/hall.mli", "check_exhaustive", "reference: subset enumeration the polynomial Hall check is tested against");
  ]

(* The [val]s of the interfaces under [lib] whose name no [.ml] under
   [roots] holds as an identifier, their own implementation aside, and
   that [export_kept] does not name; and the [export_kept] entries that
   name no exported [val] of their interface.  Both as "path: name". *)
let uncalled_exports lib roots =
  let users = Hashtbl.create 4096 in
  List.iter
    (fun path ->
      List.iter
        (fun w -> Hashtbl.add users w path)
        (List.sort_uniq String.compare
           (identifiers (code_only (Doc_scan.read_file path)))))
    (List.concat_map ml_files roots);
  let exported =
    Doc_scan.scan lib
    |> List.concat_map (fun (s : Doc_scan.sublib) -> s.mlis)
    |> List.concat_map (fun (m : Doc_scan.mli) ->
           let own = Filename.remove_extension m.path ^ ".ml" in
           val_names (code_only (Doc_scan.read_file m.path))
           |> List.sort_uniq String.compare
           |> List.map (fun name -> (m.path, own, name)))
  in
  let kept path name =
    List.exists
      (fun (mli, n, _) -> n = name && Filename.concat lib mli = path)
      export_kept
  in
  ( List.filter_map
      (fun (path, own, name) ->
        if
          List.for_all (String.equal own) (Hashtbl.find_all users name)
          && not (kept path name)
        then Some (Printf.sprintf "%s: %s" path name)
        else None)
      exported,
    List.filter_map
      (fun (mli, name, _) ->
        let path = Filename.concat lib mli in
        if List.exists (fun (p, _, n) -> p = path && n = name) exported then None
        else Some (Printf.sprintf "%s: %s" path name))
      export_kept )

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
  let exports, stale_keeps = uncalled_exports root roots in
  match (undocumented, bare, compares, uncalled, exports @ stale_keeps) with
  | [], [], [], [], [] ->
      Printf.printf
        "doc_lint: ok (%d .mli files across %d sublibraries, all carry a \
         leading (** ... *) synopsis; no unlisted polymorphic compare in \
         %s; every module has a caller, and every export a caller or a \
         kept reason, in %s)\n"
        total (List.length sublibs)
        (String.concat ", " hot_libraries)
        (String.concat ", " roots)
  | offenders, bare, compares, uncalled, _ ->
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
            "doc_lint: %s: polymorphic compare in a hot library (use a \
             typed compare, or admit the line in doc_lint.ml)\n"
            site)
        compares;
      List.iter
        (fun path ->
          Printf.eprintf
            "doc_lint: %s: no .ml under %s uses this module (delete it, or \
             give it a caller)\n"
            path (String.concat ", " roots))
        uncalled;
      List.iter
        (fun site ->
          Printf.eprintf
            "doc_lint: %s: no .ml under %s names this export outside its \
             own implementation (delete it, hide it, or keep it in \
             doc_lint.ml with a reason)\n"
            site (String.concat ", " roots))
        exports;
      List.iter
        (fun site ->
          Printf.eprintf
            "doc_lint: %s: on the keep list in doc_lint.ml but not exported \
             (drop the entry)\n"
            site)
        stale_keeps;
      if offenders <> [] then
        Printf.eprintf "doc_lint: %d of %d .mli file(s) undocumented\n"
          (List.length offenders) total;
      if bare <> [] then
        Printf.eprintf "doc_lint: %d sublibrar%s without any interface file\n"
          (List.length bare)
          (if List.length bare = 1 then "y" else "ies");
      exit 1
