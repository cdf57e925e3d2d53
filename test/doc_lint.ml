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
   use it.  Exit 0 when clean; exit 1 listing each offender otherwise,
   so an undocumented interface or a new polymorphic compare cannot
   land.

     doc_lint.exe LIB_DIR        # normally: doc_lint.exe lib *)

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

let () =
  let root =
    match Sys.argv with
    | [| _; dir |] -> dir
    | _ ->
        prerr_endline "usage: doc_lint.exe LIB_DIR";
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
  match (undocumented, bare, compares) with
  | [], [], [] ->
      Printf.printf
        "doc_lint: ok (%d .mli files across %d sublibraries, all carry a \
         leading (** ... *) synopsis; no unlisted Stdlib.compare in %s)\n"
        total (List.length sublibs)
        (String.concat ", " hot_libraries)
  | offenders, bare, compares ->
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
      if offenders <> [] then
        Printf.eprintf "doc_lint: %d of %d .mli file(s) undocumented\n"
          (List.length offenders) total;
      if bare <> [] then
        Printf.eprintf "doc_lint: %d sublibrar%s without any interface file\n"
          (List.length bare)
          (if List.length bare = 1 then "y" else "ies");
      exit 1
