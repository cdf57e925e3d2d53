(* Regression harness for the CLI's error discipline: every subcommand
   fed malformed input must exit 1 with a single-line "error: ..."
   diagnostic on stderr — never a backtrace (the uncaught-exception
   path exits 2).  One success case rides along: the subgraph game's
   double-oracle solve writes its profile with --save.

   Run as: cli_errors.exe path/to/defender_cli.exe
   (the dune rule passes %{exe:../bin/defender_cli.exe}). *)

let cli = ref ""
let failures = ref 0

(* Run the CLI with [args]; capture exit status and stderr. *)
let run args =
  let err_file = Filename.temp_file "cli_errors" ".stderr" in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let err = Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process !cli (Array.of_list (!cli :: args)) Unix.stdin null err
  in
  Unix.close null;
  Unix.close err;
  let _, status = Unix.waitpid [] pid in
  let ic = open_in err_file in
  let n = in_channel_length ic in
  let stderr_text = really_input_string ic n in
  close_in ic;
  Sys.remove err_file;
  (status, stderr_text)

let check name args =
  let status, stderr_text = run args in
  let bad = ref false in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        bad := true;
        incr failures;
        Printf.printf "FAIL %s: %s\n  argv: %s\n  stderr: %s\n" name msg
          (String.concat " " args)
          (String.trim stderr_text))
      fmt
  in
  (match status with
  | Unix.WEXITED 1 -> ()
  | Unix.WEXITED c -> fail "exit %d, wanted 1" c
  | Unix.WSIGNALED s -> fail "killed by signal %d" s
  | Unix.WSTOPPED s -> fail "stopped by signal %d" s);
  let first_line =
    match String.index_opt stderr_text '\n' with
    | Some i -> String.sub stderr_text 0 i
    | None -> stderr_text
  in
  if String.length first_line < 7 || String.sub first_line 0 7 <> "error: "
  then fail "stderr does not start with \"error: \"";
  (* a backtrace would add "Raised at ..." lines after the message *)
  let lines =
    String.split_on_char '\n' stderr_text
    |> List.filter (fun l -> String.trim l <> "")
  in
  if List.length lines > 1 then fail "diagnostic is not a single line";
  if not !bad then Printf.printf "ok   %s\n" name

(* A success case: [args] must exit 0 and leave [file] starting with
   [prefix] once its leading "#" comment lines are dropped. *)
let check_saves name args ~file ~prefix =
  let status, stderr_text = run args in
  let saved =
    match open_in_bin file with
    | ic ->
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let rec body = function
          | l :: rest when String.length l > 0 && l.[0] = '#' -> body rest
          | lines -> String.concat "\n" lines
        in
        body (String.split_on_char '\n' text)
    | exception Sys_error _ -> ""
  in
  let starts =
    String.length saved >= String.length prefix
    && String.sub saved 0 (String.length prefix) = prefix
  in
  match status with
  | Unix.WEXITED 0 when starts -> Printf.printf "ok   %s\n" name
  | _ ->
      incr failures;
      Printf.printf "FAIL %s: wanted exit 0 and a file starting %S\n  argv: %s\n  stderr: %s\n"
        name prefix (String.concat " " args) (String.trim stderr_text)

let () =
  (match Sys.argv with
  | [| _; path |] -> cli := path
  | _ ->
      prerr_endline "usage: cli_errors.exe CLI_PATH";
      exit 2);

  let bogus_profile = Filename.temp_file "cli_errors" ".profile" in
  let oc = open_out bogus_profile in
  output_string oc "this is not a profile\n";
  close_out oc;

  let missing = Filename.temp_file "cli_errors" ".edges" in
  Sys.remove missing;

  (* graph-input validation, shared by the compute subcommands *)
  check "gen: no family" [ "gen" ];
  check "solve: missing edge file" [ "solve"; "--file"; missing; "-k"; "1" ];
  check "solve: malformed family" [ "solve"; "--family"; "frobnicate:9" ];
  check "solve: file and family"
    [ "solve"; "--file"; missing; "--family"; "path:4" ];
  check "analyze: no graph" [ "analyze" ];
  check "simulate: malformed family" [ "simulate"; "--family"; "gnp:banana" ];
  (* semantically invalid model parameters (typed, not cmdliner usage) *)
  check "solve: k out of range"
    [ "solve"; "--family"; "path:4"; "-k"; "99"; "--nu"; "2" ];
  check "pure: nu < 1" [ "pure"; "--family"; "path:4"; "--nu"; "0" ];
  (* malformed saved-profile text *)
  check "verify: bad profile"
    [ "verify"; "--family"; "path:4"; "--load"; bogus_profile ];
  check "verify: missing profile"
    [ "verify"; "--family"; "path:4"; "--load"; missing ];
  (* daemon endpoints: address validation and connection failure *)
  check "serve: no address" [ "serve" ];
  check "serve: two addresses"
    [ "serve"; "--socket"; "/tmp/x.sock"; "--port"; "7001" ];
  check "query: no daemon"
    [ "query"; "--socket"; "/tmp/cli_errors_no_such_daemon.sock";
      "--request"; "{\"op\":\"ping\"}" ];
  check "query: bad request json"
    [ "query"; "--socket"; "/tmp/cli_errors_no_such_daemon.sock";
      "--request"; "{not json" ];
  check "query: malformed family (encoded client-side)"
    [ "query"; "--socket"; "/tmp/cli_errors_no_such_daemon.sock";
      "--family"; "frobnicate:9" ];

  (* the double-oracle solve saves the subgraph game's profile too *)
  let saved = Filename.temp_file "cli_errors" ".profile" in
  check_saves "solve: double-oracle saves a subgraph profile"
    [ "solve"; "--family"; "cycle:7"; "--game"; "subgraph"; "--lambda"; "2";
      "--method"; "double-oracle"; "--save"; saved ]
    ~file:saved ~prefix:"profile v2\ngame subgraph\n";
  Sys.remove saved;

  Sys.remove bogus_profile;
  if !failures > 0 then (
    Printf.printf "%d failure(s)\n" !failures;
    exit 1)
  else print_endline "all CLI error-path checks passed"
