(* The defender instantiation of Harness.Daemon: request vocabulary,
   cache key, and the worker-side handler.  See daemon_service.mli. *)

module Json = Harness.Json
module E = Defender.Tuple_instance.Engine

let get_string key msg =
  match Json.member key msg with
  | Some (Json.String s) -> Some s
  | _ -> None

let get_int ?default key msg =
  match Json.member key msg with
  | Some (Json.Int i) -> i
  | Some _ -> invalid_arg (Printf.sprintf "field %S must be an integer" key)
  | None -> (
      match default with
      | Some d -> d
      | None -> invalid_arg (Printf.sprintf "missing integer field %S" key))

(* The graph6 field, refused before any decode when it is a sparse6
   line declaring more than 6 vertices per byte: decoding allocates in
   proportion to the declared count, so a 9-byte line declaring 10^9
   vertices would take gigabytes.  No valid instance is refused: both
   games need an edge at every vertex, so m >= n/2, and each sparse6
   edge costs at least 2 bits, so n <= 2m <= 6 x (data bytes) <= 6 x
   (line bytes).  The parent's cache key and the workers' decode both
   read the graph through here. *)
let graph6_of msg =
  match get_string "graph6" msg with
  | None -> invalid_arg "missing string field \"graph6\""
  | Some s ->
      if
        String.starts_with ~prefix:":" s
        && Netgraph.Graph6.order s > 6 * String.length s
      then
        invalid_arg "sparse6 line declares more than 6 vertices per byte"
      else s

let get_graph msg = Netgraph.Graph6.decode (graph6_of msg)

let get_game msg =
  match get_string "game" msg with
  | None | Some "tuple" -> `Tuple
  | Some "subgraph" -> `Subgraph
  | Some other -> invalid_arg (Printf.sprintf "unknown game %S" other)

let get_method msg =
  match get_string "method" msg with
  | None | Some "characterization" -> `Characterization
  | Some "double-oracle" -> `Double_oracle
  | Some other -> invalid_arg (Printf.sprintf "unknown solve method %S" other)

(* The solve cache key: canonical form of the graph plus every parameter
   the answer depends on.  Solve only — its result payload is built
   exclusively from isomorphism-invariant quantities (gain, escape
   probability, rho, a verdict), so two relabelings of one graph may
   share the entry.  profit and equilibrium-check take a profile written
   in the client's labeling; their answers are label-dependent, so they
   must never be cached under a label-erasing key.

   Canonicalization is the expensive part of the key, and clients
   overwhelmingly resend the graph as the same graph6 bytes — so the
   bytes-to-canonical mapping is memoized in its own small LRU.  This is
   sound because equal graph6 strings decode to the identical graph.  A
   relabeled resend misses the memo and pays one canonicalization, then
   lands on the same solve-cache entry.

   A graph no solve accepts (Model.make and Subgraph_game.make both
   demand a valid instance) gets no key: a miss checks validity, one
   O(n + m) pass, before it canonicalizes, so a large disconnected or
   isolated-vertex line never reaches the search in the parent. *)
let canon_memo : string Harness.Lru.t = Harness.Lru.create 4096

let canonical_of g6 =
  match Harness.Lru.find canon_memo g6 with
  | Some c -> c
  | None ->
      let g = Netgraph.Graph6.decode g6 in
      if not (Netgraph.Props.is_valid_instance g) then
        invalid_arg "cache_key: not a valid instance";
      let c = Netgraph.Graph6.canonical g in
      Harness.Lru.add canon_memo g6 c;
      c

let cache_key msg =
  match get_string "op" msg with
  | Some "solve" -> (
      try
        let g6 = graph6_of msg in
        let game, power =
          match get_game msg with
          | `Tuple -> ("tuple", get_int "k" msg ~default:1)
          | `Subgraph -> ("subgraph", get_int "lambda" msg ~default:1)
        in
        (* The method joins the key only for double-oracle, so every key
           minted before the method field existed stays valid — a
           characterization solve hits the same entry whether or not the
           client spells out the default. *)
        let method_suffix =
          match get_method msg with
          | `Characterization -> ""
          | `Double_oracle -> "|method=double-oracle"
        in
        Some
          (Printf.sprintf "%s|game=%s|p=%d|nu=%d%s" (canonical_of g6) game
             power
             (get_int "nu" msg ~default:1)
             method_suffix)
      with Invalid_argument _ -> None)
  | _ -> None

let ok result = Json.Obj [ ("ok", Json.Bool true); ("result", result) ]
let error msg = Json.Obj [ ("ok", Json.Bool false); ("error", Json.String msg) ]

let q_string q = Json.String (Exact.Q.to_string q)

let model_of msg g =
  Defender.Model.make ~graph:g ~nu:(get_int "nu" msg ~default:1)
    ~k:(get_int "k" msg ~default:1)

let profile_of msg m =
  match get_string "profile" msg with
  | Some text -> E.Io.of_string m text
  | None -> invalid_arg "missing string field \"profile\""

(* The double-oracle solve payload of either game carries only
   isomorphism-invariant quantities (value, gain, escape, the game's
   [extra] fields, a verdict) — NEVER the iteration or column counts,
   which depend on vertex labels through the seed strategy and the
   oracle's tie-breaking and would poison the label-erasing cache key. *)
module Double_oracle_payload (G : Defender.Game.S) = struct
  module DO = Solver.Double_oracle.Make (G)
  module Engine = Defender.Game_engine.Make (G)

  let solve inst ~extra =
    let r = DO.solve inst in
    let prof = DO.profile inst r in
    ok
      (Json.Obj
         ([
            ("solvable", Json.Bool true);
            ("value", q_string r.DO.value);
            ("gain", q_string (Exact.Q.mul_int r.DO.value (G.nu inst)));
            ("escape", q_string (Exact.Q.sub Exact.Q.one r.DO.value));
          ]
         @ extra
         @ [
             ( "verdict",
               Json.String
                 (Engine.Verify.verdict_to_string
                    (Engine.Verify.mixed_ne Engine.Verify.Oracle prof)) );
           ]))
end

module Tuple_payload = Double_oracle_payload (Defender.Tuple_game)
module Subgraph_payload = Double_oracle_payload (Defender.Subgraph_game)

let solve msg =
  let g = get_graph msg in
  match (get_method msg, get_game msg) with
  | `Double_oracle, `Tuple ->
      (* The model validates the graph first: rho raises its own error
         on an isolated vertex. *)
      let m = model_of msg g in
      Tuple_payload.solve m
        ~extra:[ ("rho", Json.Int (Matching.Edge_cover.rho g)) ]
  | `Double_oracle, `Subgraph ->
      Subgraph_payload.solve ~extra:[]
        (Defender.Subgraph_game.make ~graph:g
           ~nu:(get_int "nu" msg ~default:1)
           ~lambda:(get_int "lambda" msg ~default:1))
  | `Characterization, `Subgraph ->
      invalid_arg
        "solve supports the tuple game only (no subgraph characterization); \
         use \"method\":\"double-oracle\""
  | `Characterization, `Tuple -> (
      let m = model_of msg g in
      match Defender.Tuple_nash.a_tuple_auto m with
      | Error reason ->
          (* A negative answer is still an isomorphism-invariant fact
             about the instance — cacheable, hence inside the ok
             envelope. *)
          ok
            (Json.Obj
               [ ("solvable", Json.Bool false); ("reason", Json.String reason) ])
      | Ok prof ->
          ok
            (Json.Obj
               [
                 ("solvable", Json.Bool true);
                 ("gain", q_string (Defender.Gain.defender_gain prof));
                 ("escape", q_string (Defender.Gain.escape_probability prof 0));
                 ("rho", Json.Int (Matching.Edge_cover.rho g));
                 ( "verdict",
                   Json.String
                     (E.Verify.verdict_to_string
                        (E.Verify.mixed_ne E.Verify.Certificate
                           prof)) );
               ]))

let profit msg =
  let g = get_graph msg in
  let m = model_of msg g in
  let prof = profile_of msg m in
  let nu = get_int "nu" msg ~default:1 in
  ok
    (Json.Obj
       [
         ("gain", q_string (Defender.Gain.defender_gain prof));
         ( "escape",
           Json.List
             (List.init nu (fun i ->
                  q_string (Defender.Gain.escape_probability prof i))) );
       ])

let equilibrium_check msg =
  let g = get_graph msg in
  let m = model_of msg g in
  let prof = profile_of msg m in
  let mode =
    match get_string "mode" msg with
    | None | Some "certificate" -> E.Verify.Certificate
    | Some "exhaustive" -> E.Verify.Exhaustive
    | Some "oracle" -> E.Verify.Oracle
    | Some other -> invalid_arg (Printf.sprintf "unknown verify mode %S" other)
  in
  let verdict = E.Verify.mixed_ne mode prof in
  ok
    (Json.Obj
       [
         ("confirmed", Json.Bool (E.Verify.verdict_is_confirmed verdict));
         ("verdict", Json.String (E.Verify.verdict_to_string verdict));
       ])

(* Total: every failure becomes an {"ok":false} payload.  An exception
   escaping here would cost a worker respawn and a retry that must fail
   identically — pure waste for what is always a bad-input condition. *)
let describe = function
  | Invalid_argument msg | Failure msg | Sys_error msg -> msg
  | e -> Printexc.to_string e

let handle msg =
  match get_string "op" msg with
  | Some "solve" -> ( try solve msg with e -> error (describe e))
  | Some "profit" -> ( try profit msg with e -> error (describe e))
  | Some "equilibrium-check" -> (
      try equilibrium_check msg with e -> error (describe e))
  | Some other -> error (Printf.sprintf "unknown op %S" other)
  | None -> error "request has no \"op\" string"

let serve ~address ~workers ?timeout ?max_inflight ?cache_entries ?max_frame
    ?on_ready () =
  Harness.Daemon.serve ~address ~workers ?timeout ?max_inflight ?cache_entries
    ?max_frame ?on_ready ~cache_key handle
