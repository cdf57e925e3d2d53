(* The three daemon workloads, as pure functions of the seed.

   A workload is a priming set (solves sent once, before timing, to fill
   the daemon's cache) and one request sequence per client connection.
   Sequences grow on demand, but each element depends only on the seed
   and its position, so a run that gets further simply sees a longer
   prefix of the same sequence.  Every request names the reference it
   must be answered with ([ref_id], an index into [refs]); requests the
   daemon should answer from its cache name the priming request that
   filled the entry. *)

module J = Harness.Json
module Gen = Netgraph.Gen
module Graph = Netgraph.Graph
module G6 = Netgraph.Graph6
module Rng = Prng.Rng
open Util

type cls =
  | Ping
  | Stats
  | Cold  (** a solve the daemon has not seen: a worker computes it *)
  | Hit_same  (** a primed solve resent as identical bytes *)
  | Hit_relabel  (** a primed solve resent under a fresh relabeling *)
  | Profit
  | Check  (** equilibrium-check *)

let all_classes = [ Ping; Stats; Cold; Hit_same; Hit_relabel; Profit; Check ]

let cls_name = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Cold -> "solve-cold"
  | Hit_same -> "hit-same"
  | Hit_relabel -> "hit-relabel"
  | Profit -> "profit"
  | Check -> "check"

(* Requests the daemon parent answers without a worker. *)
let is_fast = function
  | Ping | Stats | Hit_same | Hit_relabel -> true
  | Cold | Profit | Check -> false

type req = {
  msg : J.t;  (** the request object, without its "id" *)
  cls : cls;
  ref_id : int;  (** index into [refs]; -1 for ping and stats *)
}

type t = {
  name : string;
  priming : req array;
  conns : (unit -> req) array;
      (** one stateful generator per connection, called in order *)
  refs : J.t Grow.t;
      (** the distinct requests whose in-process answers are the
          references; grows with the sequences *)
  slow : cls list;
      (** classes the client sleeps for (see [Client.run]); for every
          other class it polls for a bounded time *)
  trace_counts : int array;
      (** per-connection request count of a traced run *)
  prefill : int array;
      (** per-connection requests generated before timing starts *)
}

let names = [ "do-cold"; "hit-mix"; "canon-storm" ]

(* ---- request constructors ---------------------------------------- *)

let ping = { msg = J.Obj [ ("op", J.String "ping") ]; cls = Ping; ref_id = -1 }
let stats = { msg = J.Obj [ ("op", J.String "stats") ]; cls = Stats; ref_id = -1 }

type game = Tuple of int | Subgraph of int

let solve_msg ?(double_oracle = false) ~game ~nu g6 =
  let game_fields =
    match game with
    | Tuple k -> [ ("k", J.Int k) ]
    | Subgraph lambda -> [ ("game", J.String "subgraph"); ("lambda", J.Int lambda) ]
  in
  J.Obj
    ((("op", J.String "solve") :: ("graph6", J.String g6) :: game_fields)
    @ (("nu", J.Int nu)
      :: (if double_oracle then [ ("method", J.String "double-oracle") ] else [])
      ))

(* [msg] with its graph6 field replaced. *)
let with_graph6 msg g6 =
  match msg with
  | J.Obj fields ->
      J.Obj
        (List.map
           (fun (k, v) -> if k = "graph6" then (k, J.String g6) else (k, v))
           fields)
  | _ -> invalid_arg "with_graph6"

let graph6_of msg =
  match J.member "graph6" msg with
  | Some (J.String s) -> s
  | _ -> invalid_arg "graph6_of"

let relabel rng g =
  let n = Graph.n g in
  let perm = Array.init n Fun.id in
  Rng.shuffle_in_place rng perm;
  Graph.make ~n
    (Array.to_list
       (Array.map
          (fun (e : Graph.edge) -> (perm.(e.u), perm.(e.v)))
          (Graph.edges g)))

let add_ref refs msg =
  Grow.push refs msg;
  Grow.length refs - 1

(* A solve the generator may only emit once: its key must be new.  The
   key is what the daemon's cache key is made of, the canonical form of
   the graph and every other field, so "new key" is "cache miss" (the
   run checks that the daemon agrees).  It is computed here with
   [Graph6.canonical] itself, not with [Daemon_service.cache_key]: that
   one fills the service's bytes -> canonical memo, and the replay, which
   builds the workload again, would then time [cache_key] on memo hits
   where the daemon canonicalized. *)
let fresh_key seen msg =
  let key =
    match msg with
    | J.Obj fields ->
        G6.canonical (G6.decode (graph6_of msg))
        ^ J.to_string (J.Obj (List.filter (fun (k, _) -> k <> "graph6") fields))
    | _ -> invalid_arg "Spec.fresh_key"
  in
  (not (Hashtbl.mem seen key))
  && begin
       Hashtbl.replace seen key ();
       true
     end

let rec regular3 rng n =
  let g = Gen.random_regular rng ~n ~d:3 in
  if Netgraph.Props.is_valid_instance g then g else regular3 rng n

(* ---- do-cold ----------------------------------------------------- *)

(* Distinct double-oracle solves on 12-20 vertex graphs.  Family and
   game parameters follow a fixed 40-slot rotation (families vary
   fastest) so every seed gets the same mix and only the graphs are
   random; that keeps throughput comparable across seeds. *)
let do_families = [| `Gnp; `Reg3; `Pa; `Gnp; `Pa; `Reg3; `Gnp; `Grid |]
let do_games = [| Tuple 1; Tuple 2; Tuple 3; Subgraph 2; Subgraph 3 |]
let grids = [| (3, 4); (3, 5); (4, 4); (3, 6); (2, 7); (2, 8); (2, 9); (2, 10); (4, 5) |]

let do_graph rng family ~n =
  match family with
  | `Gnp -> Gen.gnp_connected rng ~n ~p:0.25
  | `Reg3 -> regular3 rng (n land lnot 1)
  | `Pa -> Gen.preferential_attachment rng ~n ~c:2
  | `Grid ->
      let r, c = Rng.choose rng grids in
      Gen.grid r c

let do_cold seed =
  let refs = Grow.create () in
  let seen = Hashtbl.create 1024 in
  (* Slot [i]'s solve, drawn until the key is new; a slot whose family
     has run out of new instances (the grids are few) falls back to a
     random graph. *)
  let draw rng i =
    let rec go tries =
      let family = if tries > 50 then `Gnp else do_families.(i mod 8) in
      let game = do_games.(i / 8 mod 5) in
      let nu = Rng.int_in_range rng ~lo:1 ~hi:3 in
      (* The size cycles too, one step per 40-slot round. *)
      let g6 = G6.encode (do_graph rng family ~n:(12 + (i / 40 mod 9))) in
      let msg = solve_msg ~double_oracle:true ~game ~nu g6 in
      if fresh_key seen msg then { msg; cls = Cold; ref_id = add_ref refs msg } else go (tries + 1)
    in
    go 0
  in
  (* The priming set is one 40-slot round drawn from a fixed seed, the
     same for every workload seed, and never asked again.  It gives
     set-up the solver work a warm daemon has behind it: launch to first
     pong alone is about 4 ms, within the noise of the machine. *)
  let fixed = Rng.create 0 in
  let priming = Array.init 40 (draw fixed) in
  let rng = Rng.create seed in
  let stream = Grow.create () in
  let solve j =
    while Grow.length stream <= j do
      Grow.push stream (draw rng (Grow.length stream))
    done;
    Grow.get stream j
  in
  (* Connection A takes the even solves; connection B alternates a ping
     with the odd solves, so pings are half its requests. *)
  let a = ref 0 and b = ref 0 in
  let conn_a () =
    let j = !a in
    incr a;
    solve (2 * j)
  in
  let conn_b () =
    let j = !b in
    incr b;
    if j mod 2 = 0 then ping else solve ((2 * (j / 2)) + 1)
  in
  {
    name = "do-cold";
    priming;
    conns = [| conn_a; conn_b |];
    refs;
    slow = [ Cold ];
    trace_counts = [| 50; 100 |];
    prefill = [| 1000; 2000 |];
  }

(* ---- priming sets ------------------------------------------------ *)

(* Prime [specs] (graph, game, nu, double-oracle?) as cold solves,
   skipping any whose cache key repeats an earlier one. *)
let prime refs specs =
  let seen = Hashtbl.create 256 in
  List.filter_map
    (fun (g, game, nu, double_oracle) ->
      let msg = solve_msg ~double_oracle ~game ~nu (G6.encode g) in
      if fresh_key seen msg then
        Some ({ msg; cls = Cold; ref_id = add_ref refs msg }, g)
      else None)
    specs
  |> Array.of_list

(* ---- hit-mix ----------------------------------------------------- *)

(* Typical graphs of 10-30 vertices for the working set.  Preferential
   attachment uses c = 2: at c = 1 it grows trees with many sibling
   leaves, whose canonicalization costs 0.05-1.4 s each; canon-storm
   carries one such tree instead. *)
let typical_graph rng i =
  (* Sizes follow a fixed cycle per family, so only the graphs' structure
     is random and every seed gets the same size mix. *)
  let size lo hi = lo + (i / 6 mod (hi - lo + 1)) in
  match i mod 6 with
  | 0 -> Gen.gnp_connected rng ~n:(size 12 30) ~p:0.2
  | 1 -> Gen.preferential_attachment rng ~n:(size 12 30) ~c:2
  | 2 -> Gen.random_tree rng ~n:(size 10 30)
  | 3 -> Gen.grid (3 + (i / 6 mod 4)) (4 + (i / 24 mod 5))
  | 4 -> regular3 rng (2 * size 6 12)
  | _ -> Gen.random_bipartite rng ~a:(size 4 10) ~b:(size 4 10) ~p:0.3

(* Label-dependent requests: a profile computed by the characterization
   solver on a small graph, evaluated (profit) or re-verified
   (equilibrium-check).  The daemon never caches them. *)
let labelled_requests rng refs count =
  let out = ref [] in
  let i = ref 0 in
  while List.length !out < count do
    let g =
      match !i mod 4 with
      | 0 -> Gen.random_tree rng ~n:(Rng.int_in_range rng ~lo:6 ~hi:10)
      | 1 -> Gen.cycle (2 * Rng.int_in_range rng ~lo:3 ~hi:5)
      | 2 -> Gen.grid 2 (Rng.int_in_range rng ~lo:3 ~hi:5)
      | _ -> Gen.path (Rng.int_in_range rng ~lo:5 ~hi:10)
    in
    let k = 1 + Rng.int rng 2 and nu = 1 + Rng.int rng 3 in
    (match Defender.Tuple_nash.a_tuple_auto (Defender.Model.make ~graph:g ~nu ~k) with
    | Error _ -> ()
    | Ok prof ->
        let base =
          [
            ("graph6", J.String (G6.encode g));
            ("k", J.Int k);
            ("nu", J.Int nu);
            ("profile", J.String (Defender.Profile_io.to_string prof));
          ]
        in
        let cls, msg =
          if !i mod 2 = 0 then (Profit, J.Obj (("op", J.String "profit") :: base))
          else
            ( Check,
              J.Obj
                ((("op", J.String "equilibrium-check") :: base)
                @ [ ("mode", J.String (if !i mod 4 = 1 then "oracle" else "certificate")) ]) )
        in
        out := { msg; cls; ref_id = add_ref refs msg } :: !out);
    incr i
  done;
  Array.of_list (List.rev !out)

(* One 20-request pattern per connection: 8 identical-byte resends, 5
   relabeled resends, 3 label-dependent requests, 3 pings, 1 stats. *)
type hit_slot = Same | Relabel | Labelled | P | S

let hit_pattern =
  [| Same; Relabel; Same; P; Same; Labelled; Relabel; Same; Labelled; Same;
     Relabel; P; Same; S; Relabel; Same; Labelled; Relabel; Same; P |]

let hit_mix seed =
  let rng = Rng.create seed in
  let refs = Grow.create () in
  let specs =
    List.init 220 (fun i ->
        if i mod 10 = 9 then
          (* A tenth of the working set is double-oracle on small graphs. *)
          let g = Gen.gnp_connected rng ~n:(Rng.int_in_range rng ~lo:10 ~hi:13) ~p:0.3 in
          let game = if i mod 20 = 9 then Tuple (1 + Rng.int rng 2) else Subgraph 2 in
          (g, game, 1 + Rng.int rng 3, true)
        else (typical_graph rng i, Tuple (1 + Rng.int rng 3), 1 + Rng.int rng 3, false))
  in
  let primed = prime refs specs in
  let primed = Array.sub primed 0 (min 200 (Array.length primed)) in
  let labelled = labelled_requests rng refs 32 in
  let conn c =
    let rng = Rng.create ((seed * 7919) + c + 1) in
    let j = ref 0 in
    fun () ->
      let slot = hit_pattern.(!j mod Array.length hit_pattern) in
      incr j;
      match slot with
      | P -> ping
      | S -> stats
      | Labelled -> Rng.choose rng labelled
      | Same ->
          let r, _ = Rng.choose rng primed in
          { r with cls = Hit_same }
      | Relabel ->
          let r, g = Rng.choose rng primed in
          { r with msg = with_graph6 r.msg (G6.encode (relabel rng g)); cls = Hit_relabel }
  in
  {
    name = "hit-mix";
    priming = Array.map fst primed;
    conns = [| conn 0; conn 1 |];
    refs;
    slow = [ Cold ];
    trace_counts = [| 1500; 1500 |];
    prefill = [| 60000; 60000 |];
  }

(* ---- canon-storm ------------------------------------------------- *)

(* Refinement-resistant graphs (regular, many automorphisms, or a tree
   with many sibling leaves), all with at most 32 vertices.  K4,4 is left
   out on purpose: it has only 35 distinct labelings, too few to keep
   every resend a byte-memo miss.  The tree is fixed, not drawn from the
   workload seed, because its cost varies by orders of magnitude between
   draws. *)
let storm_graphs rng =
  [
    Gen.preferential_attachment (Rng.create 1) ~n:20 ~c:1;
    Gen.hypercube 4;
    Gen.petersen ();
    Gen.cycle 16;
    Gen.cycle 24;
    Gen.cycle 32;
    regular3 rng 20;
    regular3 rng 24;
    regular3 rng 28;
    regular3 rng 32;
  ]

let canon_storm seed =
  let rng = Rng.create seed in
  let refs = Grow.create () in
  let graphs = Array.of_list (storm_graphs rng) in
  let specs =
    List.concat_map
      (fun g -> [ (g, Tuple 1, 1, false); (g, Tuple 2, 2, false) ])
      (Array.to_list graphs)
    (* The ROADMAP's fixed double-oracle instance, primed so the solver
       layers also report here. *)
    @ [ (Gen.petersen (), Tuple 2, 1, true) ]
  in
  let primed = prime refs specs in
  (* Relabelings must be bytes the daemon has never seen, so each is a
     byte-memo miss and pays a canonicalization in the parent. *)
  let seen = Hashtbl.create 4096 in
  Array.iter (fun (r, _) -> Hashtbl.replace seen (graph6_of r.msg) ()) primed;
  let rng_a = Rng.create ((seed * 7919) + 1) in
  let a = ref 0 in
  let conn_a () =
    let r, g = primed.(!a mod Array.length primed) in
    incr a;
    let rec fresh () =
      let g6 = G6.encode (relabel rng_a g) in
      if Hashtbl.mem seen g6 then fresh ()
      else begin
        Hashtbl.replace seen g6 ();
        g6
      end
    in
    { r with msg = with_graph6 r.msg (fresh ()); cls = Hit_relabel }
  in
  let rng_b = Rng.create ((seed * 7919) + 2) in
  let b = ref 0 in
  let conn_b () =
    incr b;
    if !b mod 2 = 1 then ping
    else
      let r, _ = Rng.choose rng_b primed in
      { r with cls = Hit_same }
  in
  {
    name = "canon-storm";
    priming = Array.map fst primed;
    conns = [| conn_a; conn_b |];
    refs;
    (* Relabelings of these graphs take 3 ms at the median and 30 ms at
       the 99th percentile. *)
    slow = [ Cold; Hit_relabel ];
    trace_counts = [| 150; 300 |];
    prefill = [| 6000; 16000 |];
  }

(* ---- framing requests --------------------------------------------- *)

let payload r id =
  match r.msg with
  | J.Obj fields -> J.to_string (J.Obj (("id", J.Int id) :: fields))
  | _ -> invalid_arg "Spec.payload"

(* The requests a run sends outside the workload proper: the set-up
   ping, the closing stats and the shutdown. *)
let ping_payload = payload ping (-1)
let stats_payload = payload stats (-2)
let shutdown_payload = J.to_string (J.Obj [ ("id", J.Int (-3)); ("op", J.String "shutdown") ])

(* Memoized connection sequences: [get c i] is connection [c]'s [i]-th
   request with its payload, generated on first use. *)
let sequences w =
  let seqs = Array.map (fun _ -> Grow.create ()) w.conns in
  fun c i ->
    let s = seqs.(c) in
    while Grow.length s <= i do
      let r = w.conns.(c) () in
      Grow.push s (r, payload r (Grow.length s))
    done;
    Grow.get s i

let make name seed =
  match name with
  | "do-cold" -> do_cold seed
  | "hit-mix" -> hit_mix seed
  | "canon-storm" -> canon_storm seed
  | other -> invalid_arg (Printf.sprintf "unknown workload %S" other)
