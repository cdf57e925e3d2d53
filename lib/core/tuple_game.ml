(* The paper's game Π_k(G) as a GAME instance: ν vertex players and one
   defender choosing a k-edge tuple.  This module is instance #1 of the
   Game.S signature; Tuple_instance applies Game_engine.Make to it, and
   the results must stay byte-identical to the pre-functor tuple code —
   fold orders, tie-breaks, error strings must not drift.  Beyond the
   signature it carries the tuple-only greedy helpers (greedy_edges,
   tp_greedy_value). *)

open Netgraph
module Q = Exact.Q

let name = "tuple"

type instance = Model.t

module Strategy = struct
  type t = Tuple.t

  let compare = Tuple.compare
  let equal = Tuple.equal
  let pp = Tuple.pp
  let to_ints = Tuple.to_list
end

let graph = Model.graph
let nu = Model.nu
let params inst = [ ("nu", Model.nu inst); ("k", Model.k inst) ]
let pp_instance = Model.pp

let validate inst t =
  if Tuple.size t <> Model.k inst then
    invalid_arg
      (Printf.sprintf "Profile: tuple size %d, expected k = %d" (Tuple.size t)
         (Model.k inst))

let strategy_of_ints inst ids = Tuple.of_list (Model.graph inst) ids
let covered inst t = Tuple.vertices (Model.graph inst) t
let covers inst t v = Tuple.covers (Model.graph inst) t v

let fold_strategies inst ~init ~f =
  Tuple.fold_enumerate (Model.graph inst) ~k:(Model.k inst) ~init ~f

let space_size_within inst ~limit =
  match Model.tuple_space_size inst with
  | Some c when c <= limit -> Some c
  | Some _ | None -> None

(* Certificate bound: no k-tuple can cover more expected load than the
   sum of the k largest edge loads. *)
let value_upper_bound inst ~load:_ ~edge_load =
  let g = Model.graph inst in
  let k = Model.k inst in
  let loads =
    List.init (Graph.m g) edge_load |> List.sort (fun a b -> Q.compare b a)
  in
  let rec take i acc = function
    | [] -> acc
    | _ when i = k -> acc
    | l :: rest -> take (i + 1) (Q.add acc l) rest
  in
  take 0 Q.zero loads

(* Exact weighted best response: the k-edge tuple maximizing the summed
   weight of its covered vertices.  Weighted max coverage by k edges is
   NP-hard in general, so there is no polynomial shortcut; instead:
   depth-first branch-and-bound over edges sorted by endpoint weight sum
   (descending, id ascending to fix ties), bounding each subtree by the
   prefix sum of the best remaining edges — each counted with its full
   endpoint sum, an upper bound on its marginal gain.  A greedy
   incumbent seeds the search and only strict improvements replace it,
   so the answer is deterministic in (instance, weight). *)
let best_response_weighted inst ~weight =
  let g = Model.graph inst in
  let n = Graph.n g and m = Graph.m g and k = Model.k inst in
  if Array.length weight <> n then
    invalid_arg "Tuple_game.best_response_weighted: |weight| <> n";
  let ew =
    Array.init m (fun id ->
        let e = Graph.edge g id in
        Q.add weight.(e.Graph.u) weight.(e.Graph.v))
  in
  let order = Array.init m Fun.id in
  Array.sort
    (fun a b ->
      match Q.compare ew.(b) ew.(a) with 0 -> Int.compare a b | c -> c)
    order;
  let prefix = Array.make (m + 1) Q.zero in
  for i = 0 to m - 1 do
    prefix.(i + 1) <- Q.add prefix.(i) ew.(order.(i))
  done;
  let covered = Array.make n false in
  let mark_gain id =
    let e = Graph.edge g id in
    let gain =
      Q.add
        (if covered.(e.Graph.u) then Q.zero else weight.(e.Graph.u))
        (if covered.(e.Graph.v) then Q.zero else weight.(e.Graph.v))
    in
    covered.(e.Graph.u) <- true;
    covered.(e.Graph.v) <- true;
    gain
  in
  (* Greedy incumbent: k passes of best marginal gain, scanning in
     sorted order so the first maximum wins. *)
  let seed_picks = ref [] and seed_val = ref Q.zero in
  let chosen = Array.make m false in
  for _ = 1 to k do
    let best = ref (-1) and best_gain = ref Q.zero in
    for idx = 0 to m - 1 do
      let id = order.(idx) in
      if not chosen.(id) then begin
        let e = Graph.edge g id in
        let gain =
          Q.add
            (if covered.(e.Graph.u) then Q.zero else weight.(e.Graph.u))
            (if covered.(e.Graph.v) then Q.zero else weight.(e.Graph.v))
        in
        if !best < 0 || Q.( > ) gain !best_gain then begin
          best := id;
          best_gain := gain
        end
      end
    done;
    chosen.(!best) <- true;
    seed_val := Q.add !seed_val (mark_gain !best);
    seed_picks := !best :: !seed_picks
  done;
  Array.fill covered 0 n false;
  let best_picks = ref (List.rev !seed_picks) and best_val = ref !seed_val in
  let current = Array.make k 0 in
  let rec go pos taken value =
    if taken = k then begin
      if Q.( > ) value !best_val then begin
        best_val := value;
        best_picks := Array.to_list (Array.sub current 0 k)
      end
    end
    else if m - pos >= k - taken then begin
      let bound = Q.add value (Q.sub prefix.(pos + (k - taken)) prefix.(pos)) in
      if Q.( > ) bound !best_val then begin
        let id = order.(pos) in
        let e = Graph.edge g id in
        let u = e.Graph.u and v = e.Graph.v in
        let fresh_u = not covered.(u) and fresh_v = not covered.(v) in
        let gain =
          Q.add
            (if fresh_u then weight.(u) else Q.zero)
            (if fresh_v then weight.(v) else Q.zero)
        in
        current.(taken) <- id;
        if fresh_u then covered.(u) <- true;
        if fresh_v then covered.(v) <- true;
        go (pos + 1) (taken + 1) (Q.add value gain);
        if fresh_u then covered.(u) <- false;
        if fresh_v then covered.(v) <- false;
        go (pos + 1) taken value
      end
    end
  in
  go 0 0 Q.zero;
  Tuple.of_list g !best_picks

(* Greedy max-coverage response to integer vertex loads: k passes
   picking the edge with the best marginal covered load; shared by the
   sim loops.  [coverage_tie_break] additionally prefers edges covering
   more fresh vertices on equal gain — the tie-break best-response
   dynamics need. *)
let greedy_edges ?(coverage_tie_break = false) g k (load : int array) =
  let m = Graph.m g in
  if k < 1 || k > m then
    invalid_arg
      (Printf.sprintf "Tuple_game.greedy_response: k = %d outside [1, m = %d]"
         k m);
  let chosen = Array.make m false in
  let covered = Array.make (Graph.n g) false in
  let picks = ref [] in
  for _ = 1 to k do
    let best = ref (-1) and best_catch = ref (-1) and best_cover = ref (-1) in
    for id = 0 to m - 1 do
      if not chosen.(id) then begin
        let e = Graph.edge g id in
        let catch_gain =
          (if covered.(e.Graph.u) then 0 else load.(e.Graph.u))
          + if covered.(e.Graph.v) then 0 else load.(e.Graph.v)
        in
        let cover_gain =
          if not coverage_tie_break then 0
          else
            (if covered.(e.Graph.u) then 0 else 1)
            + if covered.(e.Graph.v) then 0 else 1
        in
        (* Lexicographic on (catch, cover), without a tuple or a
           polymorphic compare per edge. *)
        if
          catch_gain > !best_catch
          || (catch_gain = !best_catch && cover_gain > !best_cover)
        then begin
          best_catch := catch_gain;
          best_cover := cover_gain;
          best := id
        end
      end
    done;
    (* Guard: if no pick beat the sentinel (possible when a caller hands
       in degenerate, e.g. negative, loads), fall back to the lowest-id
       remaining edge instead of indexing with -1.  The k <= m guard
       above ensures a remaining edge exists. *)
    let pick =
      if !best >= 0 then !best
      else begin
        let id = ref 0 in
        while chosen.(!id) do incr id done;
        !id
      end
    in
    chosen.(pick) <- true;
    let e = Graph.edge g pick in
    covered.(e.Graph.u) <- true;
    covered.(e.Graph.v) <- true;
    picks := pick :: !picks
  done;
  Tuple.of_list g !picks

let greedy_response inst ~load =
  greedy_edges (Model.graph inst) (Model.k inst) load

(* Greedy max-coverage baseline on exact loads: the value of k passes
   picking the edge with the best marginal covered load, a lower bound
   on the defender's best-response value (the classic (1 - 1/e)
   heuristic, used in benchmarks).  [load v] is queried afresh on every
   gain evaluation; callers pass a profile's [expected_load], so a
   kernel or rescan profile sets the cost.  Counted separately from the
   engine's sweeps (B15 gates on br.* counters). *)
let c_tp_greedy_sweeps = Obs.counter "br.tp_greedy_sweeps"

let tp_greedy_value inst ~load =
  Obs.incr c_tp_greedy_sweeps;
  let g = Model.graph inst in
  let k = Model.k inst in
  let chosen = Array.make (Graph.m g) false in
  let covered = Array.make (Graph.n g) false in
  let gain id =
    let e = Graph.edge g id in
    let value_of v = if covered.(v) then Q.zero else load v in
    Q.add (value_of e.Graph.u) (value_of e.Graph.v)
  in
  let total = ref Q.zero in
  for _ = 1 to k do
    let best = ref None in
    for id = 0 to Graph.m g - 1 do
      if not chosen.(id) then
        let value = gain id in
        match !best with
        | Some (_, v) when Q.( >= ) v value -> ()
        | _ -> best := Some (id, value)
    done;
    match !best with
    | None -> ()
    | Some (id, value) ->
        chosen.(id) <- true;
        let e = Graph.edge g id in
        covered.(e.Graph.u) <- true;
        covered.(e.Graph.v) <- true;
        total := Q.add !total value
  done;
  !total

let greedy_coverage_response inst ~load =
  greedy_edges ~coverage_tie_break:true (Model.graph inst) (Model.k inst) load

(* The workload greedy policy: the k globally hottest edges by endpoint
   attack counts (not marginal gain — historical policy behavior). *)
let greedy_by_counts inst ~counts =
  let g = Model.graph inst in
  let score id =
    let e = Graph.edge g id in
    counts.(e.Graph.u) + counts.(e.Graph.v)
  in
  let ids = Array.init (Graph.m g) Fun.id in
  Array.sort (fun a b -> Int.compare (score b) (score a)) ids;
  Tuple.of_list g (Array.to_list (Array.sub ids 0 (Model.k inst)))

let random_strategy inst rng =
  let g = Model.graph inst in
  let ids = Array.init (Graph.m g) Fun.id in
  let sample =
    Prng.Rng.sample_without_replacement rng ~count:(Model.k inst) ids
  in
  Tuple.of_list g (Array.to_list sample)

let round_robin inst ~round =
  let g = Model.graph inst in
  let m = Graph.m g and k = Model.k inst in
  let start = round * k mod m in
  Tuple.of_list g (List.init k (fun i -> (start + i) mod m))

let scan_slots inst = Graph.m (Model.graph inst)
let scan_slot_ids _inst t = Tuple.to_list t
