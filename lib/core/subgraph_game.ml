(* The connected-subgraph defender (Akrida et al., arXiv:1906.02774) as
   a GAME instance: ν vertex players and one defender choosing a
   λ-vertex connected induced subgraph.  An attacker is caught iff it
   sits on one of the λ chosen vertices, so [covered] is the strategy
   itself; the price of defense on this variant is at least n/λ, with
   equality on vertex-transitive families (cycles), which experiment
   family S reproduces. *)

open Netgraph
module Q = Exact.Q

let name = "subgraph"

type instance = { graph : Graph.t; nu : int; lambda : int }

let make ~graph ~nu ~lambda =
  if not (Props.is_valid_instance graph) then
    invalid_arg
      "Subgraph_game.make: instance graph must be connected, have no \
       isolated vertices, and at least two vertices";
  if nu < 1 then
    invalid_arg "Subgraph_game.make: need at least one vertex player";
  if lambda < 1 || lambda > Graph.n graph then
    invalid_arg
      (Printf.sprintf "Subgraph_game.make: lambda = %d outside [1, n = %d]"
         lambda (Graph.n graph));
  { graph; nu; lambda }

module Strategy = struct
  type t = Graph.vertex array
  (* sorted, distinct, inducing a connected subgraph *)

  let compare = Stdlib.compare
  let equal a b = Stdlib.compare a b = 0

  let pp fmt t =
    Format.fprintf fmt "{%s}"
      (String.concat "," (List.map string_of_int (Array.to_list t)))

  let to_ints = Array.to_list
end

let graph inst = inst.graph
let nu inst = inst.nu
let lambda inst = inst.lambda
let params inst = [ ("nu", inst.nu); ("lambda", inst.lambda) ]

let pp_instance fmt inst =
  Format.fprintf fmt "Sigma_%d(G[n=%d,m=%d], nu=%d)" inst.lambda
    (Graph.n inst.graph) (Graph.m inst.graph) inst.nu

let of_list g vs =
  if vs = [] then invalid_arg "Subgraph_game: empty vertex set";
  let sorted = List.sort_uniq Int.compare vs in
  if List.length sorted <> List.length vs then
    invalid_arg "Subgraph_game: duplicate vertex in subgraph";
  List.iter
    (fun v ->
      if v < 0 || v >= Graph.n g then
        invalid_arg
          (Printf.sprintf "Subgraph_game: vertex %d out of range" v))
    sorted;
  if not (Induced.is_connected_subset g sorted) then
    invalid_arg "Subgraph_game: vertex set does not induce a connected subgraph";
  Array.of_list sorted

let validate inst s =
  if Array.length s <> inst.lambda then
    invalid_arg
      (Printf.sprintf "Profile: subgraph size %d, expected lambda = %d"
         (Array.length s) inst.lambda);
  if not (Induced.is_connected_subset inst.graph (Array.to_list s)) then
    invalid_arg "Profile: defender subgraph not connected"

let strategy_of_ints inst ids = of_list inst.graph ids
let covered _inst s = Array.to_list s

let covers _inst s v =
  (* sorted array: binary search *)
  let rec search lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if s.(mid) = v then true
      else if s.(mid) < v then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length s)

let fold_strategies inst ~init ~f =
  Induced.fold_connected_subsets inst.graph ~size:inst.lambda ~init
    ~f:(fun acc vs -> f acc (Array.of_list vs))

let space_size_within inst ~limit =
  Induced.count_connected_subsets inst.graph ~size:inst.lambda ~limit

(* Certificate bound: the defender covers exactly lambda vertices, so no
   strategy beats the sum of the lambda largest vertex loads. *)
let value_upper_bound inst ~load ~edge_load:_ =
  let loads =
    List.init (Graph.n inst.graph) load |> List.sort (fun a b -> Q.compare b a)
  in
  let rec take i acc = function
    | [] -> acc
    | _ when i = inst.lambda -> acc
    | l :: rest -> take (i + 1) (Q.add acc l) rest
  in
  take 0 Q.zero loads

(* Exact weighted best response by enumeration: connectivity couples the
   choices, so unlike the tuple game there is no useful prefix bound —
   walk every connected λ-subset (the same reverse-search enumeration
   [fold_strategies] uses) and keep the first maximum.  Exactness is
   what the double-oracle loop's certificate rests on; the enumeration
   price is the price of the subgraph variant at this λ. *)
let best_response_weighted inst ~weight =
  if Array.length weight <> Graph.n inst.graph then
    invalid_arg "Subgraph_game.best_response_weighted: |weight| <> n";
  let value s =
    Array.fold_left (fun acc v -> Q.add acc weight.(v)) Q.zero s
  in
  let best =
    fold_strategies inst ~init:None ~f:(fun acc s ->
        let v = value s in
        match acc with
        | Some (_, bv) when Q.( >= ) bv v -> acc
        | _ -> Some (s, v))
  in
  match best with
  | Some (s, _) -> s
  | None -> assert false (* instance graphs are connected and λ <= n *)

(* [v] touches the current set iff some CSR-row neighbor is marked;
   scanned without copying the row, bailing at the first hit. *)
let touches_set g in_set v =
  try
    Graph.iter_neighbors g v ~f:(fun u -> if in_set.(u) then raise Exit);
    false
  with Exit -> true

(* Greedy connected growth: start from [start] and repeatedly absorb
   the frontier vertex (adjacent to the current set) with the best
   score, lowest id on ties.  The instance graph is connected, so the
   frontier stays non-empty until the set covers everything. *)
let grow inst ~score ~start =
  let g = inst.graph in
  let n = Graph.n g in
  let in_set = Array.make n false in
  in_set.(start) <- true;
  let members = ref [ start ] in
  for _ = 2 to inst.lambda do
    let best = ref (-1) in
    for v = 0 to n - 1 do
      if
        (not in_set.(v))
        && touches_set g in_set v
        && (!best < 0 || score v > score !best)
      then best := v
    done;
    in_set.(!best) <- true;
    members := !best :: !members
  done;
  Array.of_list (List.sort Int.compare !members)

let argmax_vertex n score =
  let best = ref 0 in
  for v = 1 to n - 1 do
    if score v > score !best then best := v
  done;
  !best

let greedy_response inst ~load =
  let score v = load.(v) in
  grow inst ~score ~start:(argmax_vertex (Graph.n inst.graph) score)

(* Coverage is always exactly lambda vertices, so the coverage
   tie-break adds nothing here. *)
let greedy_coverage_response = greedy_response

let greedy_by_counts inst ~counts = greedy_response inst ~load:counts

let random_strategy inst rng =
  let g = inst.graph in
  let n = Graph.n g in
  let in_set = Array.make n false in
  let start = Prng.Rng.int rng n in
  in_set.(start) <- true;
  let members = ref [ start ] in
  for _ = 2 to inst.lambda do
    let frontier = ref [] in
    for v = n - 1 downto 0 do
      if
        (not in_set.(v))
        && touches_set g in_set v
      then frontier := v :: !frontier
    done;
    let frontier = Array.of_list !frontier in
    let v = frontier.(Prng.Rng.int rng (Array.length frontier)) in
    in_set.(v) <- true;
    members := v :: !members
  done;
  Array.of_list (List.sort Int.compare !members)

(* Deterministic rotation: anchor at [round mod n], then grow toward
   the lowest-id frontier vertices. *)
let round_robin inst ~round =
  let n = Graph.n inst.graph in
  grow inst ~score:(fun v -> -v) ~start:(round mod n)

let scan_slots inst = Graph.n inst.graph
let scan_slot_ids _inst s = Array.to_list s
