module Rng = Prng.Rng

let path n =
  if n < 2 then invalid_arg "Gen.path: need n >= 2";
  Graph.make ~n (List.init (n - 1) (fun i -> (i, i + 1)))

let cycle n =
  if n < 3 then invalid_arg "Gen.cycle: need n >= 3";
  Graph.make ~n (List.init n (fun i -> (i, (i + 1) mod n)))

let star n =
  if n < 2 then invalid_arg "Gen.star: need n >= 2";
  Graph.make ~n (List.init (n - 1) (fun i -> (0, i + 1)))

let complete n =
  if n < 2 then invalid_arg "Gen.complete: need n >= 2";
  let edges = ref [] in
  for u = 0 to n - 2 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.make ~n !edges

let complete_bipartite a b =
  if a < 1 || b < 1 then invalid_arg "Gen.complete_bipartite: need positive sides";
  let edges = ref [] in
  for u = 0 to a - 1 do
    for v = a to a + b - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.make ~n:(a + b) !edges

let grid rows cols =
  if rows < 1 || cols < 1 || rows * cols < 2 then
    invalid_arg "Gen.grid: need positive dimensions and >= 2 vertices";
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (id r c, id r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (id r c, id (r + 1) c) :: !edges
    done
  done;
  Graph.make ~n:(rows * cols) !edges

let hypercube d =
  if d < 1 then invalid_arg "Gen.hypercube: need d >= 1";
  let n = 1 lsl d in
  let edges = ref [] in
  for v = 0 to n - 1 do
    for bit = 0 to d - 1 do
      let w = v lxor (1 lsl bit) in
      if v < w then edges := (v, w) :: !edges
    done
  done;
  Graph.make ~n !edges

let binary_tree depth =
  if depth < 1 then invalid_arg "Gen.binary_tree: need depth >= 1";
  let n = (1 lsl (depth + 1)) - 1 in
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := ((v - 1) / 2, v) :: !edges
  done;
  Graph.make ~n !edges

let check_p p = if p < 0.0 || p > 1.0 then invalid_arg "Gen: p outside [0,1]"

let gnp rng ~n ~p =
  if n < 1 then invalid_arg "Gen.gnp: need n >= 1";
  check_p p;
  let edges = ref [] in
  for u = 0 to n - 2 do
    for v = u + 1 to n - 1 do
      if Rng.bool_with_prob rng p then edges := (u, v) :: !edges
    done
  done;
  Graph.make ~n !edges

let random_tree rng ~n =
  if n < 2 then invalid_arg "Gen.random_tree: need n >= 2";
  if n = 2 then Graph.make ~n [ (0, 1) ]
  else begin
    (* Decode a uniformly random Prüfer sequence. *)
    let seq = Array.init (n - 2) (fun _ -> Rng.int rng n) in
    let deg = Array.make n 1 in
    Array.iter (fun v -> deg.(v) <- deg.(v) + 1) seq;
    let module Pq = Set.Make (Int) in
    let leaves = ref Pq.empty in
    for v = 0 to n - 1 do
      if deg.(v) = 1 then leaves := Pq.add v !leaves
    done;
    let edges = ref [] in
    Array.iter
      (fun v ->
        let leaf = Pq.min_elt !leaves in
        leaves := Pq.remove leaf !leaves;
        edges := (leaf, v) :: !edges;
        deg.(v) <- deg.(v) - 1;
        if deg.(v) = 1 then leaves := Pq.add v !leaves)
      seq;
    (match Pq.elements !leaves with
    | [ a; b ] -> edges := (a, b) :: !edges
    | _ -> assert false);
    Graph.make ~n !edges
  end

let gnp_connected rng ~n ~p =
  if n < 2 then invalid_arg "Gen.gnp_connected: need n >= 2";
  check_p p;
  let tree = random_tree rng ~n in
  let edges = ref (Array.to_list (Array.map (fun e -> (e.Graph.u, e.Graph.v)) (Graph.edges tree))) in
  for u = 0 to n - 2 do
    for v = u + 1 to n - 1 do
      if (not (Graph.is_adjacent tree u v)) && Rng.bool_with_prob rng p then
        edges := (u, v) :: !edges
    done
  done;
  Graph.make ~n !edges

let random_bipartite rng ~a ~b ~p =
  if a < 1 || b < 1 then invalid_arg "Gen.random_bipartite: need positive sides";
  check_p p;
  let n = a + b in
  let present = Hashtbl.create (a * b / 2) in
  let edges = ref [] in
  let add u v =
    if not (Hashtbl.mem present (u, v)) then begin
      Hashtbl.add present (u, v) ();
      edges := (u, v) :: !edges
    end
  in
  for u = 0 to a - 1 do
    for v = a to n - 1 do
      if Rng.bool_with_prob rng p then add u v
    done
  done;
  (* Connectivity repair: chain the sides with a random zig-zag so the
     bipartition stays intact. *)
  let left = Rng.shuffle rng (Array.init a (fun i -> i)) in
  let right = Rng.shuffle rng (Array.init b (fun i -> a + i)) in
  let steps = max a b in
  for i = 0 to steps - 1 do
    let u = left.(i mod a) and v = right.(i mod b) in
    add u v
  done;
  for i = 0 to steps - 2 do
    let u = left.((i + 1) mod a) and v = right.(i mod b) in
    add u v
  done;
  Graph.make ~n !edges

let random_regular rng ~n ~d =
  if d < 1 || d >= n then invalid_arg "Gen.random_regular: need 1 <= d < n";
  if n * d mod 2 = 1 then invalid_arg "Gen.random_regular: n * d must be even";
  (* Configuration model with restarts until the pairing is simple. *)
  let stubs = Array.make (n * d) 0 in
  for v = 0 to n - 1 do
    for i = 0 to d - 1 do
      stubs.((v * d) + i) <- v
    done
  done;
  let rec attempt tries =
    if tries > 5000 then failwith "Gen.random_regular: too many restarts";
    let perm = Rng.shuffle rng stubs in
    let seen = Hashtbl.create (n * d) in
    let ok = ref true in
    let edges = ref [] in
    let i = ref 0 in
    while !ok && !i < n * d do
      let u = perm.(!i) and v = perm.(!i + 1) in
      let key = (min u v, max u v) in
      if u = v || Hashtbl.mem seen key then ok := false
      else begin
        Hashtbl.add seen key ();
        edges := (u, v) :: !edges
      end;
      i := !i + 2
    done;
    if !ok then Graph.make ~n !edges else attempt (tries + 1)
  in
  attempt 0

let enterprise rng ~core ~leaves ~uplinks =
  if core < 1 then invalid_arg "Gen.enterprise: need core >= 1";
  if leaves < 0 then invalid_arg "Gen.enterprise: negative leaves";
  if uplinks < 1 || uplinks > core then
    invalid_arg "Gen.enterprise: uplinks must be in [1, core]";
  let n = core + leaves in
  let edges = ref [] in
  for u = 0 to core - 2 do
    for v = u + 1 to core - 1 do
      edges := (u, v) :: !edges
    done
  done;
  let core_ids = Array.init core (fun i -> i) in
  for leaf = core to n - 1 do
    let ups = Rng.sample_without_replacement rng ~count:uplinks core_ids in
    Array.iter (fun c -> edges := (c, leaf) :: !edges) ups
  done;
  if core = 1 && leaves = 0 then invalid_arg "Gen.enterprise: single isolated vertex";
  Graph.make ~n !edges

let wheel n =
  if n < 4 then invalid_arg "Gen.wheel: need n >= 4";
  let outer = n - 1 in
  let rim = List.init outer (fun i -> (1 + i, 1 + ((i + 1) mod outer))) in
  let spokes = List.init outer (fun i -> (0, 1 + i)) in
  Graph.make ~n (rim @ spokes)

let complete_multipartite parts =
  if List.length parts < 2 then
    invalid_arg "Gen.complete_multipartite: need at least two parts";
  List.iter
    (fun p -> if p < 1 then invalid_arg "Gen.complete_multipartite: empty part")
    parts;
  let n = List.fold_left ( + ) 0 parts in
  let part_of = Array.make n 0 in
  let _ =
    List.fold_left
      (fun (index, v) size ->
        for i = v to v + size - 1 do
          part_of.(i) <- index
        done;
        (index + 1, v + size))
      (0, 0) parts
  in
  let edges = ref [] in
  for u = 0 to n - 2 do
    for v = u + 1 to n - 1 do
      if part_of.(u) <> part_of.(v) then edges := (u, v) :: !edges
    done
  done;
  Graph.make ~n !edges

let clique_edges offset a =
  let edges = ref [] in
  for u = 0 to a - 2 do
    for v = u + 1 to a - 1 do
      edges := (offset + u, offset + v) :: !edges
    done
  done;
  !edges

let barbell a ~bridge =
  if a < 3 then invalid_arg "Gen.barbell: need cliques of size >= 3";
  if bridge < 0 then invalid_arg "Gen.barbell: negative bridge";
  let n = (2 * a) + bridge in
  let left = clique_edges 0 a and right = clique_edges (a + bridge) a in
  (* chain: last-left-vertex (a-1) — bridge vertices — first right vertex *)
  let chain =
    List.init (bridge + 1) (fun i -> (a - 1 + i, a + i))
  in
  Graph.make ~n (left @ right @ chain)

let lollipop a ~tail =
  if a < 3 then invalid_arg "Gen.lollipop: need clique of size >= 3";
  if tail < 1 then invalid_arg "Gen.lollipop: need tail >= 1";
  let n = a + tail in
  let path = List.init tail (fun i -> (a - 1 + i, a + i)) in
  Graph.make ~n (clique_edges 0 a @ path)

let caterpillar ~spine ~legs =
  if spine < 1 then invalid_arg "Gen.caterpillar: need spine >= 1";
  if legs < 0 then invalid_arg "Gen.caterpillar: negative legs";
  let n = spine * (1 + legs) in
  if n < 2 then invalid_arg "Gen.caterpillar: need at least two vertices";
  let spine_edges = List.init (spine - 1) (fun i -> (i, i + 1)) in
  let leg_edges =
    List.concat
      (List.init spine (fun s ->
           List.init legs (fun l -> (s, spine + (s * legs) + l))))
  in
  Graph.make ~n (spine_edges @ leg_edges)

let petersen () =
  let outer = List.init 5 (fun i -> (i, (i + 1) mod 5)) in
  let spokes = List.init 5 (fun i -> (i, i + 5)) in
  let inner = List.init 5 (fun i -> (5 + i, 5 + ((i + 2) mod 5))) in
  Graph.make ~n:10 (outer @ spokes @ inner)

let atlas_small () =
  [
    ("path-4", path 4);
    ("path-7", path 7);
    ("cycle-5", cycle 5);
    ("cycle-8", cycle 8);
    ("star-6", star 6);
    ("complete-4", complete 4);
    ("complete-5", complete 5);
    ("K(2,3)", complete_bipartite 2 3);
    ("K(3,3)", complete_bipartite 3 3);
    ("grid-2x3", grid 2 3);
    ("grid-3x3", grid 3 3);
    ("hypercube-3", hypercube 3);
    ("binary-tree-2", binary_tree 2);
    ("binary-tree-3", binary_tree 3);
    ("wheel-6", wheel 6);
    ("K(2,2,2)", complete_multipartite [ 2; 2; 2 ]);
    ("barbell-3", barbell 3 ~bridge:1);
    ("lollipop-4+3", lollipop 4 ~tail:3);
    ("caterpillar-3x2", caterpillar ~spine:3 ~legs:2);
    ("petersen", petersen ());
  ]

(* --- scalable generators (Builder-based, O(m), no quadratic scans) --- *)

let preferential_attachment rng ~n ~c =
  if n < 2 then invalid_arg "Gen.preferential_attachment: need n >= 2";
  if c < 1 then invalid_arg "Gen.preferential_attachment: need c >= 1";
  let total = ref 1 in
  for i = 2 to n - 1 do
    total := !total + min c i
  done;
  let b = Graph.Builder.create ~edges_hint:!total ~n () in
  (* Endpoint multiset: each vertex appears once per unit of degree, so
     a uniform draw from the prefix is a degree-proportional draw. *)
  let targets = Array.make (2 * !total) 0 in
  let tsize = ref 0 in
  let push v =
    targets.(!tsize) <- v;
    incr tsize
  in
  Graph.Builder.add_edge b 0 1;
  push 0;
  push 1;
  let chosen = Array.make (min c (n - 1)) (-1) in
  for i = 2 to n - 1 do
    let want = min c i in
    let cnt = ref 0 in
    while !cnt < want do
      let cand = targets.(Rng.int rng !tsize) in
      let dup = ref false in
      for j = 0 to !cnt - 1 do
        if chosen.(j) = cand then dup := true
      done;
      if not !dup then begin
        chosen.(!cnt) <- cand;
        incr cnt
      end
    done;
    for j = 0 to want - 1 do
      Graph.Builder.add_edge b chosen.(j) i;
      push chosen.(j);
      push i
    done
  done;
  Graph.Builder.finish b

let chung_lu rng ~n ~gamma ~avg_degree =
  if n < 1 then invalid_arg "Gen.chung_lu: need n >= 1";
  if gamma <= 2.0 then invalid_arg "Gen.chung_lu: need gamma > 2";
  if avg_degree <= 0.0 then invalid_arg "Gen.chung_lu: need avg_degree > 0";
  (* Power-law expected degrees w_i proportional to (i+1)^(-1/(gamma-1)),
     scaled to the requested mean and capped at sqrt(S) so that every
     pair probability w_u * w_v / S stays at most 1. *)
  let alpha = 1.0 /. (gamma -. 1.0) in
  let w = Array.init n (fun i -> float_of_int (i + 1) ** -.alpha) in
  let sum = Array.fold_left ( +. ) 0.0 w in
  let scale = avg_degree *. float_of_int n /. sum in
  let s = avg_degree *. float_of_int n in
  let cap = sqrt s in
  for i = 0 to n - 1 do
    w.(i) <- Float.min (w.(i) *. scale) cap
  done;
  (* Miller-Hagberg geometric skipping over each row u: weights are
     sorted decreasing, so the pair probability is monotone in v and a
     skip length drawn at the current probability, corrected by a
     q/p acceptance test, visits O(m) candidate pairs in total. *)
  let b = Graph.Builder.create ~edges_hint:(int_of_float (s /. 2.0) + n) ~n () in
  let u = ref 0 in
  while !u < n - 1 do
    let wu = w.(!u) in
    let v = ref (!u + 1) in
    let p = ref (Float.min 1.0 (wu *. w.(!v) /. s)) in
    while !v < n && !p > 0.0 do
      if !p < 1.0 then begin
        let r = Rng.float rng in
        let fskip = floor (log1p (-.r) /. log1p (-. !p)) in
        (* The skip can exceed the row on tiny probabilities; saturate
           instead of trusting int_of_float on a huge float. *)
        if fskip >= float_of_int (n - !v) then v := n
        else v := !v + int_of_float fskip
      end;
      if !v < n then begin
        let q = Float.min 1.0 (wu *. w.(!v) /. s) in
        if Rng.float rng < q /. !p then Graph.Builder.add_edge b !u !v;
        p := q;
        incr v
      end
    done;
    incr u
  done;
  Graph.Builder.finish b

let random_bipartite_sparse rng ~a ~b ~d =
  if a < 1 || b < 1 then
    invalid_arg "Gen.random_bipartite_sparse: need positive sides";
  if d < 1 || d > b then
    invalid_arg "Gen.random_bipartite_sparse: need 1 <= d <= b";
  let bd = Graph.Builder.create ~edges_hint:(a * d) ~n:(a + b) () in
  let chosen = Array.make d (-1) in
  for u = 0 to a - 1 do
    if 2 * d > b then begin
      (* Dense side: draw without replacement instead of retrying. *)
      let rights = Array.init b (fun i -> a + i) in
      let picks = Rng.sample_without_replacement rng ~count:d rights in
      Array.iter (fun v -> Graph.Builder.add_edge bd u v) picks
    end
    else begin
      let cnt = ref 0 in
      while !cnt < d do
        let cand = a + Rng.int rng b in
        let dup = ref false in
        for j = 0 to !cnt - 1 do
          if chosen.(j) = cand then dup := true
        done;
        if not !dup then begin
          chosen.(!cnt) <- cand;
          incr cnt
        end
      done;
      for j = 0 to d - 1 do
        Graph.Builder.add_edge bd u chosen.(j)
      done
    end
  done;
  Graph.Builder.finish bd
