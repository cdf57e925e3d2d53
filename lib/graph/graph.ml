type vertex = int
type edge_id = int
type edge = { u : vertex; v : vertex }

(* Flat CSR adjacency.  [off] has n+1 entries; the neighbors of v are
   nbr.(off.(v)) .. nbr.(off.(v+1) - 1), sorted increasing, with
   eid.(i) the id of the edge joining v to nbr.(i).  Endpoints by edge
   id live in the parallel eu/ev arrays (normalized, eu.(id) < ev.(id)).
   No per-vertex heap structure, no boxed tuples: six flat arrays. *)
type t = {
  n : int;
  m : int;
  eu : int array;
  ev : int array;
  off : int array;
  nbr : int array;
  eid : int array;
}

(* Packed edge keys [(u lsl 31) lor v] with u < v need both endpoints
   below 2^31; the maximum key is then 2^62 - 1 = max_int on 64-bit. *)
let max_vertices = 0x7FFFFFFF

(* Shared construction core.  [eu]/[ev] hold [m] validated normalized
   endpoint pairs indexed by edge id (insertion order); the arrays may
   be longer than [m].  Sorting the packed keys once and filling both
   endpoint rows in key order leaves every row sorted by neighbor, so
   no per-row sort is needed: row w receives its a-side entries (a,w)
   in increasing a strictly before its b-side entries (w,b) in
   increasing b, and a < w < b throughout. *)
let build ~n eu ev m =
  let key = Array.make (max m 1) 0 and ids = Array.make (max m 1) 0 in
  for i = 0 to m - 1 do
    key.(i) <- (eu.(i) lsl 31) lor ev.(i);
    ids.(i) <- i
  done;
  let key = if Array.length key = m then key else Array.sub key 0 m in
  let ids = if Array.length ids = m then ids else Array.sub ids 0 m in
  Int_sort.sort_pairs key ids;
  for i = 1 to m - 1 do
    if key.(i) = key.(i - 1) then
      invalid_arg
        (Printf.sprintf "Graph.make: duplicate edge (%d,%d)" (key.(i) lsr 31)
           (key.(i) land max_vertices))
  done;
  let off = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    let k = key.(i) in
    let u = k lsr 31 and v = k land max_vertices in
    off.(u + 1) <- off.(u + 1) + 1;
    off.(v + 1) <- off.(v + 1) + 1
  done;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let cur = Array.sub off 0 (max n 1) in
  let nbr = Array.make (max (2 * m) 1) 0 in
  let eid = Array.make (max (2 * m) 1) 0 in
  for i = 0 to m - 1 do
    let k = key.(i) in
    let u = k lsr 31 and v = k land max_vertices in
    let id = ids.(i) in
    nbr.(cur.(u)) <- v;
    eid.(cur.(u)) <- id;
    cur.(u) <- cur.(u) + 1;
    nbr.(cur.(v)) <- u;
    eid.(cur.(v)) <- id;
    cur.(v) <- cur.(v) + 1
  done;
  let trim a len = if Array.length a = len then a else Array.sub a 0 len in
  { n; m; eu = trim eu m; ev = trim ev m; off; nbr; eid }

module Builder = struct
  type graph = t

  type t = {
    bn : int;
    mutable beu : int array;
    mutable bev : int array;
    mutable bm : int;
  }

  let create ?(edges_hint = 16) ~n () =
    if n < 0 then invalid_arg "Graph.make: negative vertex count";
    if n > max_vertices then
      invalid_arg "Graph.make: vertex count exceeds 2^31-1";
    let cap = max edges_hint 1 in
    { bn = n; beu = Array.make cap 0; bev = Array.make cap 0; bm = 0 }

  let add_edge b u v =
    if u < 0 || u >= b.bn || v < 0 || v >= b.bn then
      invalid_arg
        (Printf.sprintf "Graph.make: endpoint out of range (%d,%d)" u v);
    if u = v then invalid_arg (Printf.sprintf "Graph.make: self-loop at %d" u);
    if b.bm = Array.length b.beu then begin
      let cap = 2 * b.bm in
      let eu = Array.make cap 0 and ev = Array.make cap 0 in
      Array.blit b.beu 0 eu 0 b.bm;
      Array.blit b.bev 0 ev 0 b.bm;
      b.beu <- eu;
      b.bev <- ev
    end;
    if u < v then begin
      b.beu.(b.bm) <- u;
      b.bev.(b.bm) <- v
    end
    else begin
      b.beu.(b.bm) <- v;
      b.bev.(b.bm) <- u
    end;
    b.bm <- b.bm + 1

  let finish b = build ~n:b.bn b.beu b.bev b.bm
end

let make ~n edge_list =
  let b = Builder.create ~edges_hint:(List.length edge_list) ~n () in
  List.iter (fun (u, v) -> Builder.add_edge b u v) edge_list;
  Builder.finish b

let n g = g.n
let m g = g.m

let check_id g id =
  if id < 0 || id >= g.m then
    invalid_arg (Printf.sprintf "Graph.edge: id %d out of range" id)

let edge g id =
  check_id g id;
  { u = g.eu.(id); v = g.ev.(id) }

let edges g = Array.init g.m (fun id -> { u = g.eu.(id); v = g.ev.(id) })

let degree g v = g.off.(v + 1) - g.off.(v)

let find_edge g u v =
  if u < 0 || u >= g.n || v < 0 || v >= g.n || u = v then None
  else begin
    (* Binary search the sorted row of the lower-degree endpoint. *)
    let a, target = if degree g u <= degree g v then (u, v) else (v, u) in
    let rec search lo hi =
      if lo >= hi then None
      else
        let mid = (lo + hi) / 2 in
        let w = g.nbr.(mid) in
        if w = target then Some g.eid.(mid)
        else if w < target then search (mid + 1) hi
        else search lo mid
    in
    search g.off.(a) g.off.(a + 1)
  end

let is_adjacent g u v = Option.is_some (find_edge g u v)

let iter_neighbors g v ~f =
  for i = g.off.(v) to g.off.(v + 1) - 1 do
    f g.nbr.(i)
  done

let fold_neighbors g v ~init ~f =
  let acc = ref init in
  for i = g.off.(v) to g.off.(v + 1) - 1 do
    acc := f !acc g.nbr.(i)
  done;
  !acc

let iter_incident g v ~f =
  for i = g.off.(v) to g.off.(v + 1) - 1 do
    f g.nbr.(i) g.eid.(i)
  done

let fold_incident g v ~init ~f =
  let acc = ref init in
  for i = g.off.(v) to g.off.(v + 1) - 1 do
    acc := f !acc g.nbr.(i) g.eid.(i)
  done;
  !acc

let fold_vertices g ~init ~f =
  let acc = ref init in
  for v = 0 to g.n - 1 do
    acc := f !acc v
  done;
  !acc

let fold_edges g ~init ~f =
  let acc = ref init in
  for id = 0 to g.m - 1 do
    acc := f !acc id { u = g.eu.(id); v = g.ev.(id) }
  done;
  !acc

let iter_edges g ~f =
  for id = 0 to g.m - 1 do
    f id { u = g.eu.(id); v = g.ev.(id) }
  done

let isolated_vertices g =
  List.rev
    (fold_vertices g ~init:[] ~f:(fun acc v ->
         if degree g v = 0 then v :: acc else acc))

let has_isolated_vertex g =
  let rec scan v = v < g.n && (degree g v = 0 || scan (v + 1)) in
  scan 0

let neighborhood g vs =
  let mark = Array.make g.n false in
  List.iter (fun v -> iter_neighbors g v ~f:(fun w -> mark.(w) <- true)) vs;
  let out = ref [] in
  for v = g.n - 1 downto 0 do
    if mark.(v) then out := v :: !out
  done;
  !out

let edge_subgraph g ids =
  let ids = List.sort_uniq Int.compare ids in
  let b = Builder.create ~edges_hint:(List.length ids) ~n:g.n () in
  List.iter
    (fun id ->
      check_id g id;
      Builder.add_edge b g.eu.(id) g.ev.(id))
    ids;
  (Builder.finish b, Array.of_list ids)

(* Rows are neighbor-sorted, so walking the upper adjacency in vertex
   order streams the edge set as sorted packed keys. *)
let sorted_keys g =
  let ks = Array.make (max g.m 1) 0 in
  let j = ref 0 in
  for v = 0 to g.n - 1 do
    for i = g.off.(v) to g.off.(v + 1) - 1 do
      let w = g.nbr.(i) in
      if w > v then begin
        ks.(!j) <- (v lsl 31) lor w;
        incr j
      end
    done
  done;
  ks

let equal a b =
  a.n = b.n && a.m = b.m
  &&
  let ka = sorted_keys a and kb = sorted_keys b in
  let ok = ref true in
  for i = 0 to a.m - 1 do
    if ka.(i) <> kb.(i) then ok := false
  done;
  !ok

let pp fmt g =
  Format.fprintf fmt "@[<hov 2>graph(n=%d, m=%d:" g.n g.m;
  for id = 0 to g.m - 1 do
    Format.fprintf fmt "@ %d-%d" g.eu.(id) g.ev.(id)
  done;
  Format.fprintf fmt ")@]"
