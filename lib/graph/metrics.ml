let require_connected g =
  if not (Traverse.is_connected g) then
    invalid_arg "Metrics: graph must be connected";
  if Graph.n g = 0 then invalid_arg "Metrics: empty graph"

let eccentricity g v =
  require_connected g;
  Array.fold_left max 0 (Traverse.distances g v)

let diameter g =
  require_connected g;
  Graph.fold_vertices g ~init:0 ~f:(fun acc v -> max acc (eccentricity g v))

let radius g =
  require_connected g;
  Graph.fold_vertices g ~init:max_int ~f:(fun acc v -> min acc (eccentricity g v))

(* Girth by per-edge deletion: the shortest cycle through edge e = (u,v)
   has length 1 + dist_{G-e}(u, v). *)
let girth g =
  let n = Graph.n g in
  let best = ref None in
  Graph.iter_edges g ~f:(fun id e ->
      let dist = Array.make n (-1) in
      let queue = Queue.create () in
      dist.(e.Graph.u) <- 0;
      Queue.add e.Graph.u queue;
      while not (Queue.is_empty queue) do
        let x = Queue.pop queue in
        Graph.iter_incident g x ~f:(fun y eid ->
            if eid <> id && dist.(y) < 0 then begin
              dist.(y) <- dist.(x) + 1;
              Queue.add y queue
            end)
      done;
      if dist.(e.Graph.v) >= 0 then
        let cycle = dist.(e.Graph.v) + 1 in
        match !best with
        | Some b when b <= cycle -> ()
        | _ -> best := Some cycle);
  !best

(* Tarjan low-link DFS for articulation points and bridges. *)
let cut_structure g =
  let n = Graph.n g in
  let visited = Array.make n false in
  let depth = Array.make n 0 in
  let low = Array.make n 0 in
  let is_cut = Array.make n false in
  let bridge = ref [] in
  let rec dfs v parent_edge d =
    visited.(v) <- true;
    depth.(v) <- d;
    low.(v) <- d;
    let children = ref 0 in
    Graph.iter_incident g v ~f:(fun w id ->
        if id <> parent_edge then
          if visited.(w) then low.(v) <- min low.(v) depth.(w)
          else begin
            incr children;
            dfs w id (d + 1);
            low.(v) <- min low.(v) low.(w);
            if low.(w) > depth.(v) then bridge := id :: !bridge;
            if parent_edge >= 0 && low.(w) >= depth.(v) then is_cut.(v) <- true
          end);
    if parent_edge < 0 && !children > 1 then is_cut.(v) <- true
  in
  for v = 0 to n - 1 do
    if not visited.(v) then dfs v (-1) 0
  done;
  (is_cut, List.sort compare !bridge)

let articulation_points g =
  let is_cut, _ = cut_structure g in
  let out = ref [] in
  for v = Graph.n g - 1 downto 0 do
    if is_cut.(v) then out := v :: !out
  done;
  !out

let bridges g = snd (cut_structure g)

