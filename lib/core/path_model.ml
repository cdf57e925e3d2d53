open Netgraph
module Q = Exact.Q
module E = Tuple_instance.Engine

let is_path g ids =
  match ids with
  | [] -> false
  | _ ->
      let ids = List.sort_uniq compare ids in
      let deg = Hashtbl.create 8 in
      let bump v = Hashtbl.replace deg v (1 + Option.value (Hashtbl.find_opt deg v) ~default:0) in
      List.iter
        (fun id ->
          let e = Graph.edge g id in
          bump e.Graph.u;
          bump e.Graph.v)
        ids;
      let k = List.length ids in
      let vertices = Hashtbl.fold (fun v _ acc -> v :: acc) deg [] in
      (* A simple path with k edges has k+1 vertices, two of degree 1 and
         k-1 of degree 2, and is connected.  The degree profile alone is
         NOT enough: a disjoint path-plus-cycle union matches it, so
         connectivity over the chosen edges is checked explicitly. *)
      List.length vertices = k + 1
      && (let ones =
            List.length (List.filter (fun v -> Hashtbl.find deg v = 1) vertices)
          in
          let twos =
            List.length (List.filter (fun v -> Hashtbl.find deg v = 2) vertices)
          in
          (k = 1 && ones = 2) || (k > 1 && ones = 2 && twos = k - 1))
      &&
      (* connectivity restricted to the chosen edge set *)
      let adj = Hashtbl.create 8 in
      List.iter
        (fun id ->
          let e = Graph.edge g id in
          let push a b =
            Hashtbl.replace adj a (b :: Option.value (Hashtbl.find_opt adj a) ~default:[])
          in
          push e.Graph.u e.Graph.v;
          push e.Graph.v e.Graph.u)
        ids;
      let seen = Hashtbl.create 8 in
      let rec visit v =
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          List.iter visit (Option.value (Hashtbl.find_opt adj v) ~default:[])
        end
      in
      visit (List.hd vertices);
      Hashtbl.length seen = k + 1

let enumerate_paths g ~k =
  if k < 1 then invalid_arg "Path_model.enumerate_paths: k must be positive";
  let found = ref [] in
  let count = ref 0 in
  let on_path = Array.make (Graph.n g) false in
  (* DFS extending a path at its head; start from every vertex, keep only
     the traversal direction whose start vertex is the smaller endpoint. *)
  let rec extend head edges_so_far remaining start =
    if remaining = 0 then begin
      if start < head then begin
        incr count;
        if !count > Game_engine.enumeration_limit then
          invalid_arg "Path_model.enumerate_paths: too many paths";
        found := Tuple.of_list g (List.rev edges_so_far) :: !found
      end
    end
    else
      Graph.iter_incident g head ~f:(fun w id ->
          if not on_path.(w) then begin
            on_path.(w) <- true;
            extend w (id :: edges_so_far) (remaining - 1) start;
            on_path.(w) <- false
          end)
  in
  Graph.iter_vertices g ~f:(fun v ->
      on_path.(v) <- true;
      extend v [] k v;
      on_path.(v) <- false);
  List.sort_uniq Tuple.compare !found

let hamiltonian_path g =
  let n = Graph.n g in
  if n > 22 then invalid_arg "Path_model.hamiltonian_path: n > 22";
  if n = 1 then Some [ 0 ]
  else begin
    let full = (1 lsl n) - 1 in
    (* reach.(v) = set of masks (as a Hashtbl per vertex is too slow);
       dp as bool array indexed mask*n + v, with parent recovery. *)
    let dp = Bytes.make ((full + 1) * n) '\000' in
    let get mask v = Bytes.get dp ((mask * n) + v) <> '\000' in
    let set mask v = Bytes.set dp ((mask * n) + v) '\001' in
    for v = 0 to n - 1 do
      set (1 lsl v) v
    done;
    for mask = 1 to full do
      for v = 0 to n - 1 do
        if mask land (1 lsl v) <> 0 && get mask v then
          Graph.iter_neighbors g v ~f:(fun w ->
              if mask land (1 lsl w) = 0 then set (mask lor (1 lsl w)) w)
      done
    done;
    let rec recover mask v acc =
      if mask = 1 lsl v then v :: acc
      else
        let prev_mask = mask lxor (1 lsl v) in
        let prev =
          let p = ref (-1) in
          Graph.iter_neighbors g v ~f:(fun w ->
              if !p < 0 && prev_mask land (1 lsl w) <> 0 && get prev_mask w
              then p := w);
          !p
        in
        recover prev_mask prev (v :: acc)
    in
    let rec find v =
      if v = n then None
      else if get full v then Some (recover full v [])
      else find (v + 1)
    in
    find 0
  end

let has_hamiltonian_path g = Option.is_some (hamiltonian_path g)

let pure_ne_exists model =
  let g = Model.graph model in
  Model.k model = Graph.n g - 1 && has_hamiltonian_path g

let construct_pure_ne model =
  let g = Model.graph model in
  if Model.k model <> Graph.n g - 1 then None
  else
    match hamiltonian_path g with
    | None -> None
    | Some vertices ->
        let rec edges = function
          | a :: (b :: _ as rest) ->
              Option.get (Graph.find_edge g a b) :: edges rest
          | _ -> []
        in
        let tuple = Tuple.of_list g (edges vertices) in
        Some
          (E.Profile.make_pure model
             ~vp_choices:(List.init (Model.nu model) (fun _ -> 0))
             ~tp_choice:tuple)

let tp_best_value m =
  let model = E.Profile.instance m in
  let g = Model.graph model in
  let paths = enumerate_paths g ~k:(Model.k model) in
  match paths with
  | [] -> Q.zero
  | _ -> Q.max_list (List.map (E.Profile.expected_load_strategy m) paths)

let is_mixed_ne m =
  let g = Model.graph (E.Profile.instance m) in
  let non_path =
    List.find_opt (fun t -> not (is_path g (Tuple.to_list t))) (E.Profile.tp_support m)
  in
  match non_path with
  | Some t ->
      E.Verify.Refuted
        (Format.asprintf "support tuple %a is not a simple path" Tuple.pp t)
  | None -> (
      match E.Verify.vp_side m with
      | E.Verify.Confirmed ->
          let best = tp_best_value m in
          let loads =
            List.map
              (fun (t, _) -> E.Profile.expected_load_strategy m t)
              (E.Profile.tp_strategy m)
          in
          let low = Q.min_list loads in
          if Q.( < ) low (Q.max_list loads) then
            E.Verify.Refuted "defender support mixes paths of different value"
          else if Q.( < ) low best then
            E.Verify.Refuted
              (Printf.sprintf "a path of value %s beats the support's %s"
                 (Q.to_string best) (Q.to_string low))
          else E.Verify.Confirmed
      | v -> v)

let pure_thresholds g =
  let rho = Matching.Edge_cover.rho g in
  (rho, if has_hamiltonian_path g then Some (Graph.n g - 1) else None)
