open Netgraph
module E = Tuple_instance.Engine

let require_edge_model m =
  if Model.k (E.Profile.instance m) <> 1 then
    invalid_arg "Matching_nash: profile must belong to the Edge model (k = 1)"

let incident_support_count g support_edges v =
  List.length
    (List.filter
       (fun id ->
         let e = Graph.edge g id in
         e.Graph.u = v || e.Graph.v = v)
       support_edges)

let is_matching_configuration m =
  require_edge_model m;
  let g = Model.graph (E.Profile.instance m) in
  let vp = E.Profile.vp_support_union m in
  let support_edges = Tuple.edge_union (E.Profile.tp_support m) in
  Matching.Checks.is_independent_set g vp
  && List.for_all (fun v -> incident_support_count g support_edges v = 1) vp

let lemma21_cover_conditions m =
  let g = Model.graph (E.Profile.instance m) in
  let support_edges = Tuple.edge_union (E.Profile.tp_support m) in
  Matching.Checks.is_edge_cover g support_edges
  &&
  let sub, _ = Graph.edge_subgraph g support_edges in
  Matching.Checks.is_vertex_cover sub (E.Profile.vp_support_union m)

type partition = { is : Graph.vertex list; vc : Graph.vertex list }

let partition_of_is g is =
  let is = List.sort_uniq Int.compare is in
  if not (Matching.Checks.is_independent_set g is) then
    invalid_arg "Matching_nash.partition_of_is: set is not independent";
  List.iter
    (fun v ->
      if v < 0 || v >= Graph.n g then
        invalid_arg "Matching_nash.partition_of_is: vertex out of range")
    is;
  let in_is = Array.make (Graph.n g) false in
  List.iter (fun v -> in_is.(v) <- true) is;
  let vc = ref [] in
  for v = Graph.n g - 1 downto 0 do
    if not in_is.(v) then vc := v :: !vc
  done;
  { is; vc = !vc }

let partition_admits g { is; vc } =
  is <> []
  && Matching.Checks.is_independent_set g is
  && (Matching.Hall.check g ~vc).Matching.Hall.expander

let find_partition g =
  if Bipartite.is_bipartite g then begin
    let koenig = Matching.Koenig.solve g in
    let p =
      {
        is = koenig.Matching.Koenig.independent_set;
        vc = koenig.Matching.Koenig.vertex_cover;
      }
    in
    if partition_admits g p then Some p else None
  end
  else if Graph.n g <= 20 then
    (* General graphs: try every maximal independent set.  Maximal ones
       suffice: if (IS, VC) is admissible and IS' ⊇ IS is a maximal
       independent superset, the matching saturating VC restricts to one
       saturating VC' = V \ IS' ⊆ VC with partners in IS ⊆ IS', so
       (IS', VC') is admissible too. *)
    Matching.Independent.all_maximal g
    |> List.map (partition_of_is g)
    |> List.find_opt (partition_admits g)
  else None

let all_partitions g =
  Matching.Independent.all_maximal g
  |> List.map (partition_of_is g)
  |> List.filter (partition_admits g)
  |> List.sort (fun a b -> Int.compare (List.length a.is) (List.length b.is))

let support_edges g { is; vc } =
  if not (Matching.Checks.is_independent_set g is) then
    invalid_arg "Matching_nash.support_edges: IS not independent";
  if is = [] then Error "empty independent set"
  else
    match Matching.Hall.check g ~vc with
    | { Matching.Hall.expander = false; violating_set; _ } ->
        let witness =
          match violating_set with
          | Some vs -> String.concat "," (List.map string_of_int vs)
          | None -> "?"
        in
        Error
          (Printf.sprintf "graph is not a VC-expander; deficient set {%s}" witness)
    | { Matching.Hall.saturating_matching = Some matching; _ } ->
        (* f : IS -> VC.  Matched IS vertices keep their partner; the rest
           pick an arbitrary neighbour (always in VC by independence). *)
        let n = Graph.n g in
        let in_is = Array.make n false in
        List.iter (fun v -> in_is.(v) <- true) is;
        let assigned = Array.make n None in
        List.iter
          (fun id ->
            let e = Graph.edge g id in
            let is_side =
              if in_is.(e.Graph.u) then e.Graph.u else e.Graph.v
            in
            assigned.(is_side) <- Some id)
          matching;
        let edge_for v =
          match assigned.(v) with
          | Some id -> id
          | None ->
              let first = ref (-1) in
              Graph.iter_incident g v ~f:(fun _ id ->
                  if !first < 0 then first := id);
              assert (!first >= 0);
              !first
        in
        Ok (List.map edge_for is)
    | { Matching.Hall.saturating_matching = None; _ } -> assert false

let solve model partition =
  if Model.k model <> 1 then
    invalid_arg "Matching_nash.solve: model must have k = 1";
  let g = Model.graph model in
  match support_edges g partition with
  | Error _ as e -> e
  | Ok edges ->
      let tuples = List.map (fun id -> Tuple.of_list g [ id ]) edges in
      Ok (E.Profile.uniform model ~vp_support:partition.is ~tp_support:tuples)

let solve_auto model =
  let g = Model.graph model in
  match find_partition g with
  | None -> Error "no admissible (IS, VC) partition found"
  | Some p -> solve model p
