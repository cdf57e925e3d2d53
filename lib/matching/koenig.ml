open Netgraph

type t = {
  vertex_cover : Graph.vertex list;
  independent_set : Graph.vertex list;
  matching : Hopcroft_karp.result;
}

let solve g =
  match Bipartite.coloring g with
  | None -> invalid_arg "Koenig.solve: graph not bipartite"
  | Some coloring ->
      let left = coloring.Bipartite.side_a in
      let matching = Hopcroft_karp.max_matching_bipartite g in
      let mate = matching.Hopcroft_karp.mate in
      let n = Graph.n g in
      let is_left = Array.make n false in
      List.iter (fun v -> is_left.(v) <- true) left;
      (* Alternating reachability from free left vertices: unmatched edges
         left->right, matched edges right->left. *)
      let reached = Array.make n false in
      let queue = Queue.create () in
      List.iter
        (fun v ->
          if mate.(v) < 0 then begin
            reached.(v) <- true;
            Queue.add v queue
          end)
        left;
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        if is_left.(v) then
          Graph.iter_neighbors g v ~f:(fun w ->
              if mate.(v) <> w && not reached.(w) then begin
                reached.(w) <- true;
                Queue.add w queue
              end)
        else if mate.(v) >= 0 && not reached.(mate.(v)) then begin
          reached.(mate.(v)) <- true;
          Queue.add mate.(v) queue
        end
      done;
      (* König: VC = (L \ Z) ∪ (R ∩ Z). *)
      let vertex_cover = ref [] and independent_set = ref [] in
      for v = n - 1 downto 0 do
        let in_cover = if is_left.(v) then not reached.(v) else reached.(v) in
        if in_cover then vertex_cover := v :: !vertex_cover
        else independent_set := v :: !independent_set
      done;
      { vertex_cover = !vertex_cover; independent_set = !independent_set; matching }
