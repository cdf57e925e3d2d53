type coloring = {
  side_a : Graph.vertex list;
  side_b : Graph.vertex list;
  color : int array;
}

(* BFS 2-colouring; [conflict] is set when an edge joins two vertices of
   one colour. *)
let attempt g =
  let n = Graph.n g in
  let color = Array.make n (-1) in
  let conflict = ref false in
  let queue = Queue.create () in
  (try
     for root = 0 to n - 1 do
       if color.(root) < 0 then begin
         color.(root) <- 0;
         Queue.add root queue;
         while not (Queue.is_empty queue) do
           let v = Queue.pop queue in
           Graph.iter_neighbors g v ~f:(fun w ->
               if color.(w) < 0 then begin
                 color.(w) <- 1 - color.(v);
                 Queue.add w queue
               end
               else if color.(w) = color.(v) then begin
                 conflict := true;
                 raise Exit
               end)
         done
       end
     done
   with Exit -> ());
  (color, !conflict)

let coloring g =
  let color, conflict = attempt g in
  if conflict then None
  else
    let side_a = ref [] and side_b = ref [] in
    for v = Graph.n g - 1 downto 0 do
      if color.(v) = 0 then side_a := v :: !side_a else side_b := v :: !side_b
    done;
    Some { side_a = !side_a; side_b = !side_b; color }

let is_bipartite g = not (snd (attempt g))
