(* Traversals over the CSR substrate.  Everything here runs at the
   10^5-10^6 vertex scale of the BigGraph tier: flat int-array queues
   instead of Queue.t cells, non-allocating row iteration instead of
   copied rows, and no recursion deeper than O(log) anywhere (a
   path-shaped graph overflows the OCaml stack well before 10^5
   vertices otherwise). *)

let bfs_order g root =
  let n = Graph.n g in
  let visited = Array.make n false in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  let push v =
    visited.(v) <- true;
    queue.(!tail) <- v;
    incr tail
  in
  push root;
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    Graph.iter_neighbors g v ~f:(fun w -> if not visited.(w) then push w)
  done;
  (* BFS visit order is exactly enqueue order. *)
  Array.to_list (Array.sub queue 0 !tail)

let distances g root =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  dist.(root) <- 0;
  queue.(!tail) <- root;
  incr tail;
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    Graph.iter_neighbors g v ~f:(fun w ->
        if dist.(w) < 0 then begin
          dist.(w) <- dist.(v) + 1;
          queue.(!tail) <- w;
          incr tail
        end)
  done;
  dist

let components g =
  let n = Graph.n g in
  let seen = Array.make n false in
  let comps = ref [] in
  for v = 0 to n - 1 do
    if not seen.(v) then begin
      let comp = bfs_order g v in
      List.iter (fun w -> seen.(w) <- true) comp;
      comps := List.sort Int.compare comp :: !comps
    end
  done;
  List.rev !comps

(* One BFS from vertex 0: the daemon's parent runs this on every
   canonical-form memo miss, so it builds no component lists. *)
let is_connected g =
  Graph.n g = 0 || Array.for_all (fun d -> d >= 0) (distances g 0)
