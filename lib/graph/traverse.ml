(* Traversals over the CSR substrate.  Everything here runs at the
   10^5-10^6 vertex scale of the BigGraph tier: flat int-array queues
   and stacks instead of Queue.t cells, non-allocating row iteration
   instead of [Graph.neighbors] copies, and no recursion deeper than
   O(log) anywhere (a path-shaped graph overflows the OCaml stack well
   before 10^5 vertices otherwise). *)

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

let dfs_order g root =
  let visited = Array.make (Graph.n g) false in
  (* Each endpoint of each edge is pushed at most once, plus the root:
     the stack never holds more than 2m + 1 entries. *)
  let stack = Array.make ((2 * Graph.m g) + 1) 0 in
  let top = ref 0 in
  let push v =
    stack.(!top) <- v;
    incr top
  in
  push root;
  let order = ref [] in
  while !top > 0 do
    decr top;
    let v = stack.(!top) in
    if not visited.(v) then begin
      visited.(v) <- true;
      order := v :: !order;
      (* Push the unvisited neighbors, then reverse that stack segment
         so the smallest neighbor pops first — the same preorder the
         recursive formulation produced. *)
      let start = !top in
      Graph.iter_neighbors g v ~f:(fun w -> if not visited.(w) then push w);
      let i = ref start and j = ref (!top - 1) in
      while !i < !j do
        let tmp = stack.(!i) in
        stack.(!i) <- stack.(!j);
        stack.(!j) <- tmp;
        incr i;
        decr j
      done
    end
  done;
  List.rev !order

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

let is_connected g =
  match components g with [] | [ _ ] -> true | _ -> false
