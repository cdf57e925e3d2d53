open Netgraph

(* Held–Karp over vertex subsets: dp.(mask * n + v) records a simple
   path through exactly the vertices of [mask] that ends at [v]. *)
let has_hamiltonian_path g =
  let n = Graph.n g in
  if n > 22 then invalid_arg "Path_model.hamiltonian_path: n > 22";
  let full = (1 lsl n) - 1 in
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
  let rec ends_somewhere v = v < n && (get full v || ends_somewhere (v + 1)) in
  ends_somewhere 0

let pure_thresholds g =
  let rho = Matching.Edge_cover.rho g in
  (rho, if has_hamiltonian_path g then Some (Graph.n g - 1) else None)
