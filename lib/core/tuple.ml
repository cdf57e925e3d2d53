open Netgraph

type t = Graph.edge_id array

let of_list g ids =
  if ids = [] then invalid_arg "Tuple.of_list: empty tuple";
  let sorted = List.sort_uniq compare ids in
  if List.length sorted <> List.length ids then
    invalid_arg "Tuple.of_list: duplicate edge in tuple";
  List.iter
    (fun id ->
      if id < 0 || id >= Graph.m g then
        invalid_arg (Printf.sprintf "Tuple.of_list: edge id %d out of range" id))
    sorted;
  Array.of_list sorted

let to_list t = Array.to_list t
let size t = Array.length t

let contains_edge t id =
  let rec search lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if t.(mid) = id then true
      else if t.(mid) < id then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length t)

let vertices g t =
  Array.to_list t
  |> List.concat_map (fun id ->
         let e = Graph.edge g id in
         [ e.Graph.u; e.Graph.v ])
  |> List.sort_uniq compare

let covers g t v =
  Array.exists
    (fun id ->
      let e = Graph.edge g id in
      e.Graph.u = v || e.Graph.v = v)
    t

let compare = Stdlib.compare
let equal a b = Stdlib.compare a b = 0

let fold_enumerate g ~k ~init ~f =
  let m = Graph.m g in
  if k < 1 || k > m then invalid_arg "Tuple.fold_enumerate: k outside [1, m]";
  let selection = Array.make k 0 in
  let acc = ref init in
  (* Standard k-subset recursion in lexicographic order. *)
  let rec choose pos lo =
    if pos = k then acc := f !acc (Array.copy selection)
    else
      for id = lo to m - (k - pos) do
        selection.(pos) <- id;
        choose (pos + 1) (id + 1)
      done
  in
  choose 0 0;
  !acc

let enumerate ?(limit = Game_engine.enumeration_limit) g ~k =
  let m = Graph.m g in
  let count =
    match Exact.Q.to_int_exn (Exact.Q.binomial m k) with
    | c -> Some c
    | exception Exact.Q.Overflow -> None
  in
  (match count with
  | Some c when c <= limit -> ()
  | _ ->
      invalid_arg
        (Printf.sprintf "Tuple.enumerate: C(%d,%d) exceeds limit %d" m k limit));
  List.rev (fold_enumerate g ~k ~init:[] ~f:(fun acc t -> t :: acc))

let edge_union ts =
  List.concat_map Array.to_list ts |> List.sort_uniq compare

let vertex_union g ts =
  List.concat_map (vertices g) ts |> List.sort_uniq compare

let pp fmt t =
  Format.fprintf fmt "<%s>"
    (String.concat "," (List.map string_of_int (Array.to_list t)))
