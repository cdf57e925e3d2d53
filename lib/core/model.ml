open Netgraph

type t = { graph : Graph.t; nu : int; k : int }

let make ~graph ~nu ~k =
  if not (Props.is_valid_instance graph) then
    invalid_arg
      "Model.make: instance graph must be connected, have no isolated \
       vertices, and at least two vertices";
  if nu < 1 then invalid_arg "Model.make: need at least one vertex player";
  if k < 1 || k > Graph.m graph then
    invalid_arg
      (Printf.sprintf "Model.make: k = %d outside [1, m = %d]" k (Graph.m graph));
  { graph; nu; k }

let edge_model t = { t with k = 1 }
let with_k t ~k = make ~graph:t.graph ~nu:t.nu ~k
let graph t = t.graph
let nu t = t.nu
let k t = t.k

module Q = Exact.Q

(* The true C(m, k) over the bignum tower, projected to a native int
   for the enumeration guards; the old wrap-detecting product could
   report None (and so refuse enumeration) for counts that actually
   fit, because an intermediate product overflowed before its exact
   division. *)
let tuple_space_size t =
  match Q.to_int_exn (Q.binomial (Graph.m t.graph) t.k) with
  | c -> Some c
  | exception Q.Overflow -> None

let pp fmt t =
  Format.fprintf fmt "Pi_%d(G[n=%d,m=%d], nu=%d)" t.k (Graph.n t.graph)
    (Graph.m t.graph) t.nu
