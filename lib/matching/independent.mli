(** Exact maximum independent set for small graphs (branch and bound).
    Used as a test oracle against König on bipartite instances, and to
    enumerate candidate supports in the brute-force NE search. *)

open Netgraph

(** Independence number α(G). @raise Invalid_argument if [n > 30]. *)
val independence_number : Graph.t -> int

(** All maximal independent sets (each sorted). @raise Invalid_argument if
    [n > 20]. *)
val all_maximal : Graph.t -> Graph.vertex list list
