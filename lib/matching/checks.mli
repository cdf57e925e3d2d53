(** Predicates for the covering/matching structures of the paper's Section
    2.1.  All take edge ids / vertices of the ambient graph. *)

open Netgraph

(** No two edges share a vertex. *)
val is_matching : Graph.t -> Graph.edge_id list -> bool

(** Every vertex of [g] is an endpoint of some listed edge. *)
val is_edge_cover : Graph.t -> Graph.edge_id list -> bool

(** Every edge of [g] has an endpoint in the set. *)
val is_vertex_cover : Graph.t -> Graph.vertex list -> bool

(** No edge of [g] joins two vertices of the set. *)
val is_independent_set : Graph.t -> Graph.vertex list -> bool

(** Vertices NOT covered by the listed edges, sorted. *)
val uncovered_vertices : Graph.t -> Graph.edge_id list -> Graph.vertex list
