(** Graphviz DOT export, with optional highlighting of a defender support
    (edges) and attacker support (vertices) for visualizing equilibria. *)

val to_string :
  ?name:string ->
  ?highlight_vertices:Graph.vertex list ->
  ?highlight_edges:Graph.edge_id list ->
  Graph.t ->
  string
