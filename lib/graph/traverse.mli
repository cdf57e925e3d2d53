(** Graph traversal: distances and connectivity. *)

(** [distances g root] gives hop distances from [root]; unreachable
    vertices get [-1]. *)
val distances : Graph.t -> Graph.vertex -> int array

(** Connected components, each a sorted vertex list; components ordered by
    smallest member. *)
val components : Graph.t -> Graph.vertex list list

val is_connected : Graph.t -> bool

