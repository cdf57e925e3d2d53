(** Graph traversal: BFS/DFS orders, distances, connectivity. *)

(** [bfs_order g root] lists vertices of [root]'s component in BFS order. *)
val bfs_order : Graph.t -> Graph.vertex -> Graph.vertex list

(** [dfs_order g root] lists vertices of [root]'s component in preorder. *)
val dfs_order : Graph.t -> Graph.vertex -> Graph.vertex list

(** [distances g root] gives hop distances from [root]; unreachable
    vertices get [-1]. *)
val distances : Graph.t -> Graph.vertex -> int array

(** Connected components, each a sorted vertex list; components ordered by
    smallest member. *)
val components : Graph.t -> Graph.vertex list list

val is_connected : Graph.t -> bool

