(** Distance and cycle metrics.

    Used by the atlas/CLI reporting layer and by experiments relating a
    topology's structure to its defendability (e.g. girth determines
    whether matching equilibria can exist on cycles). *)

(** Max over vertices of the eccentricity (max hop distance to any
    vertex).
    @raise Invalid_argument if the graph is disconnected or empty. *)
val diameter : Graph.t -> int

(** Min over vertices of the eccentricity.
    @raise Invalid_argument if the graph is disconnected or empty. *)
val radius : Graph.t -> int

(** Length of a shortest cycle; [None] for forests. *)
val girth : Graph.t -> int option

(** Cut vertices (articulation points), sorted.  A cut vertex is a
    single point of failure of the communication network. *)
val articulation_points : Graph.t -> Graph.vertex list

(** Bridges: edges whose removal disconnects their component, sorted by
    edge id. *)
val bridges : Graph.t -> Graph.edge_id list

