(** Distance and cycle metrics.

    Used by the atlas/CLI reporting layer and by experiments relating a
    topology's structure to its defendability (e.g. girth determines
    whether matching equilibria can exist on cycles). *)

(** Eccentricity of a vertex: max hop distance to any vertex.
    @raise Invalid_argument if the graph is disconnected. *)
val eccentricity : Graph.t -> Graph.vertex -> int

(** Max over vertices of eccentricity.
    @raise Invalid_argument if the graph is disconnected or empty. *)
val diameter : Graph.t -> int

(** Min over vertices of eccentricity.
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

