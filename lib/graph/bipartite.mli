(** Bipartiteness testing and two-colourings. *)

type coloring = {
  side_a : Graph.vertex list;  (** colour 0, sorted *)
  side_b : Graph.vertex list;  (** colour 1, sorted *)
  color : int array;           (** per-vertex colour, 0 or 1 *)
}

(** [coloring g] is a proper 2-colouring if one exists.  Vertices in
    components of a single vertex are assigned colour 0. *)
val coloring : Graph.t -> coloring option

val is_bipartite : Graph.t -> bool
