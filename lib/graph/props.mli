(** Structural summaries of a graph. *)

type summary = {
  n : int;
  m : int;
  min_degree : int;
  max_degree : int;
  mean_degree : float;
  connected : bool;
  bipartite : bool;
  isolated : int;  (** number of degree-0 vertices *)
  components : int;
}

val summary : Graph.t -> summary

(** Valid Tuple-model instance: connected, no isolated vertices, [n >= 2]. *)
val is_valid_instance : Graph.t -> bool

val pp_summary : Format.formatter -> summary -> unit
