(** König's theorem machinery for bipartite graphs: minimum vertex cover and
    maximum independent set from a maximum matching.

    These feed Theorem 5.1: the bipartite application computes a minimum
    vertex cover [VC] and uses [IS = V \ VC] as the attacker support. *)

open Netgraph

type t = {
  vertex_cover : Graph.vertex list;  (** a minimum vertex cover, sorted *)
  independent_set : Graph.vertex list;  (** its complement (maximum IS), sorted *)
  matching : Hopcroft_karp.result;  (** the maximum matching used *)
}

(** @raise Invalid_argument if [g] is not bipartite. *)
val solve : Graph.t -> t
