(** The Tuple model Π_k(G) (Definition 2.1 of the paper).

    An instance is a graph [G] (connected, no isolated vertices, [n ≥ 2]),
    a number ν of vertex players (attackers) and the defender's power [k]
    (number of links scanned, [1 ≤ k ≤ m]).  The Edge model of [7] is the
    special case [k = 1]. *)

open Netgraph

type t = private { graph : Graph.t; nu : int; k : int }

(** @raise Invalid_argument if the graph is not a valid instance
    (disconnected, isolated vertices, [n < 2]), [nu < 1], or [k] outside
    [1, m]. *)
val make : graph:Graph.t -> nu:int -> k:int -> t

(** Same instance with power 1 (the Edge-model instance Π₁(G)). *)
val edge_model : t -> t

(** Same instance with a different power.
    @raise Invalid_argument if [k] outside [1, m]. *)
val with_k : t -> k:int -> t

val graph : t -> Graph.t
val nu : t -> int
val k : t -> int

(** Number of pure defender strategies C(m, k) as a native [int];
    [None] when it does not fit (the enumeration guards' interface).
    The count is taken exactly over the {!Exact.Q} bignum tower, so
    unlike the historical wrap-detecting product it is never wrong. *)
val tuple_space_size : t -> int option

val pp : Format.formatter -> t -> unit
