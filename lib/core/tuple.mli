(** Defender pure strategies: tuples of k distinct edges.

    Payoffs depend only on the edge set, so tuples are canonicalized as
    strictly increasing arrays of edge ids; structural equality is value
    equality. *)

open Netgraph

type t = private Graph.edge_id array

(** Canonicalize a list of edge ids.
    @raise Invalid_argument on duplicates, an empty list, or ids outside
    the graph. *)
val of_list : Graph.t -> Graph.edge_id list -> t

(** The edge ids, ascending. *)
val to_list : t -> Graph.edge_id list

val size : t -> int

val contains_edge : t -> Graph.edge_id -> bool

(** V(t): distinct endpoints of the tuple's edges, sorted. *)
val vertices : Graph.t -> t -> Graph.vertex list

(** [covers g t v]: is [v] an endpoint of some edge of [t]? *)
val covers : Graph.t -> t -> Graph.vertex -> bool

val compare : t -> t -> int
val equal : t -> t -> bool

(** All tuples of [k] distinct edges of the graph, in lexicographic order.
    Exponential; guarded. @raise Invalid_argument if C(m,k) > [limit]
    (default {!Game_engine.enumeration_limit}). *)
val enumerate : ?limit:int -> Graph.t -> k:int -> t list

(** Fold over all k-subsets without materializing the list. *)
val fold_enumerate : Graph.t -> k:int -> init:'a -> f:('a -> t -> 'a) -> 'a

(** E(T) for a set of tuples: union of their edges, sorted. *)
val edge_union : t list -> Graph.edge_id list

(** V(T): union of endpoint sets, sorted. *)
val vertex_union : Graph.t -> t list -> Graph.vertex list

val pp : Format.formatter -> t -> unit
