(** Undirected simple graphs with dense integer vertex and edge identifiers.

    Vertices are [0 .. n-1]; edges carry ids [0 .. m-1] in insertion order.
    Self-loops and parallel edges are rejected at construction.  The
    structure is immutable after [make]; adjacency is stored as flat CSR
    (an [int array] offset table plus packed neighbor/edge-id arrays, no
    per-vertex heap structures), each row sorted by neighbor, so
    membership queries are logarithmic, iteration is cheap, and the
    representation scales to millions of vertices.  The non-allocating
    {!iter_neighbors}/{!fold_neighbors}/{!iter_incident}/{!fold_incident}
    accessors walk a row without copying it; inner loops should prefer
    them over {!neighbors}/{!incident_edges}, which allocate a fresh
    array per call.

    This is the information network of the Tuple model: vertices are hosts,
    edges are communication links. *)

type t

type vertex = int
type edge_id = int

(** An undirected edge; normalized so that the first endpoint is the
    smaller vertex. *)
type edge = { u : vertex; v : vertex }

(** [make ~n edges] builds a graph on [n] vertices.
    @raise Invalid_argument on a negative [n], an endpoint out of range, a
    self-loop, or a duplicate edge (in either orientation). *)
val make : n:int -> (vertex * vertex) list -> t

(** Incremental construction without an intermediate edge list: streaming
    decoders and O(m) generators push edges one at a time into growable
    flat endpoint arrays, and [finish] runs the same monomorphic
    sort-and-pack pass as {!make}.  Endpoint and self-loop validation
    happens eagerly in [add_edge]; duplicate detection happens in
    [finish].  A builder is cheap (two int arrays) and single-use:
    after [finish] it should be dropped. *)
module Builder : sig
  type graph = t

  type t

  (** [create ~n ()] starts a builder for a graph on [n] vertices.
      [edges_hint] pre-sizes the endpoint arrays (they grow by doubling
      past it).
      @raise Invalid_argument on a negative [n] or [n > 2^31 - 1]. *)
  val create : ?edges_hint:int -> n:int -> unit -> t

  (** [add_edge b u v] appends the undirected edge [{u, v}]; ids are
      assigned in insertion order, as in {!make}.
      @raise Invalid_argument on an endpoint out of range or a
      self-loop. *)
  val add_edge : t -> vertex -> vertex -> unit

  (** Sort, reject duplicates, and pack into CSR.
      @raise Invalid_argument on a duplicate edge (in either
      orientation). *)
  val finish : t -> graph
end

val n : t -> int

val m : t -> int

(** Endpoints of an edge id, normalized ([u < v]).
    @raise Invalid_argument if the id is out of range. *)
val edge : t -> edge_id -> edge

(** All edges, indexed by edge id. *)
val edges : t -> edge array

(** The edge id joining two vertices, if present (orientation-insensitive). *)
val find_edge : t -> vertex -> vertex -> edge_id option

val is_adjacent : t -> vertex -> vertex -> bool

val degree : t -> vertex -> int

(** [iter_neighbors g v ~f] applies [f] to each neighbor of [v] in
    increasing order, without allocating. *)
val iter_neighbors : t -> vertex -> f:(vertex -> unit) -> unit

(** Left fold over the neighbors of [v] in increasing order, without
    allocating. *)
val fold_neighbors : t -> vertex -> init:'a -> f:('a -> vertex -> 'a) -> 'a

(** [iter_incident g v ~f] applies [f w id] to each incident edge of
    [v], where [w] is the opposite endpoint and [id] the edge id, in
    increasing order of [w], without allocating. *)
val iter_incident : t -> vertex -> f:(vertex -> edge_id -> unit) -> unit

(** Left fold over incident edges of [v] as [(opposite, id)] pairs in
    increasing order of the opposite endpoint, without allocating. *)
val fold_incident :
  t -> vertex -> init:'a -> f:('a -> vertex -> edge_id -> 'a) -> 'a

val fold_vertices : t -> init:'a -> f:('a -> vertex -> 'a) -> 'a
val fold_edges : t -> init:'a -> f:('a -> edge_id -> edge -> 'a) -> 'a
val iter_edges : t -> f:(edge_id -> edge -> unit) -> unit

(** Vertices of degree zero. *)
val isolated_vertices : t -> vertex list

val has_isolated_vertex : t -> bool

(** [neighborhood g vs] is the set (sorted, deduplicated) of vertices
    adjacent to at least one vertex of [vs], including vertices of [vs]
    that happen to be adjacent to another member.  This is [Neigh_G(X)] of
    the paper. *)
val neighborhood : t -> vertex list -> vertex list

(** Subgraph induced by a set of edge ids: keeps all [n] vertices, only the
    given edges.  Used for "the graph obtained by [D(tp)]".  Edge ids are
    renumbered; the second component maps new ids back to old ids. *)
val edge_subgraph : t -> edge_id list -> t * edge_id array

(** Structural equality: same vertex count and same edge set. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
