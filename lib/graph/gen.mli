(** Graph generators: the topology atlas used by the experiments.

    Deterministic families take sizes; random families take an explicit
    {!Prng.Rng.t} so every experiment is reproducible from a seed.  All
    generators produce simple graphs; families documented as connected and
    isolated-vertex-free satisfy the Tuple model's instance requirements. *)

(** Path [0-1-...-(n-1)]. @raise Invalid_argument if [n < 2]. *)
val path : int -> Graph.t

(** Cycle on [n] vertices. @raise Invalid_argument if [n < 3]. *)
val cycle : int -> Graph.t

(** Star: centre [0], leaves [1..n-1]. @raise Invalid_argument if [n < 2]. *)
val star : int -> Graph.t

(** Complete graph K_n. @raise Invalid_argument if [n < 2]. *)
val complete : int -> Graph.t

(** Complete bipartite K_{a,b}; side A is [0..a-1].
    @raise Invalid_argument if [a < 1 || b < 1]. *)
val complete_bipartite : int -> int -> Graph.t

(** [grid rows cols] is the rows×cols king-free lattice (4-neighbour grid).
    @raise Invalid_argument unless both dimensions are positive and
    [rows * cols >= 2]. *)
val grid : int -> int -> Graph.t

(** Hypercube Q_d on [2^d] vertices. @raise Invalid_argument if [d < 1]. *)
val hypercube : int -> Graph.t

(** Perfect binary tree of the given depth (depth 1 = single edge root/two
    leaves... depth d has [2^(d+1)-1] vertices). @raise Invalid_argument if
    [depth < 1]. *)
val binary_tree : int -> Graph.t

(** Erdős–Rényi G(n, p): each pair independently an edge.  Not necessarily
    connected. @raise Invalid_argument if [n < 1] or [p] outside [0,1]. *)
val gnp : Prng.Rng.t -> n:int -> p:float -> Graph.t

(** Connected G(n, p): a uniform random spanning tree first, then each
    remaining pair with probability [p].  Always connected, no isolated
    vertices. @raise Invalid_argument as {!gnp}, and [n >= 2]. *)
val gnp_connected : Prng.Rng.t -> n:int -> p:float -> Graph.t

(** Random bipartite graph with sides [a], [b]: each cross pair with
    probability [p], then augmented with a random cross spanning structure
    so the result is connected. @raise Invalid_argument if sides are not
    positive or [p] outside [0,1]. *)
val random_bipartite : Prng.Rng.t -> a:int -> b:int -> p:float -> Graph.t

(** Uniform random labelled tree on [n] vertices (Prüfer sequence).
    @raise Invalid_argument if [n < 2]. *)
val random_tree : Prng.Rng.t -> n:int -> Graph.t

(** Random d-regular graph via the configuration model with restarts
    (simple, no self-loops).  @raise Invalid_argument if [n * d] is odd,
    [d < 1], or [d >= n]. *)
val random_regular : Prng.Rng.t -> n:int -> d:int -> Graph.t

(** Two-tier "enterprise" topology: [core] fully-meshed backbone vertices,
    [leaves] hosts each attached to [uplinks] distinct core vertices.
    Connected, bipartite iff core mesh is trivial. Used by the example
    scenarios. @raise Invalid_argument if [core < 1], [leaves < 0] or
    [uplinks] not in [1..core]. *)
val enterprise : Prng.Rng.t -> core:int -> leaves:int -> uplinks:int -> Graph.t

(** Wheel W_n: cycle on [n-1] outer vertices plus hub 0.
    @raise Invalid_argument if [n < 4]. *)
val wheel : int -> Graph.t

(** Complete multipartite graph with the given part sizes; vertices are
    numbered part by part. @raise Invalid_argument with fewer than two
    parts or a non-positive part. *)
val complete_multipartite : int list -> Graph.t

(** Barbell: two K_a cliques joined by a path of [bridge] intermediate
    vertices ([bridge = 0] joins them by a single edge).
    @raise Invalid_argument if [a < 3] or [bridge < 0]. *)
val barbell : int -> bridge:int -> Graph.t

(** Lollipop: K_a with a pendant path of [tail] vertices.
    @raise Invalid_argument if [a < 3] or [tail < 1]. *)
val lollipop : int -> tail:int -> Graph.t

(** Caterpillar: a spine path of [spine] vertices with [legs] pendant
    leaves on each spine vertex.  Always a tree.
    @raise Invalid_argument if [spine < 1], [legs < 0], or the result has
    fewer than two vertices. *)
val caterpillar : spine:int -> legs:int -> Graph.t

(** The Petersen graph (3-regular, girth 5, non-bipartite, n = 10). *)
val petersen : unit -> Graph.t

(** [preferential_attachment rng ~n ~c] grows a Barabási–Albert-style
    graph: a seed edge [{0, 1}], then each vertex [i >= 2] attaches to
    [min c i] distinct earlier vertices drawn proportionally to their
    current degree (endpoint-multiset sampling — O(m), no quadratic
    scan).  The result is connected with
    [m = 1 + sum_{i=2}^{n-1} min c i]; in particular [c = 1] yields a
    random recursive tree with [m = n - 1].
    @raise Invalid_argument unless [n >= 2] and [c >= 1]. *)
val preferential_attachment : Prng.Rng.t -> n:int -> c:int -> Graph.t

(** [chung_lu rng ~n ~gamma ~avg_degree] samples the Chung–Lu model
    with power-law expected degrees [w_i] proportional to
    [(i+1)^(-1/(gamma-1))] (degree-distribution exponent [gamma]),
    scaled to mean [avg_degree] and capped so every pair probability
    [w_u w_v / sum w] is at most 1.  Uses Miller–Hagberg geometric
    skipping: O(n + m) expected work, not O(n^2).
    @raise Invalid_argument unless [n >= 1], [gamma > 2] and
    [avg_degree > 0]. *)
val chung_lu : Prng.Rng.t -> n:int -> gamma:float -> avg_degree:float -> Graph.t

(** [random_bipartite_sparse rng ~a ~b ~d] puts sides [{0..a-1}] and
    [{a..a+b-1}]; each left vertex picks [d] distinct uniform right
    neighbors, so [m = a * d] exactly.  O(m) for [d] well below [b],
    O(a * b) at worst — unlike {!random_bipartite}, which is always
    quadratic in the side sizes.
    @raise Invalid_argument unless both sides are positive and
    [1 <= d <= b]. *)
val random_bipartite_sparse : Prng.Rng.t -> a:int -> b:int -> d:int -> Graph.t

(** The atlas: named deterministic instances of bounded size used by tests
    and tables ([name, graph] pairs, sizes suitable for brute force). *)
val atlas_small : unit -> (string * Graph.t) list
