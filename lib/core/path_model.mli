(** The Path model: the variation of [8] cited by the paper's related
    work, in which the defender cleans a simple path of k links instead
    of an arbitrary k-tuple.

    A path strategy is a tuple of k edges that forms a simple path
    (k+1 distinct vertices).  Restricting the defender's strategy space
    changes the pure-equilibrium landscape sharply: a k-edge path covers
    exactly k+1 vertices, so (by the Theorem 3.1 argument, which carries
    over verbatim) a pure NE exists iff k = n−1 and G has a Hamiltonian
    path — a far stronger demand than the Tuple model's ρ(G) ≤ k.
    Experiment P1 contrasts the two thresholds. *)

open Netgraph
open Tuple_instance

(** [is_path g ids]: do these edge ids form a simple path (connected,
    all internal degrees 2, endpoints degree 1, no repeated vertex)?  A
    single edge is a path. *)
val is_path : Graph.t -> Graph.edge_id list -> bool

(** All simple paths with exactly [k] edges, as canonical tuples
    (deduplicated across the two traversal directions).  Exponential;
    guarded. @raise Invalid_argument if more than [limit] paths are
    produced (default 2_000_000) or [k < 1]. *)
val enumerate_paths : ?limit:int -> Graph.t -> k:int -> Tuple.t list

(** A Hamiltonian path, by Held–Karp bitmask DP.
    @raise Invalid_argument if [n > 22]. *)
val hamiltonian_path : Graph.t -> Graph.vertex list option

val has_hamiltonian_path : Graph.t -> bool

(** Pure NE existence in the Path model: [k = n-1] and a Hamiltonian
    path exists (see above). @raise Invalid_argument if [n > 22]. *)
val pure_ne_exists : Model.t -> bool

(** A pure NE profile of the Path model (defender on a Hamiltonian
    path), when one exists. *)
val construct_pure_ne : Model.t -> Engine.Profile.pure option

(** Best-response value of the path-constrained defender against a mixed
    profile: max over k-edge simple paths of m_s(t).  Same enumeration
    guard as {!enumerate_paths}. *)
val tp_best_value : ?limit:int -> Engine.Profile.mixed -> Exact.Q.t

(** Definitional mixed-NE check for the Path model: the profile's support
    tuples must all be simple paths, attackers must sit on minimum-hit
    vertices, and every support path must attain {!tp_best_value}. *)
val is_mixed_ne : ?limit:int -> Engine.Profile.mixed -> Engine.Verify.verdict

(** Smallest defender power granting a pure NE, Tuple vs Path model:
    [(rho g, Some (n-1))] when a Hamiltonian path exists, [(rho g, None)]
    otherwise. @raise Invalid_argument if [n > 22]. *)
val pure_thresholds : Graph.t -> int * int option
