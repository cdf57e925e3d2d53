(** The Path model: the variation of [8] cited by the paper's related
    work, in which the defender cleans a simple path of k links instead
    of an arbitrary k-tuple.

    A path strategy is a tuple of k edges that forms a simple path
    (k+1 distinct vertices).  Restricting the defender's strategy space
    changes the pure-equilibrium landscape sharply: a k-edge path covers
    exactly k+1 vertices, so (by the Theorem 3.1 argument, which carries
    over verbatim) a pure NE exists iff k = n−1 and G has a Hamiltonian
    path — a far stronger demand than the Tuple model's ρ(G) ≤ k.
    Experiment T9 contrasts the two thresholds. *)

open Netgraph

(** Smallest defender power granting a pure NE, Tuple vs Path model:
    [(rho g, Some (n-1))] when a Hamiltonian path exists (Held–Karp
    bitmask DP), [(rho g, None)] otherwise.
    @raise Invalid_argument if [n > 22]. *)
val pure_thresholds : Graph.t -> int * int option
