(** k-matching configurations and k-matching Nash equilibria of the Tuple
    model (Definition 4.1, Lemma 4.1) and Algorithm [A_tuple] (Figure 1).

    Feasibility refinement (see DESIGN.md): in any k-matching NE,
    [|E(D(tp))| = |IS|], so such equilibria exist only for [k ≤ |IS|];
    the constructors return [Error] beyond that bound. *)

open Netgraph
open Tuple_instance

(** Definition 4.2: the supports form a k-matching configuration
    (Definition 4.1: (1) D(VP) independent, (2) each support vertex
    incident to exactly one edge of E(D(tp)), (3) every edge of E(D(tp))
    appears in the same number of support tuples) and satisfy condition
    1 of Theorem 3.4 (supports only; probabilities are checked
    separately by {!Characterization}). *)
val is_k_matching_ne_support : Engine.Profile.mixed -> bool

(** Step 3 of [A_tuple]: the cyclic windows over an ordered edge list.
    [cyclic_tuples g edges ~k] returns δ = E_num / gcd(E_num, k) tuples,
    each of k consecutive edges (mod E_num), each edge appearing in
    exactly k / gcd(E_num, k) of them (Claim 4.9; the paper's displayed
    formula [k·gcd/E_num] is a typo for this value — its own derivation
    δ·k/E_num gives k/gcd).
    @raise Invalid_argument if [k > |edges|] or [edges] repeats an id. *)
val cyclic_tuples : Graph.t -> Graph.edge_id list -> k:int -> Tuple.t list

(** δ = E_num / gcd(E_num, k): number of tuples built by {!cyclic_tuples}. *)
val delta : e_num:int -> k:int -> int

(** Per-edge multiplicity k / gcd(E_num, k) in the cyclic construction. *)
val multiplicity : e_num:int -> k:int -> int

(** Algorithm [A_tuple] (Figure 1): matching NE of Π₁(G) via algorithm
    [A], then the cyclic lift, then uniform probabilities per Lemma 4.1.
    Fails when the partition is inadmissible or [k > |is|]. *)
val a_tuple : Model.t -> Matching_nash.partition -> (Engine.Profile.mixed, string) result

(** [A_tuple] with the partition discovered automatically
    ({!Matching_nash.find_partition}). *)
val a_tuple_auto : Model.t -> (Engine.Profile.mixed, string) result

val gcd : int -> int -> int
