(** Matching configurations and matching Nash equilibria of the Edge model
    (Definition 2.2, Lemma 2.1, Theorem 2.2 — all from [7]), including the
    reconstruction of the algorithm [A] that {!Tuple_nash} uses as a
    subroutine (see DESIGN.md for the reconstruction). *)

open Netgraph
open Tuple_instance

(** Definition 2.2 on a Π₁ profile: D(VP) independent and every support
    vertex incident to exactly one support edge.
    @raise Invalid_argument if the profile's model has [k <> 1]. *)
val is_matching_configuration : Engine.Profile.mixed -> bool

(** Conditions (ii)–(iii) of Lemma 2.1: support edges form an edge cover
    and D(VP) is a vertex cover of the graph they span. *)
val lemma21_cover_conditions : Engine.Profile.mixed -> bool

(** Validated input partition for algorithm [A]. *)
type partition = { is : Graph.vertex list; vc : Graph.vertex list }

(** [partition_of_is g is] completes an independent set to a partition.
    @raise Invalid_argument if [is] is not independent or not within
    range. *)
val partition_of_is : Graph.t -> Graph.vertex list -> partition

(** Search for a partition satisfying Theorem 2.2.  Fast path: bipartite
    graphs via König (Theorem 5.1's route).  General graphs fall back to
    enumerating maximal independent sets, exponential and guarded to
    [n ≤ 20]. *)
val find_partition : Graph.t -> partition option

(** All admissible partitions with maximal independent [is] (maximal ones
    suffice, see {!find_partition}), sorted by |is| ascending.

    Selection-independence invariant (proved in DESIGN.md, verified by
    experiment T11): every admissible partition has
    [|is| = α(G) = ρ(G)] — admissibility forces [|is| ≥ n − μ = ρ] via
    the saturating matching while independence caps [|is| ≤ α ≤ ρ] — so
    distinct matching NEs all share the same gain k·ν/ρ, and such
    equilibria exist only on König–Egerváry graphs ([τ = μ]).
    Exponential; @raise Invalid_argument if [n > 20]. *)
val all_partitions : Graph.t -> partition list

(** Algorithm [A]: a matching NE of Π₁(G) from a valid partition.
    Returns [Error] (with the Hall violator) when G is not a
    [vc]-expander. @raise Invalid_argument if the model has [k <> 1] or
    [is] is not independent. *)
val solve : Model.t -> partition -> (Engine.Profile.mixed, string) result

(** The support edges algorithm [A] picks — one per [is] vertex, jointly
    covering [vc] — exposed for the reduction and for tests. *)
val support_edges : Graph.t -> partition -> (Graph.edge_id list, string) result

(** End-to-end convenience: find a partition and solve. *)
val solve_auto : Model.t -> (Engine.Profile.mixed, string) result
