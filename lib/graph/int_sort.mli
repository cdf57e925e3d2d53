(** Monomorphic sorting on flat [int array]s.

    The graph substrate sorts packed edge keys during CSR construction;
    the polymorphic [Array.sort compare] it replaces walks a comparison
    closure through [caml_compare] per element pair, which dominates
    build time at 10^6 edges.  This routine is specialized to unboxed
    [int] and allocates nothing. *)

val sort_pairs : int array -> int array -> unit
(** [sort_pairs keys payload] sorts [keys] in place in increasing
    order, applying the same permutation to [payload].  Introsort:
    median-of-three quicksort, insertion sort below a small cutoff,
    heapsort fallback past the depth limit, so the worst case stays
    O(n log n) even on crafted inputs.  Equal keys may be reordered
    relative to each other (the CSR builder only has equal keys when
    the input has duplicate edges, which it rejects).

    @raise Invalid_argument if the arrays differ in length. *)
