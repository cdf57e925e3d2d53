(** graph6 and sparse6 encodings (McKay's formats, as used by
    nauty/geng and most graph repositories): printable-ASCII
    serializations of simple undirected graphs.  Lets the library
    exchange instances with the wider graph-theory toolchain.  Decoding
    streams straight into a {!Graph.Builder} — no intermediate edge
    list — so sparse million-edge inputs build exactly one CSR graph. *)

(** Encode in graph6 (dense) format.  All three size headers are
    emitted as needed: 1-byte for [n <= 62], ['~'] 18-bit for
    [n <= 258047], and ["~~"] 36-bit beyond that.  [~force_long:true]
    forces the 36-bit header regardless of size, which round-trips the
    long form without a multi-gigabyte test graph. *)
val encode : ?force_long:bool -> Graph.t -> string

(** Decode one graph6 or sparse6 line (optional trailing newline
    tolerated); a leading [':'] marks sparse6.  All three size headers
    are understood; sizes beyond the [2^31 - 1] vertex-id range of the
    substrate are rejected rather than misparsed.  graph6 input must be
    exact: nonzero padding bits or bytes after the adjacency data are
    errors.  sparse6 input that encodes a self-loop or a repeated edge
    is rejected: the substrate holds simple graphs only.

    Edge ids are assigned in the order the line lists the edges: for
    graph6, the column order of the upper triangle, (0,1), (0,2),
    (1,2), (0,3), … (edges sorted by larger endpoint, then smaller),
    skipping non-edges; sparse6 lines written by {!encode_sparse6} list
    their edges in the same order.  This is not, in general, the
    numbering of the graph that was encoded.
    @raise Invalid_argument on malformed input. *)
val decode : string -> Graph.t

(** [order line] is the vertex count a graph6 or sparse6 line declares,
    read from its size header alone: no adjacency data is decoded and
    nothing proportional to the count is allocated.
    @raise Invalid_argument on a malformed or truncated header. *)
val order : string -> int

(** Encode in sparse6 format (size proportional to [m log n] rather
    than [n^2]), including nauty's padding rule for power-of-two vertex
    counts. *)
val encode_sparse6 : Graph.t -> string

(** [canonical g] is a canonical form of [g]: a graph6 (or, beyond 4096
    vertices, sparse6) encoding of an isomorphic relabeling of [g],
    chosen so that isomorphic graphs map to the same string.  This is
    the {e instance identity} the query daemon's solve cache is keyed
    on — two queries about relabelings of the same graph share one
    cache entry.

    The labeling is found by iterated degree refinement (1-WL color
    refinement) and, when refinement alone does not separate all
    vertices, one individualization-refinement search over the first
    ambiguous cell, whose result is the lexicographically least leaf
    encoding.  The search skips a member whose subtree an automorphism
    fixing the path maps onto an explored sibling's: it branches on one
    vertex per twin class (vertices with equal open or closed
    neighbourhoods), and on none in the orbit of an explored member
    under the automorphisms found at leaves whose encodings equal the
    first or the least leaf's (McKay–Piperno orbit pruning).  Skipped
    subtrees hold only encodings already seen, so the pruning leaves
    every key unchanged.  The search always reaches its first leaf.  Up
    to 64 vertices it then searches on within an internal branch budget
    (pruned branches are free), and the result is exactly canonical
    whenever it finishes; past 64 vertices it stops at the first leaf.
    A search cut short returns the least leaf seen: still a faithful
    encoding of an isomorphic graph — sound as a cache key, at worst
    missing a possible hit — but two relabelings are no longer
    guaranteed to agree. *)
val canonical : Graph.t -> string
