(** The GAME signature: one defender variant, abstracted.

    A game is a graph [G], ν attacker (vertex) players who each pick a
    vertex, and one defender whose pure-strategy space is game-specific
    (the paper's k-edge tuples; Akrida et al.'s λ-vertex connected
    subgraphs).  Everything downstream — the incremental exact-payoff
    kernel, best responses, equilibrium verification, profile I/O and
    the simulation loops — is a functor over this signature
    ({!Game_engine.Make}, [Sim.Game_sim.Make]).

    Payoffs derive entirely from {!S.covered}: an attacker on vertex [v]
    is caught by defender strategy [d] iff [v] is covered by [d], the
    attacker's exact payoff is [1 - P(Hit(v))] and the defender's is the
    expected number of attackers covered.  All probability mass lives in
    {!Exact.Q} — equilibrium checks are exact equalities, never float
    tolerances, and the kernel's incremental patches must agree with the
    support rescan of a [Profile.rescan] profile to the bit. *)

open Netgraph

module type S = sig
  (** Wire/artifact tag ("tuple", "subgraph"): versioned into profile
      files, bench artifacts and the CLI's [--game] selector. *)
  val name : string

  (** One concrete game: graph, attacker count, and the defender's
      strategy-space parameters (k, λ, ...). *)
  type instance

  (** Defender pure strategies, with a canonical form: [compare] is a
      total order, [equal] agrees with it, and [to_ints] is an injective
      serialization (edge ids for tuples, vertex ids for subgraphs)
      consumed by [strategy_of_ints]. *)
  module Strategy : sig
    type t

    val compare : t -> t -> int
    val equal : t -> t -> bool
    val pp : Format.formatter -> t -> unit
    val to_ints : t -> int list
  end

  val graph : instance -> Graph.t
  val nu : instance -> int

  (** The instance's size parameters as ordered [(label, value)] pairs
      (e.g. [["nu", 3; "k", 2]]); profile files persist and re-validate
      them. *)
  val params : instance -> (string * int) list

  val pp_instance : Format.formatter -> instance -> unit

  (** @raise Invalid_argument when the strategy is not playable in this
      instance (wrong size, off-graph ids, disconnected subgraph...). *)
  val validate : instance -> Strategy.t -> unit

  (** Inverse of {!Strategy.to_ints}. @raise Invalid_argument on ids
      that denote no valid strategy. *)
  val strategy_of_ints : instance -> int list -> Strategy.t

  (** The vertices on which strategy [d] catches an attacker, sorted
      ascending without duplicates.  This is the single hook the exact
      payoff tables are built from: the kernel's per-vertex hit
      contribution of [d] is its membership here, and [d]'s load is the
      sum of attacker loads over exactly these vertices. *)
  val covered : instance -> Strategy.t -> Graph.vertex list

  (** [covers i d v] iff [v] is in [covered i d] (no list needed). *)
  val covers : instance -> Strategy.t -> Graph.vertex -> bool

  (** Enumerate the full pure-strategy space, each strategy exactly
      once, in a deterministic order. *)
  val fold_strategies : instance -> init:'a -> f:('a -> Strategy.t -> 'a) -> 'a

  (** Exact cardinality of the pure-strategy space (C(m,k) for tuples),
      at any magnitude. *)
  val space_size : instance -> Exact.Q.t

  (** [Some c] when the space has [c <= limit] strategies, else [None]:
      the guard every enumeration-based path checks before walking the
      space.  Must be exact — never a wrap-detecting heuristic. *)
  val space_size_within : instance -> limit:int -> int option

  (** A certificate-mode upper bound on the defender's best-response
      value against the given exact load tables (top-k edge loads for
      tuples, top-λ vertex loads for subgraphs).  Used by Verify's
      [Certificate] mode: support value = bound proves optimality
      without enumeration.  Loads are supplied as query functions so
      implementations probe only what they need — a rescan profile
      counts every probe. *)
  val value_upper_bound :
    instance ->
    load:(Graph.vertex -> Exact.Q.t) ->
    edge_load:(Graph.edge_id -> Exact.Q.t) ->
    Exact.Q.t

  (** An EXACT best response to nonnegative per-vertex weights: a pure
      strategy maximizing the total weight of its covered vertices,
      deterministically chosen (same instance and weights, same
      strategy).  [weight] has length [Graph.n (graph i)].  This is the
      defender-side oracle the double-oracle solver ([Solver]) column-
      generates with, so exactness is contractual: implementations may
      prune (branch-and-bound) but never approximate — a suboptimal
      answer silently corrupts the equilibrium certificate.
      @raise Invalid_argument on a weight vector of the wrong length. *)
  val best_response_weighted :
    instance -> weight:Exact.Q.t array -> Strategy.t

  (** Greedy heuristic response to integer attacker counts, for
      simulation loops on spaces too large to enumerate: maximize the
      marginal covered load. *)
  val greedy_response : instance -> load:int array -> Strategy.t

  (** As {!greedy_response}, but breaking zero-gain ties toward maximum
      vertex coverage (the tie-break best-response dynamics need for
      convergence). *)
  val greedy_coverage_response : instance -> load:int array -> Strategy.t

  (** The workload greedy policy's response to raw per-vertex attack
      counts (for tuples: the k edges with the hottest endpoint sums,
      chosen globally rather than by marginal gain — a deliberately
      different heuristic from {!greedy_response}). *)
  val greedy_by_counts : instance -> counts:int array -> Strategy.t

  (** A uniformly random pure strategy (workload baseline policy). *)
  val random_strategy : instance -> Prng.Rng.t -> Strategy.t

  (** Deterministic rotation through the resource set, one strategy per
      round (workload round-robin policy). *)
  val round_robin : instance -> round:int -> Strategy.t

  (** Slot count and per-strategy slot ids for empirical scan-frequency
      accounting (edges for tuples, vertices for subgraphs): playing a
      strategy increments each of its slots once. *)
  val scan_slots : instance -> int

  val scan_slot_ids : instance -> Strategy.t -> int list
end
