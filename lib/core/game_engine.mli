(** The exact game engine, generic over a {!Game.S} instance.

    [Make (G)] builds, for one game, everything downstream of its
    coverage hook {!Game.S.covered}: mixed and pure configurations with
    the standard equilibrium quantities Hit, m_s(v) and m_s(d) (answered
    from an incremental exact-payoff kernel, or by support re-scan on a
    {!Profile.rescan} profile), exact individual profits, best
    responses, pure-NE checks, mixed-NE verification and profile text
    I/O.  The built-in applications are [Tuple_instance.Engine] (the
    paper's game Π_k(G), defender strategies are k-edge tuples) and
    [Subgraph_instance.Engine] (Akrida et al.'s λ-vertex
    connected-subgraph defender).  Functors are applicative, so every
    application of [Make] to the same game — including those inside
    [Sim.Game_sim.Make] and [Solver.Double_oracle.Make] — has the same
    profile types.

    Vertex players mix over vertex ids, the defender over the game's
    canonical pure strategies.  Every probability and payoff is an
    {!Exact.Q.t}: equilibrium checks are exact equalities, never float
    tolerances.  Some error strings keep the tuple game's historical
    wording ("Profile.make_mixed: empty tuple-player strategy", ...) in
    every game; tests pin them byte for byte. *)

open Netgraph
module Q = Exact.Q

(** The enumeration budget, two million strategies: the one size above
    which every definitional walk of a strategy space refuses with
    [Invalid_argument] instead of walking it — {!Make.Best_response}'s
    and {!Make.Pure}'s exhaustive checks, {!Make.Verify.Exhaustive}, and
    the tuple-game references built on them ([Tuple.enumerate]'s
    default, [Path_model], [Robustness], [Support_solver],
    [Weighted.verify_ne]).  Those walks are the ground truth the closed
    forms, the minimax LP and the double oracle are tested against;
    {!Make.Verify.Oracle} decides at any size. *)
val enumeration_limit : int

module Make (G : Game.S) : sig
  (** Configurations (strategy profiles), pure and mixed, with the
      standard equilibrium quantities Hit, m_s(v), m_s(d).

      Every equilibrium routine bottoms out in four leaf queries —
      {!hit_prob}, {!expected_load}, {!expected_load_edge} and
      {!expected_load_strategy} — and a mixed profile answers them from
      an incremental exact-payoff kernel: three exact tables (hit
      probability and expected load per vertex, expected load per edge)
      built by {!make_mixed} and {!uniform}, so the first
      three queries are O(1).  One-player deviations ({!replace_vp},
      {!replace_tp}) patch the tables copy-on-write instead of
      rebuilding them: a vertex-player move touches only the two
      supports involved (plus their incident edges) and shares the hit
      table; a defender move rebuilds only the hit table and shares
      both load tables.

      {!rescan} gives the reference path: the same profile without
      tables, answering every leaf query by re-scanning the defender's
      support (or the attackers' strategies).  Every consumer below —
      profits, best responses, verification, the characterization —
      takes whichever profile it is given, and the two paths are
      exactly equal ([Q.equal], no tolerance).  The Obs counters
      [kernel.builds], [kernel.vp_patches], [kernel.tp_patches],
      [kernel.cow_cells] and [kernel.naive_rescans] (one per re-scanned
      vertex) record the patch-versus-rebuild economics. *)
  module Profile : sig
    type pure = {
      vp_choices : Graph.vertex array;  (** one vertex per vertex player *)
      tp_choice : G.Strategy.t;
    }

    (** A validated mixed configuration together with its kernel
        tables, kept in sync by the constructors and by
        {!replace_vp}/{!replace_tp} — or, for a {!rescan} profile, no
        tables at all. *)
    type mixed

    (** [make_pure inst ~vp_choices ~tp_choice] validates arity, vertex
        range and the defender strategy ({!Game.S.validate}).
        @raise Invalid_argument otherwise. *)
    val make_pure :
      G.instance -> vp_choices:Graph.vertex list -> tp_choice:G.Strategy.t -> pure

    (** [make_mixed inst ~vp ~tp] validates: one distribution per vertex
        player over valid vertices; distinct playable defender
        strategies with positive probabilities summing to exactly 1.
        @raise Invalid_argument otherwise. *)
    val make_mixed :
      G.instance -> vp:Dist.Finite.t list -> tp:(G.Strategy.t * Q.t) list -> mixed

    (** Uniform-support shorthand used by all structured equilibria:
        every vertex player uniform on [vp_support], the defender uniform
        on [tp_support]. @raise Invalid_argument on empty supports or
        duplicates. *)
    val uniform :
      G.instance -> vp_support:Graph.vertex list -> tp_support:G.Strategy.t list -> mixed

    (** [rescan m]: the same instance and strategies without kernel
        tables; every leaf query re-scans the supports (the correctness
        oracle and the benchmarks' baseline).  Builds nothing;
        {!replace_vp} and {!replace_tp} on a rescan profile return
        rescan profiles and patch nothing. *)
    val rescan : mixed -> mixed

    val instance : mixed -> G.instance

    (** Strategy of vertex player [i]. @raise Invalid_argument if out of
        range. *)
    val vp_strategy : mixed -> int -> Dist.Finite.t

    (** All vertex players' strategies, indexed by player (a copy). *)
    val vp_strategies : mixed -> Dist.Finite.t array

    (** The defender's strategy: support strategies with probabilities. *)
    val tp_strategy : mixed -> (G.Strategy.t * Q.t) list

    (** D_s(vp_i): support of player [i], sorted. *)
    val vp_support : mixed -> int -> Graph.vertex list

    (** D_s(VP) = union of vertex players' supports, sorted. *)
    val vp_support_union : mixed -> Graph.vertex list

    (** D_s(tp): the defender's support strategies. *)
    val tp_support : mixed -> G.Strategy.t list

    (** P_s(Hit(v)). *)
    val hit_prob : mixed -> Graph.vertex -> Q.t

    (** m_s(v): expected number of vertex players on [v]. *)
    val expected_load : mixed -> Graph.vertex -> Q.t

    (** m_s(e) = m_s(u) + m_s(v) for an edge. *)
    val expected_load_edge : mixed -> Graph.edge_id -> Q.t

    (** m_s(d) = Σ_{v covered by d} m_s(v) for any defender strategy
        (not necessarily in the support): O(|covered d|) loads,
        independent of ν and of the support sizes on a kernel profile. *)
    val expected_load_strategy : mixed -> G.Strategy.t -> Q.t

    (** [replace_vp m i d] / [replace_tp m tp]: one-player deviations,
        used by best-response and robustness checks.  The kernel tables
        are patched incrementally: [replace_vp] touches only the two
        supports involved (the hit table is shared), [replace_tp]
        rebuilds only the hit table.  Both re-validate their input. *)
    val replace_vp : mixed -> int -> Dist.Finite.t -> mixed

    val replace_tp : mixed -> (G.Strategy.t * Q.t) list -> mixed

    (** True when every player's strategy is a point mass. *)
    val is_pure : mixed -> bool

    val pp : Format.formatter -> mixed -> unit
  end

  (** Expected individual profits (equations (1) and (2) of the paper),
      computed exactly through {!Profile}'s leaf queries. *)
  module Profit : sig
    (** Expected IP_i per equation (1): Σ_v P(vp_i = v) (1 − P(Hit(v))). *)
    val expected_vp : Profile.mixed -> int -> Q.t

    (** Expected IP_tp per equation (2): Σ_d P(tp = d) m_s(d). *)
    val expected_tp : Profile.mixed -> Q.t
  end

  (** Best-response values against a mixed configuration.

      The vertex players' best response is polynomial (scan vertices for
      the minimum hit probability).  The defender's best response
      maximizes m_s(d) over the whole strategy space; this module offers
      the exhaustive computation (guarded); {!Verify.Certificate} uses
      the game's cheap upper bound and {!Verify.Oracle} its exact
      weighted oracle instead. *)
  module Best_response : sig
    (** Max over vertices of [1 − Hit(v)]: the best payoff available to
        any vertex player.  Counts one [br.vp_sweeps]. *)
    val vp_best_value : Profile.mixed -> Q.t

    (** Max of m_s(d) over the whole strategy space, by enumeration.
        @raise Invalid_argument ["Best_response: tuple space too large
        for enumeration"] when the space exceeds {!enumeration_limit}
        strategies. *)
    val tp_best_value_exhaustive : Profile.mixed -> Q.t
  end

  (** Pure Nash equilibria by definition. *)
  module Pure : sig
    (** Direct definition check: no player improves by any unilateral
        pure deviation.  The defender's best deviation maximizes
        coverage over the whole strategy space, so this is exponential.
        @raise Invalid_argument ["Pure_nash: tuple space too large for
        brute-force inspection"] when the space exceeds
        {!enumeration_limit} strategies. *)
    val is_pure_ne : G.instance -> Profile.pure -> bool

    (** Brute-force existence: a pure NE exists iff some strategy covers
        every vertex (attackers are interchangeable, and only whether
        each is caught matters).  Used as a test oracle.
        @raise Invalid_argument as {!is_pure_ne}. *)
    val exists_brute_force : G.instance -> bool
  end

  (** Direct Nash-equilibrium verification (definitional best-response
      test), independent of any characterization — the ground-truth
      oracle the closed forms and solvers are tested against.

      A mixed configuration is an NE iff every vertex player's support
      lies on minimum-hit-probability vertices, and every support
      strategy of the defender attains the maximum of m_s(d) over the
      whole space.  The defender side needs that maximum; choose the
      mode accordingly. *)
  module Verify : sig
    type mode =
      | Exhaustive
          (** enumerate the strategy space
              ({!Best_response.tp_best_value_exhaustive}: raises
              [Invalid_argument] past {!enumeration_limit}) *)
      | Certificate
          (** compare against the game's certificate bound
              ({!Game.S.value_upper_bound}; for tuples the sum of the k
              largest edge loads m_s(e), tight in every k-matching
              equilibrium); sound but incomplete (can answer
              [Unknown]) *)
      | Oracle
          (** compare against the game's exact weighted best-response
              oracle ({!Game.S.best_response_weighted}, weighted by the
              profile's expected per-vertex loads; counts one
              [br.weighted_oracles]): complete like [Exhaustive] but
              enumeration-free, so it decides on strategy spaces of any
              size *)

    type verdict =
      | Confirmed
      | Refuted of string
          (** human-readable witness of a profitable deviation *)
      | Unknown of string  (** certificate failed to decide *)

    val verdict_is_confirmed : verdict -> bool
    val verdict_to_string : verdict -> string

    (** Check the vertex players only (always polynomial): [Confirmed]
        or [Refuted]. *)
    val vp_side : Profile.mixed -> verdict

    (** Check the defender only. *)
    val tp_side : mode -> Profile.mixed -> verdict

    (** Conjunction of both sides. *)
    val mixed_ne : mode -> Profile.mixed -> verdict
  end

  (** Text serialization of mixed configurations, so computed equilibria
      can be stored, audited and re-verified later (CLI [solve --save],
      [verify --load]).

      The tuple game writes the original "profile v1" format bit for
      bit (line-oriented, ['#'] comments):
      {v
      profile v1
      nu <int> k <int>
      vp <i> <vertex>:<num>/<den> ...
      tp <edge,edge,...>:<num>/<den> ...
      v}
      Every other game writes "profile v2" followed by a
      "game <name>" line, its own {!Game.S.params} on the sizes line,
      and {!Game.S.Strategy.to_ints} on the [tp] line.  The reader
      accepts both headers (v1 implies the tuple game) and rejects a
      profile of another game.  Probabilities are exact rationals, so a
      round trip is lossless.  The graph itself is not embedded — the
      loader takes the instance as an argument and validates the
      profile against it. *)
  module Io : sig
    (** Render a profile (without its graph). *)
    val to_string : Profile.mixed -> string

    (** Parse against an instance.  @raise Invalid_argument on syntax
        errors or inconsistency with the instance (wrong parameters,
        out-of-range vertices or strategies, probabilities not summing
        to 1). *)
    val of_string : G.instance -> string -> Profile.mixed

    val save : string -> Profile.mixed -> unit
    val load : G.instance -> string -> Profile.mixed
  end
end
