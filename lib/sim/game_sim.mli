(** Simulation loops generic over a {!Defender.Game.S} instance.

    [Make (G)] builds, for one game, four round-by-round simulations:
    fictitious play, pure best-response dynamics, Monte-Carlo play of a
    mixed profile, and policy workloads.  The built-in applications are
    [Sim_instance.Tuple] and [Sim_instance.Subgraph].  Profiles are
    those of [Defender.Game_engine.Make (G)], by applicative functor
    semantics the very types of [Defender.Tuple_instance.Engine] and
    [Defender.Subgraph_instance.Engine].

    Every loop is deterministic in its {!Prng.Rng.t}: PRNG draws, fold
    orders and error strings are load-bearing (the tuple game's
    experiment tables are byte-gated).  Some error strings keep the
    tuple game's wording ("... tuple size <> k") in every game. *)

open Netgraph

module Make (G : Defender.Game.S) : sig
  (** Fictitious play.

      Each round every attacker best-responds to the defender's
      {e empirical} scan frequencies (a least-scanned vertex, ties
      broken uniformly) and the defender best-responds to the
      attackers' empirical location frequencies (exactly by enumeration
      when the strategy space has at most 100_000 strategies, by
      {!Defender.Game.S.greedy_response} otherwise).  The game is
      strategically zero-sum between the defender and the (symmetric)
      attacker population, so by Robinson's theorem the time-averaged
      play converges to equilibrium values: for the tuple game the
      long-run average catch approaches the k-matching NE gain
      k·ν/|IS| on instances that admit one (experiment F6), for the
      subgraph game νλ/n on cycles (S2). *)
  module Fictitious : sig
    type result = {
      rounds : int;
      avg_gain : float;  (** time-averaged defender catches per round *)
      tail_avg_gain : float;
          (** average over the last half (burn-in dropped) *)
      attack_frequency : float array;
          (** empirical attacker distribution over vertices *)
      scan_frequency : float array;
          (** empirical scan rate per scan slot
              ({!Defender.Game.S.scan_slots}: edges for tuples, vertices
              for subgraphs) *)
      gain_series : float array;
          (** prefix-averaged gain, for convergence plots *)
    }

    (** [run rng inst ~rounds] plays the learning dynamics.

        The empirical tables (per-vertex scan hits and attack counts)
        are maintained {e incrementally} across rounds — the integer
        analogue of the engine's kernel tables.  [~naive:true] instead
        re-derives both tables from the full play history at the start
        of every round (the analogue of the engine's per-query support
        re-scan on a [Profile.rescan] profile); the two modes are
        bit-for-bit identical in output and are compared by the kernel
        microbenchmarks and equality tests.
        @raise Invalid_argument if [rounds < 2]. *)
    val run : ?naive:bool -> Prng.Rng.t -> G.instance -> rounds:int -> result
  end

  (** Best-response dynamics in pure strategies.

      Starting from a random pure configuration, a randomly chosen
      dissatisfied player switches each step — attackers to a random
      uncovered vertex, the defender to a best response (exact by
      enumeration when the strategy space has at most 200_000
      strategies, {!Defender.Game.S.greedy_coverage_response}
      otherwise), moving only on a strict payoff improvement and
      breaking ties among best responses toward maximum vertex
      coverage.  With that tie-break the process converges exactly when
      a pure NE exists (a strategy covering every vertex: for tuples an
      edge cover of size k, Theorem 3.1), since any defender
      improvement step lands on a full cover.  When n ≥ 2k+1 the tuple
      game has no pure NE and the dynamics churn forever, which
      experiment T2 demonstrates by step-budget timeout. *)
  module Dynamics : sig
    type result =
      | Converged of {
          steps : int;
          profile : Defender.Game_engine.Make(G).Profile.pure;
        }
      | Cycling of { steps : int }
          (** step budget exhausted without a pure NE *)

    type step_record = {
      step : int;
      mover : [ `Attacker of int | `Defender ];
      caught_after : int;
    }

    (** [run rng inst ~max_steps] plays the dynamics.  A profile is only
        reported [Converged] after a stability check that is exact
        whenever the strategy space is enumerable (and greedy beyond,
        where a false convergence report is possible — callers doing
        science should stay in the exact regime).  [record] observes
        each step. *)
    val run :
      ?record:(step_record -> unit) ->
      Prng.Rng.t ->
      G.instance ->
      max_steps:int ->
      result
  end

  (** Monte-Carlo play of a mixed profile: repeated independent rounds
      in which every vertex player samples a vertex and the defender
      samples a pure strategy, used to validate the exact expected
      profits empirically (experiment T7). *)
  module Engine : sig
    type round = {
      index : int;
      choices : Graph.vertex array;  (** attacker positions this round *)
      tuple : G.Strategy.t;  (** defender's scan this round *)
      caught : int;  (** attackers arrested this round *)
    }

    type stats = {
      rounds : int;
      total_caught : int;
      mean_caught : float;  (** empirical defender gain per round *)
      stddev_caught : float;
          (** sample (n−1) estimator; 0 for one round *)
      per_player_escapes : int array;  (** rounds escaped, per attacker *)
    }

    (** 95% confidence half-width for [mean_caught] (normal
        approximation). *)
    val confidence95 : stats -> float

    (** [play rng profile ~rounds] simulates i.i.d. rounds of the mixed
        configuration.  [record] (optional) observes every round.
        @raise Invalid_argument if [rounds < 1]. *)
    val play :
      ?record:(round -> unit) ->
      Prng.Rng.t ->
      Defender.Game_engine.Make(G).Profile.mixed ->
      rounds:int ->
      stats

    (** [agrees_with_analytic ?z stats profile] — empirical mean within
        [z] standard errors (default 4, a ~1-in-16000 false-alarm band
        chosen so batched regression runs stay deterministic-green) of
        the exact expectation, plus an absolute slack of 1e-9 for
        degenerate zero-variance cases.  The exact expectation follows
        the profile ({!Defender.Game_engine.Make.Profile.rescan} for the
        support-rescanning reference). *)
    val agrees_with_analytic :
      ?z:float ->
      stats ->
      Defender.Game_engine.Make(G).Profile.mixed ->
      bool
  end

  (** Attack/defense policies beyond fixed mixed strategies, for
      scenario simulation: what happens off-equilibrium, and why the NE
      defense is the right thing to deploy (ablation experiments A1/A2).

      Policies are stateful round-by-round players.  Adaptive attackers
      epsilon-greedily re-target the vertices the defender has scanned
      least; the greedy defender chases the empirically hottest
      resources ({!Defender.Game.S.greedy_by_counts}).  Against the NE
      defense, adaptation buys the attackers nothing — that is Theorem
      3.4 read operationally. *)
  module Workload : sig
    type attacker_policy =
      | Attacker_fixed of Dist.Finite.t
          (** sample from a fixed distribution every round *)
      | Attacker_uniform  (** uniform over all vertices *)
      | Attacker_hotspot of {
          targets : Graph.vertex list;
          concentration : float;
        }
          (** probability [concentration] spread over [targets],
              remainder over the other vertices *)
      | Attacker_adaptive of { epsilon : float }
          (** with prob [1-epsilon] pick a least-hit-so-far vertex, else
              explore uniformly *)

    type defender_policy =
      | Defender_fixed of (G.Strategy.t * Exact.Q.t) list
          (** e.g. the NE strategy *)
      | Defender_uniform_tuple
          (** a uniformly random pure strategy
              ({!Defender.Game.S.random_strategy}) *)
      | Defender_greedy of { epsilon : float }
          (** scan the empirically hottest resources; explore with prob
              [epsilon] *)
      | Defender_round_robin
          (** deterministic cyclic sweep
              ({!Defender.Game.S.round_robin}) *)
      | Defender_flaky of { base : defender_policy; failure_rate : float }
          (** failure injection: with probability [failure_rate] the
              round's scan silently produces nothing (sensor outage,
              dropped mirror-port traffic); otherwise delegates to
              [base].  The NE gain degrades exactly linearly:
              (1 − f)·k·ν/|IS| for tuples. *)

    type outcome = {
      rounds : int;
      total_caught : int;
      mean_caught : float;
      caught_series : int array;
          (** per-round catches, for time-series plots *)
    }

    (** [run rng inst ~attacker ~defender ~rounds] plays the policies
        against each other. @raise Invalid_argument on [rounds < 1] or
        a fixed policy inconsistent with the instance. *)
    val run :
      Prng.Rng.t ->
      G.instance ->
      attacker:attacker_policy ->
      defender:defender_policy ->
      rounds:int ->
      outcome

    val policy_name : defender_policy -> string
    val attacker_name : attacker_policy -> string
  end
end
