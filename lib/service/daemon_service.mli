(** The defender instantiation of {!Harness.Daemon}: the request
    vocabulary the query daemon speaks, the canonical-instance cache
    key, and the worker-side handler.

    {b Requests} (all fields beyond [op] and [graph6] optional, with
    defaults [k = 1], [nu = 1], [lambda = 1], [game = "tuple"],
    [method = "characterization"]):

    - [{"op":"solve", "graph6":G6, "k":K, "nu":NU}] — run the A_tuple
      solver; the result reports only isomorphism-invariant facts:
      [{"solvable":true, "gain":Q, "escape":Q, "rho":int,
      "verdict":string}] or [{"solvable":false, "reason":string}]
      (both cacheable answers).  Rational quantities are exact [p/q]
      strings.
    - [{"op":"solve", …, "method":"double-oracle"}] — run the
      {!Solver.Double_oracle} loop instead; works on any instance of
      either game (["game":"subgraph"] reads [lambda]).  The result
      again carries only invariants — [{"solvable":true, "value":Q,
      "gain":Q, "escape":Q, "verdict":string}] (plus ["rho"] for the
      tuple game), verified in the enumeration-free Oracle mode —
      never the iteration or oracle-call counts, which depend on the
      vertex labeling and would poison the label-erasing cache.
    - [{"op":"profit", "graph6":G6, "k":K, "nu":NU, "profile":text}] —
      evaluate a "profile v1" text profile
      ([Defender.Tuple_instance.Engine.Io]):
      [{"gain":Q, "escape":[Q, …]}] (one entry per attacker).
    - [{"op":"equilibrium-check", …, "profile":text,
      "mode":"certificate"|"exhaustive"|"oracle"}] — re-verify a
      profile: [{"confirmed":bool, "verdict":string}].

    {b Caching.}  Only [solve] is cached, keyed on
    [Graph6.canonical g ^ "|game=…|p=…|nu=…"] — so relabelings of one
    instance share a cache entry, which is sound precisely because the
    solve result carries no vertex or edge labels.  Double-oracle
    solves append ["|method=double-oracle"], keeping every
    pre-existing characterization key valid.  [profit] and
    [equilibrium-check] answers depend on the client's labeling (the
    profile names vertices and edges) and are never cached. *)

(** The parent-side cache-key function ({!Harness.Daemon.serve}'s
    [cache_key]): [Some key] for well-formed [solve] requests, [None]
    otherwise (including requests whose graph6 fails to decode — those
    proceed to the worker and fail there with a proper error). *)
val cache_key : Harness.Json.t -> string option

(** The worker-side handler: total — every failure, including malformed
    input, comes back as an [{"ok":false, "error":…}] payload rather
    than an exception (an escaped exception would cost a worker respawn
    and an identical-fate retry). *)
val handle : Harness.Json.t -> Harness.Json.t

(** {!Harness.Daemon.serve} specialized to {!cache_key} and {!handle}:
    the whole defender query daemon in one call.  Parameters are
    forwarded verbatim; see {!Harness.Daemon.serve}. *)
val serve :
  address:Harness.Daemon.address ->
  workers:int ->
  ?timeout:float ->
  ?max_inflight:int ->
  ?cache_entries:int ->
  ?max_frame:int ->
  ?on_ready:(Unix.sockaddr -> unit) ->
  unit ->
  Harness.Daemon.stats
