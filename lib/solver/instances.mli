(** The double-oracle solver applied to the built-in games.

    These are the single application points of {!Double_oracle.Make} —
    mirroring [Tuple_instance]/[Subgraph_instance] in [lib/core] — and
    the modules everything downstream (tests, bench family D, the CLI
    [solve --method double-oracle], the query daemon) uses.  OCaml's
    applicative functor semantics keep [Tuple]'s profile type equal to
    [Defender.Tuple_instance.Engine]'s and [Subgraph]'s to
    [Defender.Subgraph_instance.Engine]'s, so solver results flow
    straight into the engines' verification, gain and I/O paths. *)

module Tuple : module type of Double_oracle.Make (Defender.Tuple_game)

module Subgraph : module type of Double_oracle.Make (Defender.Subgraph_game)
