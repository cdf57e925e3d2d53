(* The double-oracle functor applied to the built-in games — the single
   application points, mirroring Tuple_instance/Subgraph_instance in
   lib/core: applicative functor semantics keep [Tuple]'s profile type
   equal to Defender.Tuple_instance.Engine's and [Subgraph]'s to
   Defender.Subgraph_instance.Engine's, so results flow straight into
   the engines' verification, gain and I/O paths. *)

module Tuple = Double_oracle.Make (Defender.Tuple_game)
module Subgraph = Double_oracle.Make (Defender.Subgraph_game)
