(* The simulation loops (game_sim.mli) applied to the built-in games:
   the single application points every caller uses.  Applicative
   functor semantics keep their profile types equal to
   Defender.Tuple_instance.Engine's and Defender.Subgraph_instance.Engine's. *)

module Tuple = Game_sim.Make (Defender.Tuple_game)
module Subgraph = Game_sim.Make (Defender.Subgraph_game)
