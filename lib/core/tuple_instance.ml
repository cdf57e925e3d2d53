(* The single application point of the exact engine (game_engine.mli)
   to the paper's tuple game; every tuple-game caller reaches Profile,
   Profit, Best_response, Verify, Io, ... through this module.
   Applicative functor semantics make every other mention of
   [Game_engine.Make (Tuple_game)] — notably the ones inside
   [Sim.Game_sim.Make] and [Solver.Double_oracle.Make] — share types
   with this one, so the simulation loops and the solvers all agree on
   one [Profile.mixed]. *)

module Engine = Game_engine.Make (Tuple_game)
