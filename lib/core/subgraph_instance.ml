(* The exact engine (game_engine.mli) applied to the connected-subgraph
   defender; the one application point the experiment family S, the
   CLI and the daemon share. *)

module Engine = Game_engine.Make (Subgraph_game)
