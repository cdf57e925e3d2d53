(* The tuple game's NE verification, kept under this name only because
   the perfbench/ benchmark harness calls Defender.Verify.mixed_ne and
   Defender.Verify.Oracle.  Library, CLI, bench and test code use
   Tuple_instance.Engine.Verify (documented in game_engine.mli). *)

include Tuple_instance.Engine.Verify
