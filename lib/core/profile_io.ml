(* The tuple game's profile I/O, kept under this name only because the
   perfbench/ benchmark harness calls Defender.Profile_io.to_string.
   Library, CLI, bench and test code use Tuple_instance.Engine.Io
   (documented in game_engine.mli). *)

include Tuple_instance.Engine.Io
