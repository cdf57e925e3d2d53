(* The library's root module.  It exists for one reason: to re-export
   the zero-dependency observability core as [Harness.Obs].  [Obs] must
   live below [exact]/[matching]/[defender] in the dependency graph so
   those libraries can instrument themselves, but harness users (the
   bench driver, the CLI, the tests) reach everything — experiment
   engine and observability alike — through the one [Harness] namespace. *)

module Daemon = Daemon
module Experiment = Experiment
module Json = Json
module Lru = Lru
module Obs = Obs
module Pool = Pool
module Registry = Registry
module Stats = Stats
module Table = Table
module Timer = Timer
module Wire = Wire
