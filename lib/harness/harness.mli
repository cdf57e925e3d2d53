(** The [Harness] namespace root: experiment engine, JSON codec,
    persistent worker pool, statistics, tables and timers, plus the
    zero-dependency observability core re-exported as [Harness.Obs].

    [Obs] lives in its own library below [exact]/[matching]/[defender]
    in the dependency graph so those libraries can instrument
    themselves; this module folds it back into the one namespace that
    the bench driver, the CLI and the tests already use. *)

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
