(* The GAME signature: everything the exact engine (Game_engine) and the
   simulation loops (Sim.Game_sim) need to know about one defender
   variant.  See game.mli for the contract each hook promises. *)

open Netgraph
module Q = Exact.Q

module type S = sig
  val name : string

  type instance

  module Strategy : sig
    type t

    val compare : t -> t -> int
    val equal : t -> t -> bool
    val pp : Format.formatter -> t -> unit
    val to_ints : t -> int list
  end

  val graph : instance -> Graph.t
  val nu : instance -> int
  val params : instance -> (string * int) list
  val pp_instance : Format.formatter -> instance -> unit
  val validate : instance -> Strategy.t -> unit
  val strategy_of_ints : instance -> int list -> Strategy.t
  val covered : instance -> Strategy.t -> Graph.vertex list
  val covers : instance -> Strategy.t -> Graph.vertex -> bool
  val fold_strategies : instance -> init:'a -> f:('a -> Strategy.t -> 'a) -> 'a
  val space_size_within : instance -> limit:int -> int option

  val value_upper_bound :
    instance ->
    load:(Graph.vertex -> Q.t) ->
    edge_load:(Graph.edge_id -> Q.t) ->
    Q.t

  val best_response_weighted : instance -> weight:Q.t array -> Strategy.t
  val greedy_response : instance -> load:int array -> Strategy.t
  val greedy_coverage_response : instance -> load:int array -> Strategy.t
  val greedy_by_counts : instance -> counts:int array -> Strategy.t
  val random_strategy : instance -> Prng.Rng.t -> Strategy.t
  val round_robin : instance -> round:int -> Strategy.t
  val scan_slots : instance -> int
  val scan_slot_ids : instance -> Strategy.t -> int list
end
