(* The polynomial Theorem 3.1 route to pure equilibria of the tuple game
   (edge covers are a tuple-game notion).  The definitional checks
   is_pure_ne and exists_brute_force live in the generic engine
   (Game_engine.Make (G).Pure). *)

open Netgraph

let exists model =
  Matching.Edge_cover.exists_of_size (Model.graph model) (Model.k model)

let construct model =
  match Matching.Edge_cover.of_size (Model.graph model) (Model.k model) with
  | None -> None
  | Some cover ->
      let g = Model.graph model in
      let tp_choice = Tuple.of_list g cover in
      Some
        (Tuple_instance.Engine.Profile.make_pure model
           ~vp_choices:(List.init (Model.nu model) (fun _ -> 0))
           ~tp_choice)

let cor33_applies model = Graph.n (Model.graph model) >= (2 * Model.k model) + 1
