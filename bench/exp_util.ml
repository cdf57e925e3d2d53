(* Shared helpers for the experiment harness. *)

module Q = Exact.Q

let ok = function
  | Ok x -> x
  | Error e -> failwith ("experiment setup failed: " ^ e)

let model ~g ~nu ~k = Defender.Model.make ~graph:g ~nu ~k

let yesno b = if b then "yes" else "no"

(* Atlas restricted to instances whose full tuple space stays enumerable
   for the k values a table sweeps. *)
let small_atlas () = Netgraph.Gen.atlas_small ()

let q_str = Q.to_string

let checkmark ok = if ok then "ok" else "MISMATCH"

(* Every kernel table entry of [prof] equals its support re-scan on
   [Profile.rescan prof]: hit probability and expected load per vertex,
   expected load per edge. *)
let kernel_equals_rescan prof =
  let module P = Defender.Tuple_instance.Engine.Profile in
  let g = Defender.Model.graph (P.instance prof) in
  let rescan = P.rescan prof in
  Seq.for_all
    (fun v ->
      Q.equal (P.hit_prob prof v) (P.hit_prob rescan v)
      && Q.equal (P.expected_load prof v) (P.expected_load rescan v))
    (Seq.init (Netgraph.Graph.n g) Fun.id)
  && Seq.for_all
       (fun id ->
         Q.equal (P.expected_load_edge prof id) (P.expected_load_edge rescan id))
       (Seq.init (Netgraph.Graph.m g) Fun.id)
