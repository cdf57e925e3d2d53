module Q = Exact.Q
module E = Tuple_instance.Engine

type t = { model : Model.t; weights : Q.t array }

let make model ~weights =
  if List.length weights <> Model.nu model then
    invalid_arg "Weighted.make: need exactly nu weights";
  List.iter
    (fun w -> if Q.sign w <= 0 then invalid_arg "Weighted.make: weights must be positive")
    weights;
  { model; weights = Array.of_list weights }

let total_weight t = Array.fold_left Q.add Q.zero t.weights

let expected_load t profile v =
  let acc = ref Q.zero in
  Array.iteri
    (fun i w ->
      acc := Q.add !acc (Q.mul w (Dist.Finite.prob (E.Profile.vp_strategy profile i) v)))
    t.weights;
  !acc

let expected_load_tuple t profile tuple =
  let g = Model.graph t.model in
  Q.sum (List.map (expected_load t profile) (Tuple.vertices g tuple))

(* Hot loops precompute the per-vertex weighted-load table
   Σ_i w_i · P(vp_i = v) once so each tuple query is O(k) instead of
   O(k·ν·log supp).  The "Payoff_kernel." error prefix is kept
   verbatim. *)
let load_table t profile =
  let vp = E.Profile.vp_strategies profile in
  if Array.length t.weights <> Array.length vp then
    invalid_arg "Payoff_kernel.weighted_loads: need one weight per player";
  let load = Array.make (Netgraph.Graph.n (Model.graph t.model)) Q.zero in
  Array.iteri
    (fun i d ->
      Dist.Finite.iter d ~f:(fun v p ->
          load.(v) <- Q.add load.(v) (Q.mul t.weights.(i) p)))
    vp;
  load

let table_load_tuple t loads tuple =
  let g = Model.graph t.model in
  List.fold_left
    (fun acc v -> Q.add acc loads.(v))
    Q.zero
    (Tuple.vertices g tuple)

let expected_tp t profile =
  let loads = load_table t profile in
  Q.sum
    (List.map
       (fun (tuple, p) -> Q.mul p (table_load_tuple t loads tuple))
       (E.Profile.tp_strategy profile))

let expected_vp t profile i =
  Q.mul t.weights.(i) (E.Profit.expected_vp profile i)

let verify_ne ?(limit = 2_000_000) t profile =
  (* Attacker side is weight-invariant: minimum-hit support. *)
  match E.Verify.vp_side profile with
  | (E.Verify.Refuted _ | E.Verify.Unknown _) as v -> v
  | E.Verify.Confirmed -> (
      let g = Model.graph t.model in
      let k = Model.k t.model in
      (match Model.tuple_space_size t.model with
      | Some c when c <= limit -> ()
      | _ -> invalid_arg "Weighted.verify_ne: tuple space too large");
      let table = load_table t profile in
      let loads =
        List.map
          (fun (tuple, _) -> table_load_tuple t table tuple)
          (E.Profile.tp_strategy profile)
      in
      let low = Q.min_list loads and high = Q.max_list loads in
      if Q.( < ) low high then
        E.Verify.Refuted "defender support mixes tuples of different weighted value"
      else
        let best =
          Tuple.fold_enumerate g ~k ~init:Q.zero ~f:(fun acc tuple ->
              Q.max acc (table_load_tuple t table tuple))
        in
        if Q.( < ) low best then
          E.Verify.Refuted
            (Printf.sprintf "a tuple of weighted value %s beats the support's %s"
               (Q.to_string best) (Q.to_string low))
        else E.Verify.Confirmed)

let a_tuple t partition = Tuple_nash.a_tuple t.model partition

let predicted_gain t ~is_size =
  if is_size < 1 then invalid_arg "Weighted.predicted_gain: empty support";
  Q.div_int (Q.mul_int (total_weight t) (Model.k t.model)) is_size
