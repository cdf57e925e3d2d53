module Q = Exact.Q
module E = Tuple_instance.Engine

let defender_gain m = E.Profit.expected_tp m

let predicted_gain model ~is_size =
  if is_size < 1 then invalid_arg "Gain.predicted_gain: empty support";
  Q.make (Model.k model * Model.nu model) is_size

let escape_probability m i = E.Profit.expected_vp m i

let gain_ratio high low = Q.div (defender_gain high) (defender_gain low)

let protection_quality m =
  Q.div_int (defender_gain m) (Model.nu (E.Profile.instance m))

let price_of_defense m =
  Q.div (Q.of_int (Model.nu (E.Profile.instance m))) (defender_gain m)

let predicted_price_of_defense model ~is_size =
  if is_size < 1 then invalid_arg "Gain.predicted_price_of_defense: empty support";
  Q.make is_size (Model.k model)
