module Q = Exact.Q
module Finite = Dist.Finite
module E = Tuple_instance.Engine

type regret = { attacker : Q.t; defender : Q.t }

let regret m =
  let nu = Model.nu (E.Profile.instance m) in
  let best_vp = E.Best_response.vp_best_value m in
  let attacker =
    List.fold_left
      (fun acc i -> Q.max acc (Q.sub best_vp (E.Profit.expected_vp m i)))
      Q.zero
      (List.init nu Fun.id)
  in
  let best_tp = E.Best_response.tp_best_value_exhaustive m in
  let defender = Q.max Q.zero (Q.sub best_tp (E.Profit.expected_tp m)) in
  { attacker; defender }

let max_regret r = Q.max r.attacker r.defender

let is_epsilon_ne m ~epsilon = Q.( <= ) (max_regret (regret m)) epsilon

let check_epsilon epsilon =
  if Q.( < ) epsilon Q.zero || Q.( > ) epsilon Q.one then
    invalid_arg "Robustness: epsilon outside [0, 1]"

let tilt_vp m i ~epsilon ~towards =
  check_epsilon epsilon;
  let current = E.Profile.vp_strategy m i in
  let keep = Q.sub Q.one epsilon in
  let outcomes = List.sort_uniq compare (towards :: Finite.support current) in
  let mixed =
    List.map
      (fun v ->
        let base = Q.mul keep (Finite.prob current v) in
        let bonus = if v = towards then epsilon else Q.zero in
        (v, Q.add base bonus))
      outcomes
  in
  E.Profile.replace_vp m i (Finite.make mixed)

let tilt_tp m ~epsilon ~towards =
  check_epsilon epsilon;
  let keep = Q.sub Q.one epsilon in
  let strategy = E.Profile.tp_strategy m in
  let present = List.exists (fun (t, _) -> Tuple.equal t towards) strategy in
  let scaled = List.map (fun (t, p) -> (t, Q.mul keep p)) strategy in
  let with_bonus =
    if present then
      List.map
        (fun (t, p) -> if Tuple.equal t towards then (t, Q.add p epsilon) else (t, p))
        scaled
    else (towards, epsilon) :: scaled
  in
  let positive = List.filter (fun (_, p) -> Q.sign p > 0) with_bonus in
  E.Profile.replace_tp m positive
