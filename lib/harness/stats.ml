(* NaN or infinite samples would propagate silently through every moment
   and fit below (a NaN mean poisons acceptance bands and R²); fail
   loudly at the door instead. *)
let check_finite ~who x =
  if not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "%s: non-finite sample %h" who x)

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty list"
  | _ ->
      List.iter (check_finite ~who:"Stats.mean") xs;
      List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

type fit = { slope : float; intercept : float; r_squared : float }

let linear_fit points =
  let n = List.length points in
  if n < 2 then invalid_arg "Stats.linear_fit: need at least two points";
  List.iter
    (fun (x, y) ->
      check_finite ~who:"Stats.linear_fit" x;
      check_finite ~who:"Stats.linear_fit" y)
    points;
  let xs = List.map fst points and ys = List.map snd points in
  let mx = mean xs and my = mean ys in
  let sxx = List.fold_left (fun acc x -> acc +. ((x -. mx) ** 2.0)) 0.0 xs in
  if sxx = 0.0 then invalid_arg "Stats.linear_fit: x values are all equal";
  let sxy =
    List.fold_left2 (fun acc x y -> acc +. ((x -. mx) *. (y -. my))) 0.0 xs ys
  in
  let slope = sxy /. sxx in
  let intercept = my -. (slope *. mx) in
  let ss_tot = List.fold_left (fun acc y -> acc +. ((y -. my) ** 2.0)) 0.0 ys in
  let ss_res =
    List.fold_left2
      (fun acc x y ->
        let predicted = (slope *. x) +. intercept in
        acc +. ((y -. predicted) ** 2.0))
      0.0 xs ys
  in
  let r_squared = if ss_tot = 0.0 then 1.0 else 1.0 -. (ss_res /. ss_tot) in
  { slope; intercept; r_squared }

let is_linear ?(tolerance = 1e-6) points =
  (linear_fit points).r_squared >= 1.0 -. tolerance

let power_law_exponent points =
  let logged =
    List.map
      (fun (x, y) ->
        if x <= 0.0 || y <= 0.0 then
          invalid_arg "Stats.power_law_exponent: non-positive data";
        (log x, log y))
      points
  in
  (linear_fit logged).slope
