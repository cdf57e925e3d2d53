(* Zero-sum matrix games by one exact-simplex run.  See matrix_game.mli
   for the contract; the derivation used here:

   Shift M by s so that M' = M + s has every entry >= 1 (shifting the
   payoff changes the value by s and no strategy).  The column player's
   optimal mix solves  min_y max_i (M'y)_i ; substituting w = y / v'
   (v' the shifted value, > 0) turns it into the packing LP

     max sum_j w_j   s.t.  M'w <= 1,  w >= 0

   whose optimum is 1/v'.  Then y = w / sum w, and by strong duality the
   dual vector u (one multiplier per row) has sum u = sum w with
   x = u / sum u the row player's optimal mix.  Exact rationals make
   both read-offs equalities, so the result is a certificate. *)

module Q = Exact.Q

type warm = { lp : Simplex.solution; rows : int; cols : int; shift : Q.t }

type solution = {
  value : Q.t;
  row_strategy : Q.t array;
  col_strategy : Q.t array;
  warm : warm;
}

let check_shape m =
  let rows = Array.length m in
  if rows = 0 then invalid_arg "Matrix_game.solve: empty matrix";
  let cols = Array.length m.(0) in
  if cols = 0 then invalid_arg "Matrix_game.solve: empty matrix";
  Array.iter
    (fun row ->
      if Array.length row <> cols then
        invalid_arg "Matrix_game.solve: ragged matrix")
    m;
  (rows, cols)

let solve ?warm m =
  let rows, cols = check_shape m in
  let lo =
    Array.fold_left
      (fun acc row -> Array.fold_left Q.min acc row)
      m.(0).(0) m
  in
  let shift = if Q.( < ) lo Q.one then Q.sub Q.one lo else Q.zero in
  let shifted v = Q.add v shift in
  let outcome =
    match warm with
    | Some w when w.rows = rows && w.cols <= cols && Q.equal w.shift shift ->
        (* Same rows, same shift: the old tableau is the LP's optimum
           with the appended columns at 0, so price them into it.  A
           changed shift rewrites every old column, so it solves cold. *)
        let k = cols - w.cols in
        let appended row = Array.init k (fun j -> shifted row.(w.cols + j)) in
        Simplex.extend w.lp ~a:(Array.map appended m) ~c:(Array.make k Q.one)
    | _ ->
        Simplex.maximize
          ~a:(Array.map (Array.map shifted) m)
          ~b:(Array.make rows Q.one) ~c:(Array.make cols Q.one)
  in
  match outcome with
  | Simplex.Unbounded ->
      (* Impossible: every entry of [a] is >= 1, so sum w <= 1 over any
         single constraint row. *)
      assert false
  | Simplex.Optimal ({ objective; x = w; dual = u; _ } as lp) ->
      (* objective = 1/v' > 0 since v' is finite and positive. *)
      assert (Q.( > ) objective Q.zero);
      let usum = Array.fold_left Q.add Q.zero u in
      (* Strong duality, exactly. *)
      assert (Q.equal usum objective);
      let value = Q.sub (Q.inv objective) shift in
      let col_strategy = Array.map (fun wj -> Q.div wj objective) w in
      let row_strategy = Array.map (fun ui -> Q.div ui objective) u in
      { value; row_strategy; col_strategy; warm = { lp; rows; cols; shift } }

let is_distribution p =
  Array.for_all (fun v -> Q.( >= ) v Q.zero) p
  && Q.equal (Array.fold_left Q.add Q.zero p) Q.one

let is_equilibrium m (sol : solution) =
  let rows, cols = check_shape m in
  Array.length sol.row_strategy = rows
  && Array.length sol.col_strategy = cols
  && is_distribution sol.row_strategy
  && is_distribution sol.col_strategy
  (* No row beats the value against the column mix... *)
  && Array.for_all
       (fun row ->
         let payoff = ref Q.zero in
         Array.iteri
           (fun j v -> payoff := Q.add !payoff (Q.mul v sol.col_strategy.(j)))
           row;
         Q.( <= ) !payoff sol.value)
       m
  (* ...and no column drops below it against the row mix. *)
  &&
  let ok = ref true in
  for j = 0 to cols - 1 do
    let payoff = ref Q.zero in
    for i = 0 to rows - 1 do
      payoff := Q.add !payoff (Q.mul m.(i).(j) sol.row_strategy.(i))
    done;
    if Q.( < ) !payoff sol.value then ok := false
  done;
  !ok
