module Q = Exact.Q

(* A simplex tableau over n structural columns and m rows.  Each row has
   n + m + 1 entries: structural columns, the slack block, then the
   right-hand side; [reduced] holds the n + m reduced costs.  At an
   optimum the slack block is B⁻¹ and the slack reduced costs are −y,
   with y the dual — which is all {!extend} needs to price new
   columns. *)
type tableau = {
  n : int;
  rows : Q.t array array;
  reduced : Q.t array;
  basis : int array;  (** basic variable of each row *)
  c : Q.t array;
}

type solution = {
  objective : Q.t;
  x : Q.t array;
  dual : Q.t array;
  tableau : tableau;
}

type outcome = Optimal of solution | Unbounded

let feasible ~a ~b ~x =
  Array.for_all (fun v -> Q.( >= ) v Q.zero) x
  && Array.for_all Fun.id
       (Array.mapi
          (fun i row ->
            let lhs = ref Q.zero in
            Array.iteri (fun j aij -> lhs := Q.add !lhs (Q.mul aij x.(j))) row;
            Q.( <= ) !lhs b.(i))
          a)

let value ~c ~x =
  let acc = ref Q.zero in
  Array.iteri (fun j cj -> acc := Q.add !acc (Q.mul cj x.(j))) c;
  !acc

(* Pivot column [j] into row [r]: scale the row by the pivot's inverse,
   then eliminate column [j] from every other row and from the reduced
   costs.  Only the pivot row's nonzero entries take part — a skipped
   term is 0·x, so the rationals are exactly those of the dense update. *)
let pivot_on t r j =
  let row = t.rows.(r) in
  let width = Array.length row in
  let inv = Q.inv row.(j) in
  let nz = Array.make width 0 and k = ref 0 in
  for jj = 0 to width - 1 do
    if not (Q.is_zero row.(jj)) then begin
      row.(jj) <- Q.mul row.(jj) inv;
      nz.(!k) <- jj;
      incr k
    end
  done;
  let k = !k in
  Array.iteri
    (fun i other ->
      let factor = other.(j) in
      if i <> r && not (Q.is_zero factor) then
        for p = 0 to k - 1 do
          let jj = nz.(p) in
          other.(jj) <- Q.sub other.(jj) (Q.mul factor row.(jj))
        done)
    t.rows;
  let factor = t.reduced.(j) in
  if not (Q.is_zero factor) then
    (* The last column is the right-hand side, which has no reduced cost. *)
    for p = 0 to k - 1 do
      let jj = nz.(p) in
      if jj < width - 1 then
        t.reduced.(jj) <- Q.sub t.reduced.(jj) (Q.mul factor row.(jj))
    done;
  t.basis.(r) <- j

(* Bland's rule from whatever basis [t] holds: the entering variable is
   the least index with a positive reduced cost, the leaving one wins
   the ratio test with ties going to the least basic index.  Both rules
   read variable indices only, never row positions. *)
let rec iterate t =
  let m = Array.length t.rows and cols = Array.length t.reduced in
  let entering = ref (-1) in
  (try
     for j = 0 to cols - 1 do
       if Q.( > ) t.reduced.(j) Q.zero then begin
         entering := j;
         raise Exit
       end
     done
   with Exit -> ());
  if !entering < 0 then begin
    let x = Array.make t.n Q.zero in
    Array.iteri
      (fun i var -> if var < t.n then x.(var) <- t.rows.(i).(cols))
      t.basis;
    let dual = Array.init m (fun i -> Q.neg t.reduced.(t.n + i)) in
    Optimal { objective = value ~c:t.c ~x; x; dual; tableau = t }
  end
  else begin
    let j = !entering in
    let leaving = ref (-1) in
    let best_ratio = ref Q.zero in
    for i = 0 to m - 1 do
      let tij = t.rows.(i).(j) in
      if Q.( > ) tij Q.zero then begin
        let ratio = Q.div t.rows.(i).(cols) tij in
        let better =
          !leaving < 0
          || Q.( < ) ratio !best_ratio
          || (Q.equal ratio !best_ratio && t.basis.(i) < t.basis.(!leaving))
        in
        if better then begin
          leaving := i;
          best_ratio := ratio
        end
      end
    done;
    if !leaving < 0 then Unbounded
    else begin
      pivot_on t !leaving j;
      iterate t
    end
  end

let maximize ~a ~b ~c =
  let m = Array.length a in
  let n = Array.length c in
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Simplex.maximize: ragged matrix")
    a;
  if Array.length b <> m then invalid_arg "Simplex.maximize: |b| <> rows";
  Array.iter
    (fun bi ->
      if Q.( < ) bi Q.zero then
        invalid_arg "Simplex.maximize: negative right-hand side (packing form)")
    b;
  let cols = n + m in
  let rows =
    Array.init m (fun i ->
        let row = Array.make (cols + 1) Q.zero in
        Array.blit a.(i) 0 row 0 n;
        row.(n + i) <- Q.one;
        row.(cols) <- b.(i);
        row)
  in
  let reduced = Array.make cols Q.zero in
  Array.blit c 0 reduced 0 n;
  let basis = Array.init m (fun i -> n + i) in
  iterate { n; rows; reduced; basis; c = Array.copy c }

let extend sol ~a ~c =
  let t = sol.tableau in
  let m = Array.length t.rows and n = t.n and k = Array.length c in
  if Array.length a <> m then invalid_arg "Simplex.extend: |a| <> rows";
  Array.iter
    (fun row ->
      if Array.length row <> k then
        invalid_arg "Simplex.extend: ragged columns")
    a;
  (* [dot v j] is Σ_l v.(l)·a_lj over the new column j. *)
  let dot v j =
    let acc = ref Q.zero in
    for l = 0 to m - 1 do
      let al = a.(l).(j) in
      if not (Q.is_zero al || Q.is_zero v.(l)) then
        acc := Q.add !acc (Q.mul v.(l) al)
    done;
    !acc
  in
  (* New columns go between the structural and slack blocks: entries
     B⁻¹a_j, reduced cost c_j − y·a_j; old slacks shift up by k. *)
  let rows =
    Array.map
      (fun old ->
        let binv = Array.sub old n m in
        Array.init (n + k + m + 1) (fun jj ->
            if jj < n then old.(jj)
            else if jj < n + k then dot binv (jj - n)
            else old.(jj - k)))
      t.rows
  in
  let slack_reduced = Array.sub t.reduced n m in
  let reduced =
    Array.init (n + k + m) (fun jj ->
        if jj < n then t.reduced.(jj)
        else if jj < n + k then Q.add c.(jj - n) (dot slack_reduced (jj - n))
        else t.reduced.(jj - k))
  in
  let basis = Array.map (fun v -> if v < n then v else v + k) t.basis in
  iterate { n = n + k; rows; reduced; basis; c = Array.append t.c c }
