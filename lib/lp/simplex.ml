module Q = Exact.Q

(* A fraction-free simplex tableau over n structural columns and m rows.
   Each row has n + m + 1 integer entries: structural columns, the slack
   block, then the right-hand side; [reduced] holds the n + m integer
   reduced costs.  Every entry N stands for N/d, where d is the last
   pivot element (|det B| of the scaled problem, 1 at the all-slack
   basis), so a pivot is integer multiplies and exact divides with no
   gcd.  At an optimum the slack block is d·B⁻¹ and the slack reduced
   costs are −d·y — which is all {!extend} needs to price new columns.

   The tableau solves a positively scaled copy of the problem: row i
   (with b_i) is multiplied by [row_scale.(i)], column j by
   [col_scale.(j)] and the objective by [obj_scale], each the least
   factor that clears its denominators.  Positive scaling changes no
   sign and multiplies every ratio of one ratio test by the same
   factor, so Bland's rule takes the pivots it takes on the unscaled
   rational tableau; {!read_off} undoes the scaling. *)
type tableau = {
  n : int;
  rows : Q.t array array;
  reduced : Q.t array;
  mutable d : Q.t;
  basis : int array;  (** basic variable of each row *)
  c : Q.t array;  (** the unscaled objective *)
  row_scale : Q.t array;
  col_scale : Q.t array;
  obj_scale : Q.t;
}

type solution = {
  objective : Q.t;
  x : Q.t array;
  dual : Q.t array;
  tableau : tableau;
}

type outcome = Optimal of solution | Unbounded

let c_pivots = Obs.counter "lp.pivots"

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

let scaled s v = if Q.equal s Q.one then v else Q.mul s v

(* The least positive integer s with s·v integral for every v in [vs]:
   the lcm of their denominators. *)
let clearing vs =
  Array.fold_left
    (fun s v ->
      let w = scaled s v in
      if Q.is_integer w then s
      else
        let _, den = Q.to_big w in
        Q.mul s
          (Q.of_big ~num:(Exact.Bigint.make ~sign:1 den) ~den:Exact.Bigint.one))
    Q.one vs

(* Pivot column [j] into row [r]: with p the pivot element, every other
   row and the reduced costs become (p·N − N_j·N_r)/d, an exact integer
   division (Bareiss); the pivot row keeps its integers and p becomes
   the new d.  A zero in the pivot row or in column [j] leaves p·N/d,
   which is N itself when p = d. *)
let pivot_on t r j =
  Obs.incr c_pivots;
  let prow = t.rows.(r) in
  let p = prow.(j) and d = t.d in
  let unit = Q.equal p d in
  let eliminate row f len =
    let fz = Q.is_zero f in
    if not (fz && unit) then
      for k = 0 to len - 1 do
        let v = row.(k) and w = prow.(k) in
        if not (fz || Q.is_zero w) then row.(k) <- Q.bareiss p v f w d
        else if not (unit || Q.is_zero v) then
          row.(k) <- Q.bareiss p v Q.zero Q.zero d
      done
  in
  Array.iteri
    (fun i row -> if i <> r then eliminate row row.(j) (Array.length row))
    t.rows;
  (* [reduced] stops short of the right-hand side, the last column. *)
  eliminate t.reduced t.reduced.(j) (Array.length t.reduced);
  t.d <- p;
  t.basis.(r) <- j

(* The optimum of the unscaled problem: x_j = col_scale_j·N/d for a basic
   structural column and y_i = −row_scale_i·R_(n+i) / (d·obj_scale). *)
let read_off t =
  let cols = Array.length t.reduced in
  let x = Array.make t.n Q.zero in
  Array.iteri
    (fun i var ->
      if var < t.n then
        x.(var) <- Q.div (scaled t.col_scale.(var) t.rows.(i).(cols)) t.d)
    t.basis;
  let dd = scaled t.obj_scale t.d in
  let dual =
    Array.mapi
      (fun i s -> Q.div (scaled s (Q.neg t.reduced.(t.n + i))) dd)
      t.row_scale
  in
  Optimal { objective = value ~c:t.c ~x; x; dual; tableau = t }

(* Bland's rule from whatever basis [t] holds: the entering variable is
   the least index with a positive reduced cost, the leaving one wins
   the ratio test with ties going to the least basic index.  Both rules
   read variable indices only, never row positions.  As d > 0, signs
   are those of the integers, and ratios N_rhs/N_j compare by
   cross-multiplication. *)
let rec iterate t =
  let m = Array.length t.rows and cols = Array.length t.reduced in
  let entering = ref (-1) in
  (try
     for j = 0 to cols - 1 do
       if Q.sign t.reduced.(j) > 0 then begin
         entering := j;
         raise Exit
       end
     done
   with Exit -> ());
  if !entering < 0 then read_off t
  else begin
    let j = !entering in
    let leaving = ref (-1) in
    for i = 0 to m - 1 do
      let row = t.rows.(i) in
      if Q.sign row.(j) > 0 then begin
        let better =
          !leaving < 0
          ||
          let best = t.rows.(!leaving) in
          let cmp =
            Q.sign (Q.bareiss row.(cols) best.(j) best.(cols) row.(j) Q.one)
          in
          cmp < 0 || (cmp = 0 && t.basis.(i) < t.basis.(!leaving))
        in
        if better then leaving := i
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
  let row_scale =
    Array.init m (fun i -> clearing (Array.append a.(i) [| b.(i) |]))
  in
  let obj_scale = clearing c in
  let rows =
    Array.init m (fun i ->
        let s = row_scale.(i) in
        let row = Array.make (cols + 1) Q.zero in
        Array.iteri (fun j aij -> row.(j) <- scaled s aij) a.(i);
        row.(n + i) <- Q.one;
        row.(cols) <- scaled s b.(i);
        row)
  in
  let reduced = Array.make cols Q.zero in
  Array.iteri (fun j cj -> reduced.(j) <- scaled obj_scale cj) c;
  let basis = Array.init m (fun i -> n + i) in
  iterate
    {
      n;
      rows;
      reduced;
      d = Q.one;
      basis;
      c = Array.copy c;
      row_scale;
      col_scale = Array.make n Q.one;
      obj_scale;
    }

let extend sol ~a ~c =
  let t = sol.tableau in
  let m = Array.length t.rows and n = t.n and k = Array.length c in
  if Array.length a <> m then invalid_arg "Simplex.extend: |a| <> rows";
  Array.iter
    (fun row ->
      if Array.length row <> k then
        invalid_arg "Simplex.extend: ragged columns")
    a;
  (* New column j in the scaled problem: row_scale_l·a_lj and
     obj_scale·c_j, then times its own clearing factor. *)
  let raw =
    Array.init k (fun j ->
        Array.init (m + 1) (fun l ->
            if l < m then scaled t.row_scale.(l) a.(l).(j)
            else scaled t.obj_scale c.(j)))
  in
  let col_scale = Array.map clearing raw in
  let col = Array.mapi (fun j v -> Array.map (scaled col_scale.(j)) v) raw in
  (* [price acc v j] is acc + Σ_l v.(n + l)·a'_lj over the scaled new
     column j, accumulated as the integer update acc·1 + v·a'. *)
  let price acc v j =
    let acc = ref acc in
    for l = 0 to m - 1 do
      let al = col.(j).(l) and vl = v.(n + l) in
      if not (Q.is_zero al || Q.is_zero vl) then
        acc := Q.bareiss vl al Q.minus_one !acc Q.one
    done;
    !acc
  in
  (* New columns go between the structural and slack blocks: entries
     (d·B⁻¹)a'_j, reduced cost c'_j·d − (d·y)·a'_j; old slacks shift up
     by k. *)
  let grow old init =
    let width = Array.length old in
    let row = Array.make (width + k) Q.zero in
    Array.blit old 0 row 0 n;
    for j = 0 to k - 1 do
      row.(n + j) <- price (init j) old j
    done;
    Array.blit old n row (n + k) (width - n);
    row
  in
  let rows = Array.map (fun old -> grow old (fun _ -> Q.zero)) t.rows in
  let reduced = grow t.reduced (fun j -> Q.mul col.(j).(m) t.d) in
  let basis = Array.map (fun v -> if v < n then v else v + k) t.basis in
  iterate
    {
      t with
      n = n + k;
      rows;
      reduced;
      basis;
      c = Array.append t.c c;
      col_scale = Array.append t.col_scale col_scale;
    }
