(* Two-representation numeric tower.

   [S] is the seed representation — a normalized fraction of native 63-bit
   ints — and stays the only representation the equilibrium hot loops ever
   see (paper-sized instances have denominators far below [max_int]).
   Every primitive first attempts the overflow-checked native computation;
   the (rare) [Overflow] signal is caught and the operation replayed over
   [Bigint]/[Bignat], yielding a [B] value.  Results are demoted back to
   [S] whenever they fit, so the representation is canonical: a value is
   [B] iff its numerator or denominator exceeds the native range, and
   structural equality on the representation is numeric equality. *)

type t =
  | S of { num : int; den : int }
  | B of { bnum : Bigint.t; bden : Bignat.t }

exception Overflow
exception Division_by_zero

(* Observability sits only on the cold paths: a native S×S operation
   that falls through to big arithmetic (a promotion), the big-path
   operations themselves, and successful demotions back to S.  The S×S
   success path — the one B13 times — records nothing and gains no
   code. *)
let c_promotions = Obs.counter "q.promotions"
let c_big_ops = Obs.counter "q.big_ops"
let c_demotions = Obs.counter "q.demotions"

(* --- overflow-checked native primitives (the fast path) --- *)

(* [min_int] is excluded outright from the S representation: its negation
   is itself, which breaks normalization. *)
let neg_ovf a = if a = min_int then raise Overflow else -a

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Invariant: den > 0 and gcd (|num|, den) = 1. *)
let norm num den =
  if den = 0 then raise Division_by_zero;
  let num, den = if den < 0 then (neg_ovf num, neg_ovf den) else (num, den) in
  if num = 0 then S { num = 0; den = 1 }
  else
    let g = gcd (abs num) den in
    S { num = num / g; den = den / g }

let zero = S { num = 0; den = 1 }
let one = S { num = 1; den = 1 }
let minus_one = S { num = -1; den = 1 }

(* --- the big path --- *)

(* A 1- or 2-limb Bignat is always <= max_int, so a normalized big
   fraction demotes exactly when both components pass [to_int_opt]. *)
let demote bnum bden =
  match (Bigint.to_int_opt bnum, Bignat.to_int_opt bden) with
  | Some n, Some d when n <> min_int ->
      Obs.incr c_demotions;
      S { num = n; den = d }
  | _ -> B { bnum; bden }

let nat_div a b = fst (Bignat.divmod a b)

(* Normalized big fraction from a signed numerator/denominator pair. *)
let big_norm bnum bden =
  if Bigint.is_zero bden then raise Division_by_zero;
  let bnum = if Bigint.sign bden < 0 then Bigint.neg bnum else bnum in
  if Bigint.is_zero bnum then zero
  else
    let nmag = Bigint.abs_nat bnum and dmag = Bigint.abs_nat bden in
    let g = Bignat.gcd nmag dmag in
    demote
      (Bigint.make ~sign:(Bigint.sign bnum) (nat_div nmag g))
      (nat_div dmag g)

let to_big = function
  | S { num; den } -> (Bigint.of_int num, Bignat.of_int den)
  | B { bnum; bden } -> (bnum, bden)

let of_big ~num ~den = big_norm num den

let big_add a b =
  Obs.incr c_big_ops;
  let na, da = to_big a and nb, db = to_big b in
  let da' = Bigint.make ~sign:1 da and db' = Bigint.make ~sign:1 db in
  big_norm
    (Bigint.add (Bigint.mul na db') (Bigint.mul nb da'))
    (Bigint.mul da' db')

let big_mul a b =
  Obs.incr c_big_ops;
  let na, da = to_big a and nb, db = to_big b in
  big_norm (Bigint.mul na nb)
    (Bigint.mul (Bigint.make ~sign:1 da) (Bigint.make ~sign:1 db))

(* --- construction & accessors --- *)

let make num den =
  if num = min_int || den = min_int then
    big_norm (Bigint.of_int num) (Bigint.of_int den)
  else norm num den

let of_int n =
  if n = min_int then B { bnum = Bigint.of_int n; bden = Bignat.one }
  else S { num = n; den = 1 }

let num = function S { num; _ } -> num | B _ -> raise Overflow
let den = function S { den; _ } -> den | B _ -> raise Overflow
let is_small = function S _ -> true | B _ -> false

(* --- arithmetic --- *)

let neg = function
  | S { num; den } -> S { num = -num; den } (* num <> min_int by invariant *)
  | B { bnum; bden } -> B { bnum = Bigint.neg bnum; bden }

(* The three hot operations (add, mul, compare) detect overflow with
   branch predicates instead of try/with: installing an exception handler
   per operation costs a few percent against the seed's fixed-width
   arithmetic.  A predicate failing routes to the big path exactly where
   the seed raised [Overflow]. *)

let add a b =
  match (a, b) with
  | S a', S b' ->
      (* Knuth's trick keeps intermediates small: work modulo the gcd of
         the denominators before cross-multiplying.  Denominators are
         positive and numerators are never [min_int] by the S invariant,
         so [p / q = expected] catches every wrap. *)
      let g = gcd a'.den b'.den in
      let da = a'.den / g and db = b'.den / g in
      let n1 = a'.num * db in
      let n2 = b'.num * da in
      let n = n1 + n2 in
      let d = a'.den * db in
      if
        n1 / db = a'.num
        && n1 <> min_int
        && n2 / da = b'.num
        && n2 <> min_int
        && not ((n1 >= 0) = (n2 >= 0) && (n >= 0) <> (n1 >= 0))
        && n <> min_int
        && d / db = a'.den
        && d <> min_int
      then norm n d
      else begin
        Obs.incr c_promotions;
        big_add a b
      end
  | _ -> big_add a b

let sub a b = add a (neg b)

let mul a b =
  match (a, b) with
  | S a', S b' ->
      let g1 = gcd (abs a'.num) b'.den and g2 = gcd (abs b'.num) a'.den in
      let na = a'.num / g1 and nb = b'.num / g2 in
      let da = a'.den / g2 and db = b'.den / g1 in
      let n = na * nb in
      let d = da * db in
      if
        (nb = 0 || (n / nb = na && n <> min_int))
        && d / db = da
        && d <> min_int
      then norm n d
      else begin
        Obs.incr c_promotions;
        big_mul a b
      end
  | _ -> big_mul a b

let inv = function
  | S { num; den } ->
      if num = 0 then raise Division_by_zero
      else if num > 0 then S { num = den; den = num }
      else S { num = -den; den = -num }
  | B { bnum; bden } ->
      if Bigint.is_zero bnum then raise Division_by_zero
      else begin
        Obs.incr c_big_ops;
        (* gcd (|bnum|, bden) = 1 already, so the swap needs no
           renormalization; it may demote (e.g. small num over big den). *)
        demote
          (Bigint.make ~sign:(Bigint.sign bnum) bden)
          (Bigint.abs_nat bnum)
      end

let div a b = mul a (inv b)
let mul_int q n = mul q (of_int n)
let div_int q n = div q (of_int n)

(* --- the fraction-free update --- *)

let int_of_integer = function
  | S { num; den = 1 } -> Bigint.of_int num
  | B { bnum; bden } when Bignat.equal bden Bignat.one -> bnum
  | _ -> invalid_arg "Q.bareiss: not an integer"

(* The big path divides exactly, with no gcd: the quotient of two
   integers is already normalized, and demotes when it fits. *)
let big_bareiss p a f b d =
  Obs.incr c_big_ops;
  let dd = int_of_integer d in
  if Bigint.is_zero dd then raise Division_by_zero;
  let z =
    Bigint.sub
      (Bigint.mul (int_of_integer p) (int_of_integer a))
      (Bigint.mul (int_of_integer f) (int_of_integer b))
  in
  let q, r = Bigint.divmod z dd in
  if not (Bigint.is_zero r) then invalid_arg "Q.bareiss: inexact division";
  demote q Bignat.one

(* The native path checks the two products and their difference the
   way [mul] and [add] do; a step that leaves the native range is
   replayed over Bigint. *)
let bareiss p a f b d =
  match (p, a, f, b, d) with
  | ( S { num = p'; den = 1 },
      S { num = a'; den = 1 },
      S { num = f'; den = 1 },
      S { num = b'; den = 1 },
      S { num = d'; den = 1 } ) ->
      if d' = 0 then raise Division_by_zero;
      let pa = p' * a' and fb = f' * b' in
      let z = pa - fb in
      if
        (a' = 0 || (pa / a' = p' && pa <> min_int))
        && (b' = 0 || (fb / b' = f' && fb <> min_int))
        && not ((pa >= 0) <> (fb >= 0) && (z >= 0) <> (pa >= 0))
        && z <> min_int
      then begin
        let q = z / d' in
        if q * d' <> z then invalid_arg "Q.bareiss: inexact division";
        S { num = q; den = 1 }
      end
      else begin
        Obs.incr c_promotions;
        big_bareiss p a f b d
      end
  | _ -> big_bareiss p a f b d

let binomial n k =
  if n < 0 || k < 0 then invalid_arg "Q.binomial: negative argument";
  if k > n then zero
  else begin
    (* Multiplicative form over the tower: after step i the accumulator
       is C(n-k+i, i), an integer, so the division is always exact and
       the result is the true count at any magnitude. *)
    let k = if k > n - k then n - k else k in
    let acc = ref one in
    for i = 1 to k do
      acc := div_int (mul_int !acc (n - k + i)) i
    done;
    !acc
  end

let sign = function
  | S { num; _ } -> compare num 0
  | B { bnum; _ } -> Bigint.sign bnum

let abs a = if sign a < 0 then neg a else a

let big_compare a b =
  Obs.incr c_big_ops;
  let na, da = to_big a and nb, db = to_big b in
  Bigint.compare
    (Bigint.mul na (Bigint.make ~sign:1 db))
    (Bigint.mul nb (Bigint.make ~sign:1 da))

let compare a b =
  match (a, b) with
  | S a', S b' ->
      (* Exact comparison via cross multiplication with shared-factor
         removal. *)
      if a'.den = b'.den then Stdlib.compare a'.num b'.num
      else
        let g = gcd a'.den b'.den in
        let da = a'.den / g and db = b'.den / g in
        let x = a'.num * db in
        let y = b'.num * da in
        if x / db = a'.num && x <> min_int && y / da = b'.num && y <> min_int
        then Stdlib.compare x y
        else begin
          Obs.incr c_promotions;
          big_compare a b
        end
  | _ -> big_compare a b

(* Canonical representations: cross-constructor values are never equal. *)
let equal a b =
  match (a, b) with
  | S a', S b' -> a'.num = b'.num && a'.den = b'.den
  | B a', B b' -> Bigint.equal a'.bnum b'.bnum && Bignat.equal a'.bden b'.bden
  | S _, B _ | B _, S _ -> false

let ( = ) = equal
let ( < ) a b = Stdlib.( < ) (compare a b) 0
let ( <= ) a b = Stdlib.( <= ) (compare a b) 0
let ( > ) a b = Stdlib.( > ) (compare a b) 0
let ( >= ) a b = Stdlib.( >= ) (compare a b) 0
let min a b = if a <= b then a else b
let max a b = if a >= b then a else b

let is_zero = function
  | S { num; _ } -> Stdlib.( = ) num 0
  | B _ -> false (* zero is small by canonicality *)

let is_integer = function
  | S { den; _ } -> Stdlib.( = ) den 1
  | B { bden; _ } -> Bignat.equal bden Bignat.one

let to_int_exn = function
  | S { num; den } ->
      if Stdlib.( = ) den 1 then num
      else invalid_arg "Q.to_int_exn: not an integer"
  | B { bden; _ } ->
      if Bignat.equal bden Bignat.one then raise Overflow
      else invalid_arg "Q.to_int_exn: not an integer"

let to_float = function
  | S { num; den } -> float_of_int num /. float_of_int den
  | B { bnum; bden } ->
      (* Scale both sides into float range before dividing, then undo the
         scaling; avoids inf/inf on very large fractions. *)
      let nmag = Bigint.abs_nat bnum in
      let sn = Stdlib.max 0 (Bignat.bit_length nmag - 64) in
      let sd = Stdlib.max 0 (Bignat.bit_length bden - 64) in
      let n = Bignat.to_float (Bignat.shift_right nmag sn) in
      let d = Bignat.to_float (Bignat.shift_right bden sd) in
      let v = n /. d *. (2.0 ** float_of_int (sn - sd)) in
      if Stdlib.( < ) (Bigint.sign bnum) 0 then -.v else v

let sum qs = List.fold_left add zero qs

let min_list = function
  | [] -> invalid_arg "Q.min_list: empty list"
  | q :: qs -> List.fold_left min q qs

let max_list = function
  | [] -> invalid_arg "Q.max_list: empty list"
  | q :: qs -> List.fold_left max q qs

let to_string = function
  | S { num; den } ->
      if Stdlib.( = ) den 1 then string_of_int num
      else Printf.sprintf "%d/%d" num den
  | B { bnum; bden } ->
      if Bignat.equal bden Bignat.one then Bigint.to_string bnum
      else Bigint.to_string bnum ^ "/" ^ Bignat.to_string bden

let of_string_opt s =
  let parse_int part =
    (* fast path: native parse; fall back to big decimals *)
    match int_of_string_opt part with
    | Some n -> Some (Bigint.of_int n)
    | None -> ( try Some (Bigint.of_string part) with Invalid_argument _ -> None)
  in
  match String.split_on_char '/' s with
  | [ n ] -> (
      match parse_int n with
      | Some n -> Some (big_norm n Bigint.one)
      | None -> None)
  | [ n; d ] -> (
      match (parse_int n, parse_int d) with
      | Some n, Some d when not (Bigint.is_zero d) -> Some (big_norm n d)
      | _ -> None)
  | _ -> None

let of_string s =
  match of_string_opt s with
  | Some q -> q
  | None -> invalid_arg ("Q.of_string: bad rational " ^ s)

let pp fmt a = Format.pp_print_string fmt (to_string a)
