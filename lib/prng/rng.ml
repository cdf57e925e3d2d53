type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* SplitMix64, used only to expand the seed into the xoshiro state. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256** next *)
let bits64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

(* Non-negative 62-bit integer from the top bits (best-quality bits). *)
let bits62 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the largest multiple of [bound] that fits in
     the 62-bit draw range [0, max_int]. *)
  let limit = max_int / bound * bound in
  let rec draw () =
    let v = bits62 t in
    if v < limit then v mod bound else draw ()
  in
  draw ()

let int_in_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_in_range: lo > hi";
  lo + int t (hi - lo + 1)

let float t = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) *. 0x1.0p-53

let bool_with_prob t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Rng.bool_with_prob: p out of [0,1]";
  float t < p

let bool t = Int64.logand (bits64 t) 1L = 1L

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let shuffle t arr =
  let copy = Array.copy arr in
  shuffle_in_place t copy;
  copy

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let sample_without_replacement t ~count arr =
  let n = Array.length arr in
  if count < 0 || count > n then
    invalid_arg "Rng.sample_without_replacement: bad count";
  let copy = Array.copy arr in
  (* Partial Fisher–Yates: the first [count] slots become the sample. *)
  for i = 0 to count - 1 do
    let j = int_in_range t ~lo:i ~hi:(n - 1) in
    let tmp = copy.(i) in
    copy.(i) <- copy.(j);
    copy.(j) <- tmp
  done;
  Array.sub copy 0 count

let weighted_index t weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Rng.weighted_index: empty weights";
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    if weights.(i) < 0.0 then invalid_arg "Rng.weighted_index: negative weight";
    total := !total +. weights.(i)
  done;
  if !total <= 0.0 then invalid_arg "Rng.weighted_index: all weights zero";
  let target = float t *. !total in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.0
