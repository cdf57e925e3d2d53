module Q = Exact.Q

(* Sorted association array by outcome; probabilities strictly positive and
   summing to exactly one. *)
type t = { pairs : (int * Q.t) array }

let build ~caller pairs =
  let table = Hashtbl.create (List.length pairs) in
  List.iter
    (fun (x, p) ->
      if Q.sign p < 0 then
        invalid_arg (Printf.sprintf "Finite.%s: negative probability" caller);
      if not (Q.is_zero p) then
        let prev = Option.value (Hashtbl.find_opt table x) ~default:Q.zero in
        Hashtbl.replace table x (Q.add prev p))
    pairs;
  let collected = Hashtbl.fold (fun x p acc -> (x, p) :: acc) table [] in
  let arr = Array.of_list collected in
  Array.sort (fun (a, _) (b, _) -> compare a b) arr;
  arr

let make pairs =
  let arr = build ~caller:"make" pairs in
  let total = Array.fold_left (fun acc (_, p) -> Q.add acc p) Q.zero arr in
  if not (Q.equal total Q.one) then
    invalid_arg
      (Printf.sprintf "Finite.make: probabilities sum to %s, not 1" (Q.to_string total));
  { pairs = arr }

let uniform outcomes =
  match List.sort_uniq compare outcomes with
  | [] -> invalid_arg "Finite.uniform: empty support"
  | distinct ->
      let p = Q.make 1 (List.length distinct) in
      { pairs = Array.of_list (List.map (fun x -> (x, p)) distinct) }

let point x = { pairs = [| (x, Q.one) |] }

let prob t x =
  let rec search lo hi =
    if lo >= hi then Q.zero
    else
      let mid = (lo + hi) / 2 in
      let y, p = t.pairs.(mid) in
      if y = x then p else if y < x then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length t.pairs)

let support t = Array.to_list (Array.map fst t.pairs)
let support_size t = Array.length t.pairs
let is_pure t = Array.length t.pairs = 1

let expect t ~f =
  Array.fold_left (fun acc (x, p) -> Q.add acc (Q.mul p (f x))) Q.zero t.pairs

let fold t ~init ~f =
  Array.fold_left (fun acc (x, p) -> f acc x p) init t.pairs

let iter t ~f = Array.iter (fun (x, p) -> f x p) t.pairs

let map t ~f =
  let remapped = Array.to_list (Array.map (fun (x, p) -> (f x, p)) t.pairs) in
  { pairs = build ~caller:"map" remapped }

let equal a b =
  Array.length a.pairs = Array.length b.pairs
  && Array.for_all2 (fun (x, p) (y, q) -> x = y && Q.equal p q) a.pairs b.pairs

let sample rng t =
  let target = Prng.Rng.float rng in
  let len = Array.length t.pairs in
  let rec scan i acc =
    if i = len - 1 then fst t.pairs.(i)
    else
      let acc = acc +. Q.to_float (snd t.pairs.(i)) in
      if target < acc then fst t.pairs.(i) else scan (i + 1) acc
  in
  scan 0 0.0

let pp fmt t =
  Format.fprintf fmt "@[<hov 2>{";
  Array.iteri
    (fun i (x, p) ->
      if i > 0 then Format.fprintf fmt ";@ ";
      Format.fprintf fmt "%d: %s" x (Q.to_string p))
    t.pairs;
  Format.fprintf fmt "}@]"
