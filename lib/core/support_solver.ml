open Netgraph
module Q = Exact.Q
module E = Tuple_instance.Engine

type failure =
  [ `Ambiguous | `Inconsistent | `Nonpositive | `Not_equilibrium of string ]

(* Solve "pairwise equal linear forms + normalization = 1" for positive
   weights.  [forms] has one row of coefficients per equalized quantity;
   unknown count = columns. *)
let equalize_and_normalize forms =
  match forms with
  | [] -> Error `Inconsistent
  | first :: rest ->
      let unknowns = Array.length first in
      let difference row = Array.init unknowns (fun j -> Q.sub first.(j) row.(j)) in
      let a = Array.of_list (List.map difference rest @ [ Array.make unknowns Q.one ]) in
      let b =
        Array.init (List.length rest + 1) (fun i ->
            if i = List.length rest then Q.one else Q.zero)
      in
      (match Lp.Gauss.solve ~a ~b with
      | Lp.Gauss.Unique x ->
          if Array.for_all (fun w -> Q.sign w > 0) x then Ok x else Error `Nonpositive
      | Lp.Gauss.Underdetermined -> Error `Ambiguous
      | Lp.Gauss.Inconsistent -> Error `Inconsistent)

let solve model ~vp_support ~tp_support =
  let g = Model.graph model in
  let vp_support = List.sort_uniq Int.compare vp_support in
  if vp_support = [] then invalid_arg "Support_solver.solve: empty attacker support";
  List.iter
    (fun v ->
      if v < 0 || v >= Graph.n g then
        invalid_arg "Support_solver.solve: vertex out of range")
    vp_support;
  if tp_support = [] then invalid_arg "Support_solver.solve: empty defender support";
  let tuples = Array.of_list tp_support in
  let vertices = Array.of_list vp_support in
  (* Defender weights: equalize Hit(v) over the attacker support. *)
  let hit_forms =
    List.map
      (fun v ->
        Array.map (fun t -> if Tuple.covers g t v then Q.one else Q.zero) tuples)
      vp_support
  in
  (* Attacker weights: equalize sum of sigma over S ∩ V(t) across T. *)
  let load_forms =
    List.map
      (fun t ->
        Array.map (fun v -> if Tuple.covers g t v then Q.one else Q.zero) vertices)
      tp_support
  in
  match equalize_and_normalize hit_forms with
  | Error _ as e -> e
  | Ok p -> (
      match equalize_and_normalize load_forms with
      | Error _ as e -> e
      | Ok sigma ->
          let vp_dist =
            Dist.Finite.make
              (List.mapi (fun j v -> (v, sigma.(j))) vp_support)
          in
          let tp =
            List.mapi (fun i t -> (t, p.(i))) tp_support
          in
          let profile =
            E.Profile.make_mixed model
              ~vp:(List.init (Model.nu model) (fun _ -> vp_dist))
              ~tp
          in
          (match E.Verify.mixed_ne E.Verify.Exhaustive profile with
          | E.Verify.Confirmed -> Ok profile
          | E.Verify.Refuted why | E.Verify.Unknown why ->
              Error (`Not_equilibrium why)))

let subsets_of_size items k =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let out = ref [] in
  let selection = Array.make k 0 in
  let rec choose pos lo =
    if pos = k then out := List.init k (fun i -> arr.(selection.(i))) :: !out
    else
      for i = lo to n - (k - pos) do
        selection.(pos) <- i;
        choose (pos + 1) (i + 1)
      done
  in
  if k >= 1 && k <= n then choose 0 0;
  List.rev !out

let search model ~candidate_tuples =
  let g = Model.graph model in
  let n = Graph.n g in
  if n > 8 then invalid_arg "Support_solver.search: graph too large (n > 8)";
  if List.length candidate_tuples > 10 then
    invalid_arg "Support_solver.search: too many candidate tuples (> 10)";
  let vertices = List.init n Fun.id in
  let found = ref [] in
  for size = 1 to min n (List.length candidate_tuples) do
    List.iter
      (fun vp_support ->
        List.iter
          (fun tp_support ->
            match solve model ~vp_support ~tp_support with
            | Ok profile -> found := profile :: !found
            | Error _ -> ())
          (subsets_of_size candidate_tuples size))
      (subsets_of_size vertices size)
  done;
  List.rev !found
