(* Tests for the exact zero-sum matrix-game solver (Lp.Matrix_game) and
   the simplex robustness it rests on: equilibrium certificates on
   random matrices, agreement with the independently derived Minimax LP
   on single-edge covering games, degenerate shapes (duplicate rows,
   dominated columns, 1×n), warm restarts that extend the previous
   optimal tableau across column growth, and anti-cycling regressions
   (Beale's example) for the degenerate tableaux the double-oracle loop
   feeds the simplex repeatedly. *)

open Netgraph
module Q = Exact.Q
module MG = Lp.Matrix_game

let q = Alcotest.testable Q.pp Q.equal
let qi = Q.of_int
let matrix rows = Array.of_list (List.map (fun r -> Array.of_list (List.map qi r)) rows)

(* --- shapes and known values --- *)

let test_one_by_n () =
  (* One row: the minimizer picks the smallest entry. *)
  let m = matrix [ [ 3; 1; 4 ] ] in
  let sol = MG.solve m in
  Alcotest.check q "value = min entry" (qi 1) sol.MG.value;
  Alcotest.(check bool) "certificate" true (MG.is_equilibrium m sol);
  let m = matrix [ [ 2 ]; [ 7 ]; [ 5 ] ] in
  let sol = MG.solve m in
  Alcotest.check q "n×1: value = max entry" (qi 7) sol.MG.value;
  Alcotest.(check bool) "certificate" true (MG.is_equilibrium m sol)

let test_constant_and_identity () =
  let m = matrix [ [ -2; -2 ]; [ -2; -2 ] ] in
  let sol = MG.solve m in
  Alcotest.check q "constant matrix" (qi (-2)) sol.MG.value;
  let id = matrix [ [ 1; 0 ]; [ 0; 1 ] ] in
  let sol = MG.solve id in
  Alcotest.check q "matching pennies value" (Q.make 1 2) sol.MG.value;
  Alcotest.check q "row mix uniform" (Q.make 1 2) sol.MG.row_strategy.(0);
  Alcotest.check q "col mix uniform" (Q.make 1 2) sol.MG.col_strategy.(1);
  Alcotest.(check bool) "certificate" true (MG.is_equilibrium id sol)

let test_rock_paper_scissors () =
  let m = matrix [ [ 0; -1; 1 ]; [ 1; 0; -1 ]; [ -1; 1; 0 ] ] in
  let sol = MG.solve m in
  Alcotest.check q "value 0" Q.zero sol.MG.value;
  Array.iter (Alcotest.check q "row uniform" (Q.make 1 3)) sol.MG.row_strategy;
  Array.iter (Alcotest.check q "col uniform" (Q.make 1 3)) sol.MG.col_strategy;
  Alcotest.(check bool) "certificate" true (MG.is_equilibrium m sol)

(* --- degeneracies the double-oracle loop produces --- *)

let test_duplicate_rows () =
  let base = matrix [ [ 1; 0 ]; [ 0; 1 ] ] in
  let dup = matrix [ [ 1; 0 ]; [ 0; 1 ]; [ 0; 1 ] ] in
  let sb = MG.solve base and sd = MG.solve dup in
  Alcotest.check q "duplicating a row keeps the value" sb.MG.value sd.MG.value;
  Alcotest.(check bool) "certificate" true (MG.is_equilibrium dup sd)

let test_dominated_column () =
  (* Column 2 dominates column 0 entrywise (worse for the minimizer),
     so appending it changes nothing. *)
  let base = matrix [ [ 1; 0 ]; [ 0; 1 ] ] in
  let ext = matrix [ [ 1; 0; 2 ]; [ 0; 1; 1 ] ] in
  let sb = MG.solve base and se = MG.solve ext in
  Alcotest.check q "dominated column keeps the value" sb.MG.value se.MG.value;
  Alcotest.check q "dominated column unused" Q.zero se.MG.col_strategy.(2);
  Alcotest.(check bool) "certificate" true (MG.is_equilibrium ext se)

let test_rejects_malformed () =
  Alcotest.check_raises "empty" (Invalid_argument "Matrix_game.solve: empty matrix")
    (fun () -> ignore (MG.solve [||]));
  Alcotest.check_raises "ragged"
    (Invalid_argument "Matrix_game.solve: ragged matrix") (fun () ->
      ignore (MG.solve [| [| Q.one; Q.zero |]; [| Q.one |] |]))

(* --- agreement with the Minimax LP --- *)

(* The k=1 defender game in matrix form: rows = edges (maximizer),
   columns = vertices, payoff = interception indicator.  Its value is
   the max-min interception probability, independently computed by
   Minimax.solve as 1/ρ*(G). *)
let covering_matrix g =
  Array.init (Graph.m g) (fun id ->
      let e = Graph.edge g id in
      Array.init (Graph.n g) (fun v ->
          if v = e.Graph.u || v = e.Graph.v then Q.one else Q.zero))

let test_vs_minimax () =
  List.iter
    (fun (name, g) ->
      let sol = MG.solve (covering_matrix g) in
      let mm = Defender.Minimax.solve g in
      Alcotest.check q
        (Printf.sprintf "%s: matrix-game value = 1/rho*" name)
        mm.Defender.Minimax.value sol.MG.value;
      Alcotest.(check bool)
        (Printf.sprintf "%s: certificate" name)
        true
        (MG.is_equilibrium (covering_matrix g) sol))
    [
      ("P4", Gen.path 4);
      ("C5", Gen.cycle 5);
      ("C6", Gen.cycle 6);
      ("star5", Gen.star 5);
      ("K4", Gen.complete 4);
      ("petersen", Gen.petersen ());
    ]

(* --- random-matrix equilibrium property --- *)

let arb_matrix =
  QCheck.make
    ~print:(fun m ->
      String.concat "; "
        (Array.to_list
           (Array.map
              (fun row ->
                String.concat ","
                  (Array.to_list (Array.map Q.to_string row)))
              m)))
    QCheck.Gen.(
      int_range 1 4 >>= fun rows ->
      int_range 1 4 >>= fun cols ->
      list_repeat (rows * cols) (map qi (int_range (-5) 5)) >>= fun entries ->
      let entries = Array.of_list entries in
      return
        (Array.init rows (fun i ->
             Array.init cols (fun j -> entries.((i * cols) + j)))))

let prop_random_equilibrium =
  QCheck.Test.make ~name:"Matrix_game.solve returns an exact equilibrium"
    ~count:300 arb_matrix (fun m -> MG.is_equilibrium m (MG.solve m))

let prop_value_in_range =
  QCheck.Test.make ~name:"game value lies between matrix min and max"
    ~count:300 arb_matrix (fun m ->
      let sol = MG.solve m in
      let mn =
        Array.fold_left (fun a r -> Array.fold_left Q.min a r) m.(0).(0) m
      and mx =
        Array.fold_left (fun a r -> Array.fold_left Q.max a r) m.(0).(0) m
      in
      Q.( <= ) mn sol.MG.value && Q.( <= ) sol.MG.value mx)

(* --- warm restarts --- *)

let test_warm_column_growth () =
  (* Append columns (including a useless duplicate) and re-solve warm:
     the answer must match the cold solve exactly. *)
  let base = matrix [ [ 1; 0 ]; [ 0; 1 ] ] in
  let sb = MG.solve base in
  let ext = matrix [ [ 1; 0; 1; 2 ]; [ 0; 1; 0; 2 ] ] in
  let warm = sb.MG.warm in
  let sw = MG.solve ~warm ext and sc = MG.solve ext in
  Alcotest.check q "warm value = cold value" sc.MG.value sw.MG.value;
  Alcotest.(check bool) "warm certificate" true (MG.is_equilibrium ext sw)

let test_warm_shape_mismatch_falls_back () =
  (* A row was added since the basis was recorded: the token must be
     ignored and the solve still exact. *)
  let base = matrix [ [ 1; 0 ]; [ 0; 1 ] ] in
  let sb = MG.solve base in
  let taller = matrix [ [ 1; 0 ]; [ 0; 1 ]; [ 1; 1 ] ] in
  let warm = sb.MG.warm in
  let sw = MG.solve ~warm taller in
  (* The new row intercepts both columns, so the value jumps to 1 —
     obtained despite the now-useless warm token. *)
  Alcotest.check q "fallback solve correct" Q.one sw.MG.value;
  Alcotest.(check bool) "certificate" true (MG.is_equilibrium taller sw)

let prop_warm_equals_cold =
  (* Random base + random appended columns: the warm restart reaches the
     same (unique) game value and a valid equilibrium.  Strategies may
     differ from the cold solve's when several optimal bases exist —
     only the value is unique. *)
  QCheck.Test.make ~name:"warm restart = cold value on column growth"
    ~count:150
    (QCheck.pair arb_matrix (QCheck.make QCheck.Gen.(int_range 1 3)))
    (fun (m, extra) ->
      let cols = Array.length m.(0) in
      let sb = MG.solve m in
      let ext =
        Array.mapi
          (fun i row ->
            Array.append row
              (Array.init extra (fun j -> m.(i).((j + i) mod cols))))
          m
      in
      let warm = sb.MG.warm in
      let sw = MG.solve ~warm ext and sc = MG.solve ext in
      Q.equal sw.MG.value sc.MG.value && MG.is_equilibrium ext sw)

(* --- simplex robustness: degeneracy and anti-cycling --- *)

let test_beale_cycling () =
  (* Beale's classic cycling example; without an anti-cycling rule the
     textbook largest-coefficient pivot loops forever.  Bland's rule
     must terminate at objective 1/20. *)
  let a =
    [|
      [| Q.make 1 4; qi (-60); Q.make (-1) 25; qi 9 |];
      [| Q.make 1 2; qi (-90); Q.make (-1) 50; qi 3 |];
      [| Q.zero; Q.zero; Q.one; Q.zero |];
    |]
  in
  let b = [| Q.zero; Q.zero; Q.one |] in
  let c = [| Q.make 3 4; qi (-150); Q.make 1 50; qi (-6) |] in
  match Lp.Simplex.maximize ~a ~b ~c with
  | Lp.Simplex.Unbounded -> Alcotest.fail "Beale LP is bounded"
  | Lp.Simplex.Optimal { objective; x; _ } ->
      Alcotest.check q "Beale optimum" (Q.make 1 20) objective;
      Alcotest.(check bool) "optimum feasible" true
        (Lp.Simplex.feasible ~a ~b ~x)

let test_degenerate_duplicate_constraints () =
  let a =
    [| [| Q.one; Q.one |]; [| Q.one; Q.one |]; [| Q.one; Q.zero |] |]
  in
  let b = [| Q.one; Q.one; Q.one |] in
  let c = [| Q.one; Q.one |] in
  match Lp.Simplex.maximize ~a ~b ~c with
  | Lp.Simplex.Unbounded -> Alcotest.fail "bounded"
  | Lp.Simplex.Optimal { objective; _ } ->
      Alcotest.check q "duplicate constraints" Q.one objective

let test_simplex_extend_roundtrip () =
  let a = [| [| Q.one; Q.one |]; [| Q.one; Q.zero |] |] in
  let b = [| qi 2; Q.one |] in
  let c = [| qi 3; Q.one |] in
  let optimal = function
    | Lp.Simplex.Optimal s -> s
    | Lp.Simplex.Unbounded -> Alcotest.fail "bounded"
  in
  let cold = optimal (Lp.Simplex.maximize ~a ~b ~c) in
  let same = optimal (Lp.Simplex.extend cold ~a:[| [||]; [||] |] ~c:[||]) in
  Alcotest.check q "no new columns: same optimum" cold.Lp.Simplex.objective
    same.Lp.Simplex.objective;
  (* A third column [2; 0] with objective 5 beats both old ones. *)
  let grown =
    optimal
      (Lp.Simplex.extend cold ~a:[| [| qi 2 |]; [| Q.zero |] |] ~c:[| qi 5 |])
  in
  let a' = [| [| Q.one; Q.one; qi 2 |]; [| Q.one; Q.zero; Q.zero |] |] in
  let c' = [| qi 3; Q.one; qi 5 |] in
  let recold = optimal (Lp.Simplex.maximize ~a:a' ~b ~c:c') in
  Alcotest.check q "extended = cold optimum" recold.Lp.Simplex.objective
    grown.Lp.Simplex.objective;
  Alcotest.(check bool) "extended optimum feasible" true
    (Lp.Simplex.feasible ~a:a' ~b ~x:grown.Lp.Simplex.x);
  Alcotest.check q "dual certifies it" grown.Lp.Simplex.objective
    (Lp.Simplex.value ~c:b ~x:grown.Lp.Simplex.dual);
  Alcotest.check_raises "wrong row count"
    (Invalid_argument "Simplex.extend: |a| <> rows") (fun () ->
      ignore (Lp.Simplex.extend cold ~a:[| [| Q.one |] |] ~c:[| Q.one |]));
  Alcotest.check_raises "ragged columns"
    (Invalid_argument "Simplex.extend: ragged columns") (fun () ->
      ignore
        (Lp.Simplex.extend cold ~a:[| [| Q.one |]; [||] |] ~c:[| Q.one |]))

(* --- the warm token across column growth --- *)

(* Appended columns are drawn no lower than the base's minimum entry, so
   the payoff shift never moves and every round extends the previous
   round's tableau rather than solving cold. *)
let arb_growth =
  QCheck.make
    ~print:(fun (m, rounds) ->
      Printf.sprintf "base %dx%d, rounds of %s" (Array.length m)
        (Array.length m.(0))
        (String.concat ","
           (List.map (fun r -> string_of_int (Array.length r.(0))) rounds)))
    QCheck.Gen.(
      QCheck.gen arb_matrix >>= fun m ->
      let rows = Array.length m in
      let lo =
        Array.fold_left (fun a r -> Array.fold_left Q.min a r) m.(0).(0) m
      in
      let round =
        int_range 1 3 >>= fun k ->
        list_repeat (rows * k) (map (fun v -> Q.add lo (qi v)) (int_range 0 10))
        >>= fun es ->
        let es = Array.of_list es in
        return
          (Array.init rows (fun i -> Array.init k (fun j -> es.((i * k) + j))))
      in
      int_range 1 4 >>= fun n ->
      list_repeat n round >>= fun rounds -> return (m, rounds))

let prop_chained_growth =
  QCheck.Test.make ~name:"chained column growth: warm = cold value every round"
    ~count:150 arb_growth (fun (m, rounds) ->
      let _, ok =
        List.fold_left
          (fun ((m, (prev : MG.solution)), ok) block ->
            let m = Array.mapi (fun i row -> Array.append row block.(i)) m in
            let sw = MG.solve ~warm:prev.MG.warm m and sc = MG.solve m in
            ( (m, sw),
              ok && Q.equal sw.MG.value sc.MG.value && MG.is_equilibrium m sw ))
          ((m, MG.solve m), true) rounds
      in
      ok)

let prop_zero_columns =
  QCheck.Test.make ~name:"warm solve with no new columns = the old solution"
    ~count:150 arb_matrix (fun m ->
      let sb = MG.solve m in
      MG.solve ~warm:sb.MG.warm m = sb)

let test_token_reuse () =
  (* Extending must leave the token's tableau untouched. *)
  let base = matrix [ [ 1; 0; 2 ]; [ 0; 2; 1 ]; [ 2; 1; 0 ] ] in
  let ext = matrix [ [ 1; 0; 2; 1 ]; [ 0; 2; 1; 0 ]; [ 2; 1; 0; 1 ] ] in
  let sb = MG.solve base in
  let s1 = MG.solve ~warm:sb.MG.warm ext in
  let s2 = MG.solve ~warm:sb.MG.warm ext in
  Alcotest.(check bool) "same answer twice" true (s1 = s2);
  Alcotest.(check bool) "base token still solves base" true
    (MG.solve ~warm:sb.MG.warm base = sb);
  Alcotest.check q "warm = cold value" (MG.solve ext).MG.value s1.MG.value

let test_shift_change_solves_cold () =
  (* An all-ones matrix has shift 0; a new column holding a 0 moves it
     to 1, which rewrites every old column — the warm answer must be
     the cold one exactly. *)
  let base = matrix [ [ 1; 1 ]; [ 1; 1 ] ] in
  let ext = matrix [ [ 1; 1; 0 ]; [ 1; 1; 1 ] ] in
  let sb = MG.solve base in
  let sw = MG.solve ~warm:sb.MG.warm ext and sc = MG.solve ext in
  Alcotest.check q "value" sc.MG.value sw.MG.value;
  Alcotest.(check (array q))
    "row strategy" sc.MG.row_strategy sw.MG.row_strategy;
  Alcotest.(check (array q))
    "col strategy" sc.MG.col_strategy sw.MG.col_strategy;
  Alcotest.(check bool) "structurally equal" true (sw = sc)

(* --- the pinned simplex transcript --- *)

(* A seeded sweep of packing LPs with rational entries (negative [a],
   zero [b], a large-entry batch whose pivots outgrow 63 bits, Beale's
   LP), [extend] chains from each optimum, and chained warm growth
   rounds of [Matrix_game], every answer rendered exactly.  The digest
   pins the solver's pivot choices: any change to Bland's rule, the
   ratio test or the read-off moves some objective, vertex, dual or
   strategy in it. *)
let transcript () =
  let module Rng = Prng.Rng in
  let buf = Buffer.create 65536 in
  let line tag qs =
    Buffer.add_string buf tag;
    Array.iter
      (fun v ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (Q.to_string v))
      qs;
    Buffer.add_char buf '\n'
  in
  let lp = function
    | Lp.Simplex.Unbounded ->
        Buffer.add_string buf "unbounded\n";
        None
    | Lp.Simplex.Optimal s ->
        line "objective" [| s.Lp.Simplex.objective |];
        line "x" s.Lp.Simplex.x;
        line "dual" s.Lp.Simplex.dual;
        Some s
  in
  let rng = Rng.create 2026 in
  let rat lo hi =
    Q.make (Rng.int_in_range rng ~lo ~hi) (Rng.int_in_range rng ~lo:1 ~hi:6)
  in
  let block rows cols entry =
    Array.init rows (fun _ -> Array.init cols (fun _ -> entry ()))
  in
  let packing ~big =
    let m = Rng.int_in_range rng ~lo:1 ~hi:(if big then 8 else 6)
    and n = Rng.int_in_range rng ~lo:1 ~hi:(if big then 8 else 6) in
    let hi = if big then 1 lsl 40 else 9 in
    let a = block m n (fun () -> rat (-3) hi) in
    let b =
      Array.init m (fun _ -> if Rng.int rng 4 = 0 then Q.zero else rat 0 hi)
    in
    let c = Array.init n (fun _ -> rat (-4) 8) in
    (* Grow the optimum by up to three rounds of appended columns. *)
    let rec chain sol rounds =
      if rounds > 0 then begin
        let k = Rng.int rng 3 in
        match
          lp
            (Lp.Simplex.extend sol
               ~a:(block m k (fun () -> rat (-3) hi))
               ~c:(Array.init k (fun _ -> rat (-4) 8)))
        with
        | Some sol -> chain sol (rounds - 1)
        | None -> ()
      end
    in
    match lp (Lp.Simplex.maximize ~a ~b ~c) with
    | Some sol -> chain sol (Rng.int_in_range rng ~lo:1 ~hi:3)
    | None -> ()
  in
  for i = 1 to 200 do
    packing ~big:(i mod 10 = 0)
  done;
  ignore
    (lp
       (Lp.Simplex.maximize
          ~a:
            [|
              [| Q.make 1 4; qi (-60); Q.make (-1) 25; qi 9 |];
              [| Q.make 1 2; qi (-90); Q.make (-1) 50; qi 3 |];
              [| Q.zero; Q.zero; Q.one; Q.zero |];
            |]
          ~b:[| Q.zero; Q.zero; Q.one |]
          ~c:[| Q.make 3 4; qi (-150); Q.make 1 50; qi (-6) |]));
  let game tag (sol : MG.solution) =
    line tag [| sol.MG.value |];
    line "rows" sol.MG.row_strategy;
    line "cols" sol.MG.col_strategy
  in
  for _ = 1 to 50 do
    let rows = Rng.int_in_range rng ~lo:1 ~hi:5 in
    let base =
      block rows (Rng.int_in_range rng ~lo:1 ~hi:4) (fun () -> rat (-5) 5)
    in
    let lo = Array.fold_left (Array.fold_left Q.min) base.(0).(0) base in
    (* Appended entries never fall below the base's minimum, so the
       shift stays and every round extends the previous tableau. *)
    let rec grow m (prev : MG.solution) rounds =
      if rounds > 0 then begin
        let added =
          block rows (Rng.int_in_range rng ~lo:1 ~hi:3) (fun () ->
              Q.add lo (rat 0 10))
        in
        let m = Array.mapi (fun i row -> Array.append row added.(i)) m in
        let warm = MG.solve ~warm:prev.MG.warm m in
        game "warm" warm;
        game "cold" (MG.solve m);
        grow m warm (rounds - 1)
      end
    in
    let sol = MG.solve base in
    game "base" sol;
    grow base sol (Rng.int_in_range rng ~lo:1 ~hi:4)
  done;
  Buffer.contents buf

(* The digest of [transcript ()] as computed by the gcd-normalised
   rational tableau that the fraction-free one replaced. *)
let transcript_digest = "e2f7b8961c8ffe6da4be754c1a84df6e"

let test_transcript () =
  Alcotest.(check string)
    "digest of the simplex transcript" transcript_digest
    (Digest.to_hex (Digest.string (transcript ())))

let () =
  Alcotest.run "matrix_game"
    [
      ( "shapes",
        [
          Alcotest.test_case "1xn and nx1" `Quick test_one_by_n;
          Alcotest.test_case "constant and identity" `Quick
            test_constant_and_identity;
          Alcotest.test_case "rock-paper-scissors" `Quick
            test_rock_paper_scissors;
          Alcotest.test_case "duplicate rows" `Quick test_duplicate_rows;
          Alcotest.test_case "dominated column" `Quick test_dominated_column;
          Alcotest.test_case "malformed input" `Quick test_rejects_malformed;
        ] );
      ("minimax", [ Alcotest.test_case "k=1 covering games" `Quick test_vs_minimax ]);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_random_equilibrium;
          QCheck_alcotest.to_alcotest prop_value_in_range;
          QCheck_alcotest.to_alcotest prop_warm_equals_cold;
          QCheck_alcotest.to_alcotest prop_chained_growth;
          QCheck_alcotest.to_alcotest prop_zero_columns;
        ] );
      ( "warm",
        [
          Alcotest.test_case "column growth" `Quick test_warm_column_growth;
          Alcotest.test_case "shape mismatch falls back" `Quick
            test_warm_shape_mismatch_falls_back;
          Alcotest.test_case "token reuse" `Quick test_token_reuse;
          Alcotest.test_case "shift change solves cold" `Quick
            test_shift_change_solves_cold;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "Beale anti-cycling" `Quick test_beale_cycling;
          Alcotest.test_case "degenerate duplicate constraints" `Quick
            test_degenerate_duplicate_constraints;
          Alcotest.test_case "extend roundtrip" `Quick
            test_simplex_extend_roundtrip;
          Alcotest.test_case "pinned transcript" `Quick test_transcript;
        ] );
    ]
