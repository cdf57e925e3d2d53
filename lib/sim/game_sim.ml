(* Simulation loops generic over a GAME instance (Defender.Game.S):
   fictitious play, pure best-response dynamics, Monte-Carlo play of a
   mixed profile, and the policy workloads; the interface and its
   documentation are in game_sim.mli.  Sim_instance applies [Make] to
   both built-in games.  The tuple game's runs must stay bit-for-bit
   identical to the pre-functor code they replaced — every PRNG draw,
   fold order and error string below is load-bearing.  The historical
   error strings (".. tuple size <> k") are kept verbatim even in
   generic code: tests pin them, and "tuple" reads fine as the
   defender's pure strategy in every game. *)

open Netgraph
module Q = Exact.Q
module Rng = Prng.Rng

(* The least-hit vertex of [counts], ties broken uniformly: the
   fictitious-play attacker and the adaptive workload attacker.  [tie]
   is caller-owned scratch of [Array.length counts] cells, so a draw
   allocates nothing.  It is filled ascending where the historical
   per-call list was descending; indexing from the top keeps the PRNG
   stream and the chosen vertex bit-for-bit identical. *)
let least_hit rng ~counts ~tie =
  let ties = ref 0 and best_count = ref max_int in
  for v = 0 to Array.length counts - 1 do
    if counts.(v) < !best_count then begin
      best_count := counts.(v);
      tie.(0) <- v;
      ties := 1
    end
    else if counts.(v) = !best_count then begin
      tie.(!ties) <- v;
      incr ties
    end
  done;
  tie.(!ties - 1 - Rng.int rng !ties)

module Make (G : Defender.Game.S) = struct
  (* The exact engine for the same game, applicatively equal to any
     other application of Game_engine.Make to [G] — for the tuple game,
     [E.Profile] is Defender.Tuple_instance.Engine.Profile. *)
  module E = Defender.Game_engine.Make (G)

  module Fictitious = struct
    type result = {
      rounds : int;
      avg_gain : float;
      tail_avg_gain : float;
      attack_frequency : float array;
      scan_frequency : float array;
      gain_series : float array;
    }

    (* Defender best response to empirical attack counts: max total
       count over covered vertices. *)
    let exact_response inst (load : int array) =
      let value t =
        List.fold_left (fun acc v -> acc + load.(v)) 0 (G.covered inst t)
      in
      G.fold_strategies inst ~init:None ~f:(fun acc t ->
          match acc with
          | Some (_, best) when best >= value t -> acc
          | _ -> Some (t, value t))
      |> Option.get |> fst

    let run ?(naive = false) rng inst ~rounds =
      if rounds < 2 then invalid_arg "Fictitious.run: need at least two rounds";
      let g = G.graph inst in
      let nu = G.nu inst in
      let n = Graph.n g in
      let exact_ok = G.space_size_within inst ~limit:100_000 <> None in
      let hit_count = Array.make n 0 in
      let attack_count = Array.make n 0 in
      let scan_count = Array.make (G.scan_slots inst) 0 in
      let gain_series = Array.make rounds 0.0 in
      (* Full play history, needed by the naive path which re-derives
         the empirical tables from scratch every round (the analogue of
         the support re-scan of a Profile.rescan profile); the default
         path keeps the tables incrementally and never reads the
         history. *)
      let tuple_history = Array.make rounds None in
      let choice_history = Array.make_matrix rounds nu 0 in
      let total = ref 0 and tail_total = ref 0 in
      (* Tie-break scratch for the attacker's least-scanned choice,
         allocated once for the whole run. *)
      let tie = Array.make n 0 in
      let recompute_from_history r =
        for v = 0 to n - 1 do
          let c = ref 0 in
          for s = 0 to r - 1 do
            match tuple_history.(s) with
            | Some t -> if G.covers inst t v then incr c
            | None -> ()
          done;
          hit_count.(v) <- !c
        done;
        Array.fill attack_count 0 n 0;
        for s = 0 to r - 1 do
          for i = 0 to nu - 1 do
            let v = choice_history.(s).(i) in
            attack_count.(v) <- attack_count.(v) + 1
          done
        done
      in
      let choices = Array.make nu 0 in
      for r = 0 to rounds - 1 do
        if naive then recompute_from_history r;
        for i = 0 to nu - 1 do
          choices.(i) <- least_hit rng ~counts:hit_count ~tie;
          choice_history.(r).(i) <- choices.(i)
        done;
        let tuple =
          if exact_ok then exact_response inst attack_count
          else G.greedy_response inst ~load:attack_count
        in
        tuple_history.(r) <- Some tuple;
        let covered = G.covered inst tuple in
        let caught = ref 0 in
        for i = 0 to nu - 1 do
          if G.covers inst tuple choices.(i) then incr caught;
          attack_count.(choices.(i)) <- attack_count.(choices.(i)) + 1
        done;
        List.iter (fun v -> hit_count.(v) <- hit_count.(v) + 1) covered;
        List.iter
          (fun id -> scan_count.(id) <- scan_count.(id) + 1)
          (G.scan_slot_ids inst tuple);
        total := !total + !caught;
        if r >= rounds / 2 then tail_total := !tail_total + !caught;
        gain_series.(r) <- float_of_int !total /. float_of_int (r + 1)
      done;
      let denom = float_of_int rounds in
      {
        rounds;
        avg_gain = float_of_int !total /. denom;
        tail_avg_gain =
          float_of_int !tail_total /. float_of_int (rounds - (rounds / 2));
        attack_frequency =
          Array.map
            (fun c -> float_of_int c /. (denom *. float_of_int nu))
            attack_count;
        scan_frequency = Array.map (fun c -> float_of_int c /. denom) scan_count;
        gain_series;
      }
  end

  module Dynamics = struct
    type result =
      | Converged of { steps : int; profile : E.Profile.pure }
      | Cycling of { steps : int }

    type step_record = {
      step : int;
      mover : [ `Attacker of int | `Defender ];
      caught_after : int;
    }

    let catch_count inst choices tuple =
      Array.fold_left
        (fun acc v -> if G.covers inst tuple v then acc + 1 else acc)
        0 choices

    let coverage inst tuple = List.length (G.covered inst tuple)

    (* Greedy max-coverage response to the current attacker positions,
       with vertex coverage as the tie-break on zero-gain picks. *)
    let greedy_response inst choices =
      let load = Array.make (Graph.n (G.graph inst)) 0 in
      Array.iter (fun v -> load.(v) <- load.(v) + 1) choices;
      G.greedy_coverage_response inst ~load

    (* Exact best response by enumeration, maximizing (catch, coverage)
       lexicographically; [None] when the strategy space refuses to
       enumerate. *)
    let exact_best_response inst choices =
      let better a b =
        let ca = catch_count inst choices a
        and cb = catch_count inst choices b in
        ca > cb || (ca = cb && coverage inst a > coverage inst b)
      in
      match
        G.fold_strategies inst ~init:None ~f:(fun acc t ->
            match acc with
            | Some best when not (better t best) -> acc
            | _ -> Some t)
      with
      | result -> result
      | exception Invalid_argument _ -> None

    let uncovered_vertices inst tuple =
      let n = Graph.n (G.graph inst) in
      let covered = Array.make n false in
      List.iter (fun v -> covered.(v) <- true) (G.covered inst tuple);
      let out = ref [] in
      for v = n - 1 downto 0 do
        if not covered.(v) then out := v :: !out
      done;
      Array.of_list !out

    let run ?record rng inst ~max_steps =
      let g = G.graph inst in
      let nu = G.nu inst in
      let limit = 200_000 in
      let exact_ok = G.space_size_within inst ~limit <> None in
      let choices = Array.init nu (fun _ -> Rng.int rng (Graph.n g)) in
      let tuple = ref (greedy_response inst choices) in
      let emit step mover =
        match record with
        | Some f ->
            f { step; mover; caught_after = catch_count inst choices !tuple }
        | None -> ()
      in
      let rec loop step =
        if step >= max_steps then Cycling { steps = step }
        else begin
          let uncovered = uncovered_vertices inst !tuple in
          (* Dissatisfied attackers: caught while an escape vertex
             exists. *)
          let unhappy_attackers =
            if Array.length uncovered = 0 then []
            else
              List.filter
                (fun i -> G.covers inst !tuple choices.(i))
                (List.init nu Fun.id)
          in
          (* Defender's best response (exact when feasible); it moves
             only on a strict payoff improvement, breaking ties among
             best responses toward maximum coverage. *)
          let current = catch_count inst choices !tuple in
          let candidate =
            if exact_ok then exact_best_response inst choices
            else Some (greedy_response inst choices)
          in
          let better_tuple =
            match candidate with
            | Some t when catch_count inst choices t > current -> Some t
            | _ -> None
          in
          match (unhappy_attackers, better_tuple) with
          | [], None ->
              Converged
                {
                  steps = step;
                  profile =
                    E.Profile.make_pure inst
                      ~vp_choices:(Array.to_list choices)
                      ~tp_choice:!tuple;
                }
          | attackers, defender_move ->
              (* Pick a dissatisfied player uniformly; the defender
                 counts as one entrant in the lottery.  Drawing an index
                 directly keeps the PRNG stream identical to the
                 historical list-to-array lottery while skipping the
                 per-step option array. *)
              let na = List.length attackers in
              let entrants =
                na + match defender_move with Some _ -> 1 | None -> 0
              in
              let pick = Rng.int rng entrants in
              if pick < na then begin
                let i = List.nth attackers pick in
                choices.(i) <- Rng.choose rng uncovered;
                emit step (`Attacker i)
              end
              else begin
                tuple := Option.get better_tuple;
                emit step `Defender
              end;
              loop (step + 1)
        end
      in
      loop 0
  end

  module Engine = struct
    type round = {
      index : int;
      choices : Graph.vertex array;
      tuple : G.Strategy.t;
      caught : int;
    }

    type stats = {
      rounds : int;
      total_caught : int;
      mean_caught : float;
      stddev_caught : float;
      per_player_escapes : int array;
    }

    let confidence95 stats =
      1.96 *. stats.stddev_caught /. sqrt (float_of_int stats.rounds)

    let play ?record rng profile ~rounds =
      if rounds < 1 then invalid_arg "Engine.play: rounds must be positive";
      let inst = E.Profile.instance profile in
      let g = G.graph inst in
      let nu = G.nu inst in
      let strategies =
        Array.init nu (fun i -> E.Profile.vp_strategy profile i)
      in
      let tp = Array.of_list (E.Profile.tp_strategy profile) in
      (* Kernel-style precomputation: one float weight and one boolean
         coverage table per support tuple, so the per-round cost is
         O(ν) array probes instead of O(ν·k) coverage scans. *)
      let tp_probs = Array.map (fun (_, p) -> Q.to_float p) tp in
      let cover =
        Array.map
          (fun (t, _) ->
            let c = Array.make (Graph.n g) false in
            List.iter (fun v -> c.(v) <- true) (G.covered inst t);
            c)
          tp
      in
      let sample_tuple_index () =
        let target = Rng.float rng in
        let last = Array.length tp - 1 in
        let rec scan j acc =
          if j = last then j
          else
            let acc = acc +. tp_probs.(j) in
            if target < acc then j else scan (j + 1) acc
        in
        scan 0 0.0
      in
      let per_player_escapes = Array.make nu 0 in
      let total = ref 0 and total_sq = ref 0 in
      let choices = Array.make nu 0 in
      for index = 0 to rounds - 1 do
        for i = 0 to nu - 1 do
          choices.(i) <- Dist.Finite.sample rng strategies.(i)
        done;
        let j = sample_tuple_index () in
        let covered = cover.(j) in
        let caught = ref 0 in
        for i = 0 to nu - 1 do
          if covered.(choices.(i)) then incr caught
          else per_player_escapes.(i) <- per_player_escapes.(i) + 1
        done;
        total := !total + !caught;
        total_sq := !total_sq + (!caught * !caught);
        match record with
        | Some f ->
            f
              {
                index;
                choices = Array.copy choices;
                tuple = fst tp.(j);
                caught = !caught;
              }
        | None -> ()
      done;
      let n = float_of_int rounds in
      let mean = float_of_int !total /. n in
      (* Sample (n−1) variance estimator; the population estimator
         understates sigma and would silently tighten the T7 acceptance
         band. *)
      let variance =
        if rounds > 1 then
          (float_of_int !total_sq -. (n *. mean *. mean)) /. (n -. 1.0)
        else 0.0
      in
      {
        rounds;
        total_caught = !total;
        mean_caught = mean;
        stddev_caught = sqrt (max variance 0.0);
        per_player_escapes;
      }

    let agrees_with_analytic ?(z = 4.0) stats profile =
      let exact = Q.to_float (E.Profit.expected_tp profile) in
      let half_width =
        z *. stats.stddev_caught /. sqrt (float_of_int stats.rounds)
      in
      abs_float (stats.mean_caught -. exact) <= half_width +. 1e-9
  end

  module Workload = struct
    type attacker_policy =
      | Attacker_fixed of Dist.Finite.t
      | Attacker_uniform
      | Attacker_hotspot of {
          targets : Graph.vertex list;
          concentration : float;
        }
      | Attacker_adaptive of { epsilon : float }

    type defender_policy =
      | Defender_fixed of (G.Strategy.t * Exact.Q.t) list
      | Defender_uniform_tuple
      | Defender_greedy of { epsilon : float }
      | Defender_round_robin
      | Defender_flaky of { base : defender_policy; failure_rate : float }

    type outcome = {
      rounds : int;
      total_caught : int;
      mean_caught : float;
      caught_series : int array;
    }

    let rec policy_name = function
      | Defender_fixed _ -> "fixed/NE"
      | Defender_uniform_tuple -> "uniform-tuple"
      | Defender_greedy _ -> "greedy"
      | Defender_round_robin -> "round-robin"
      | Defender_flaky { base; failure_rate } ->
          Printf.sprintf "flaky(%s, f=%.2f)" (policy_name base) failure_rate

    let attacker_name = function
      | Attacker_fixed _ -> "fixed"
      | Attacker_uniform -> "uniform"
      | Attacker_hotspot _ -> "hotspot"
      | Attacker_adaptive _ -> "adaptive"

    (* Mutable per-run state shared by the adaptive policies. *)
    type state = {
      hit_count : int array;        (* times each vertex was scanned *)
      attack_count : int array;     (* times each vertex was attacked *)
      mutable rr_round : int;       (* round-robin calls so far *)
      tie : int array;              (* scratch for least-hit tie-breaking *)
    }

    let hotspot_distribution g ~targets ~concentration =
      if concentration < 0.0 || concentration > 1.0 then
        invalid_arg "Workload: concentration outside [0,1]";
      let targets = List.sort_uniq Int.compare targets in
      if targets = [] then invalid_arg "Workload: empty hotspot target list";
      let n = Graph.n g in
      let others =
        List.filter (fun v -> not (List.mem v targets)) (List.init n Fun.id)
      in
      let weights = Array.make n 0.0 in
      let t_w = concentration /. float_of_int (List.length targets) in
      List.iter (fun v -> weights.(v) <- t_w) targets;
      if others <> [] then begin
        let o_w = (1.0 -. concentration) /. float_of_int (List.length others) in
        List.iter (fun v -> weights.(v) <- o_w) others
      end;
      weights

    let sample_attacker rng g state = function
      | Attacker_fixed d -> Dist.Finite.sample rng d
      | Attacker_uniform -> Rng.int rng (Graph.n g)
      | Attacker_hotspot { targets; concentration } ->
          (* weights recomputed lazily would be cleaner; cheap enough *)
          Rng.weighted_index rng (hotspot_distribution g ~targets ~concentration)
      | Attacker_adaptive { epsilon } ->
          if Rng.bool_with_prob rng epsilon then Rng.int rng (Graph.n g)
          else least_hit rng ~counts:state.hit_count ~tie:state.tie

    let sample_fixed_tuple rng strategy =
      let target = Rng.float rng in
      let rec scan acc = function
        | [ (t, _) ] -> t
        | (t, p) :: rest ->
            let acc = acc +. Q.to_float p in
            if target < acc then t else scan acc rest
        | [] -> assert false
      in
      scan 0.0 strategy

    let round_robin_tuple inst state =
      let round = state.rr_round in
      state.rr_round <- round + 1;
      G.round_robin inst ~round

    let rec sample_defender rng inst state = function
      | Defender_fixed strategy -> Some (sample_fixed_tuple rng strategy)
      | Defender_uniform_tuple -> Some (G.random_strategy inst rng)
      | Defender_greedy { epsilon } ->
          if Rng.bool_with_prob rng epsilon then
            Some (G.random_strategy inst rng)
          else Some (G.greedy_by_counts inst ~counts:state.attack_count)
      | Defender_round_robin -> Some (round_robin_tuple inst state)
      | Defender_flaky { base; failure_rate } ->
          (* outage: the scan produces nothing this round *)
          if Rng.bool_with_prob rng failure_rate then None
          else sample_defender rng inst state base

    let validate_policies inst ~attacker ~defender =
      let g = G.graph inst in
      (match attacker with
      | Attacker_fixed d ->
          List.iter
            (fun v ->
              if v < 0 || v >= Graph.n g then
                invalid_arg "Workload.run: fixed attacker distribution off-graph")
            (Dist.Finite.support d)
      | Attacker_uniform | Attacker_hotspot _ | Attacker_adaptive _ -> ());
      let rec check_defender = function
        | Defender_fixed strategy ->
            if strategy = [] then
              invalid_arg "Workload.run: empty defender strategy";
            List.iter
              (fun (t, _) ->
                match G.validate inst t with
                | () -> ()
                | exception Invalid_argument _ ->
                    invalid_arg "Workload.run: fixed defender tuple size <> k")
              strategy
        | Defender_flaky { base; failure_rate } ->
            if failure_rate < 0.0 || failure_rate >= 1.0 then
              invalid_arg "Workload.run: failure_rate outside [0, 1)";
            check_defender base
        | Defender_uniform_tuple | Defender_greedy _ | Defender_round_robin ->
            ()
      in
      check_defender defender

    let run rng inst ~attacker ~defender ~rounds =
      if rounds < 1 then invalid_arg "Workload.run: rounds must be positive";
      validate_policies inst ~attacker ~defender;
      let g = G.graph inst in
      let nu = G.nu inst in
      let state =
        {
          hit_count = Array.make (Graph.n g) 0;
          attack_count = Array.make (Graph.n g) 0;
          rr_round = 0;
          tie = Array.make (Graph.n g) 0;
        }
      in
      let caught_series = Array.make rounds 0 in
      let total = ref 0 in
      let choices = Array.make nu 0 in
      for r = 0 to rounds - 1 do
        for i = 0 to nu - 1 do
          choices.(i) <- sample_attacker rng g state attacker
        done;
        let tuple = sample_defender rng inst state defender in
        let caught = ref 0 in
        for i = 0 to nu - 1 do
          state.attack_count.(choices.(i)) <-
            state.attack_count.(choices.(i)) + 1;
          match tuple with
          | Some t when G.covers inst t choices.(i) -> incr caught
          | Some _ | None -> ()
        done;
        (match tuple with
        | Some t ->
            List.iter
              (fun v -> state.hit_count.(v) <- state.hit_count.(v) + 1)
              (G.covered inst t)
        | None -> ());
        caught_series.(r) <- !caught;
        total := !total + !caught
      done;
      {
        rounds;
        total_caught = !total;
        mean_caught = float_of_int !total /. float_of_int rounds;
        caught_series;
      }
  end
end
