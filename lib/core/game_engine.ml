(* The exact game engine, generic over a GAME instance (game.mli); the
   interface and its documentation are in game_engine.mli.  [Make]
   builds, for one game, the full tower: incremental payoff kernel,
   profiles, exact profits, best responses, pure-NE brute force,
   mixed-NE verification and profile I/O.  Tuple_instance and
   Subgraph_instance are its two applications.  The tuple game's
   results must stay byte-identical to the pre-functor code it
   replaced: every fold order, tie-break, error string and
   observability counter below is load-bearing.  Payoffs never leave
   Exact.Q. *)

open Netgraph
module Q = Exact.Q
module Finite = Dist.Finite

let enumeration_limit = 2_000_000

module Make (G : Game.S) = struct
  (* The exact payoff tables behind every kernel-backed profile.  Not
     exported: the interface's only view of them is Profile's leaf
     queries, whose Profile.rescan twin re-scans the supports. *)
  module Kernel = struct
    type t = { hit : Q.t array; load : Q.t array; edge_load : Q.t array }

    (* The patch-vs-rebuild economics this kernel exists for, as
       counters: how many full builds, how many O(deg) patches, and how
       many cells each copy-on-write patch actually duplicated.  The
       handles are interned by name, so every Make application shares
       them — a sweep's metrics aggregate over all games. *)
    let c_builds = Obs.counter "kernel.builds"
    let c_vp_patches = Obs.counter "kernel.vp_patches"
    let c_tp_patches = Obs.counter "kernel.tp_patches"
    let c_cow_cells = Obs.counter "kernel.cow_cells"

    let hit_table inst tp =
      let g = G.graph inst in
      let hit = Array.make (Graph.n g) Q.zero in
      List.iter
        (fun (t, p) ->
          List.iter (fun v -> hit.(v) <- Q.add hit.(v) p) (G.covered inst t))
        tp;
      hit

    let load_table g vp =
      let load = Array.make (Graph.n g) Q.zero in
      Array.iter
        (fun d -> Finite.iter d ~f:(fun v p -> load.(v) <- Q.add load.(v) p))
        vp;
      load

    let edge_load_table g load =
      Array.init (Graph.m g) (fun id ->
          let e = Graph.edge g id in
          Q.add load.(e.Graph.u) load.(e.Graph.v))

    let make inst ~vp ~tp =
      Obs.incr c_builds;
      let g = G.graph inst in
      let load = load_table g vp in
      { hit = hit_table inst tp; load; edge_load = edge_load_table g load }

    let replace_vp g ~old_d ~new_d k =
      Obs.incr c_vp_patches;
      Obs.add c_cow_cells (Array.length k.load + Array.length k.edge_load);
      let load = Array.copy k.load in
      let edge_load = Array.copy k.edge_load in
      let shift v delta =
        load.(v) <- Q.add load.(v) delta;
        Graph.iter_incident g v ~f:(fun _ id ->
            edge_load.(id) <- Q.add edge_load.(id) delta)
      in
      Finite.iter old_d ~f:(fun v p -> shift v (Q.neg p));
      Finite.iter new_d ~f:(fun v p -> shift v p);
      { k with load; edge_load }

    let replace_tp inst ~tp k =
      Obs.incr c_tp_patches;
      { k with hit = hit_table inst tp }
  end

  module Profile = struct
    type pure = {
      vp_choices : Graph.vertex array;
      tp_choice : G.Strategy.t;
    }

    type mixed = {
      instance : G.instance;
      vp : Finite.t array;
      tp : (G.Strategy.t * Q.t) list;
          (* positive probs, canonical strategies, sums to 1 *)
      kernel : Kernel.t option;
          (* exact hit/load tables, kept in sync; None on a rescan
             profile, whose queries re-scan the supports instead *)
    }

    let check_vertex g v =
      if v < 0 || v >= Graph.n g then
        invalid_arg (Printf.sprintf "Profile: vertex %d out of range" v)

    let make_pure inst ~vp_choices ~tp_choice =
      if List.length vp_choices <> G.nu inst then
        invalid_arg "Profile.make_pure: wrong number of vertex-player choices";
      List.iter (check_vertex (G.graph inst)) vp_choices;
      G.validate inst tp_choice;
      { vp_choices = Array.of_list vp_choices; tp_choice }

    let check_tp inst tp =
      if tp = [] then
        invalid_arg "Profile.make_mixed: empty tuple-player strategy";
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (t, p) ->
          G.validate inst t;
          if Q.sign p <= 0 then
            invalid_arg "Profile.make_mixed: non-positive tuple probability";
          let key = G.Strategy.to_ints t in
          if Hashtbl.mem seen key then
            invalid_arg "Profile.make_mixed: duplicate tuple in support";
          Hashtbl.add seen key ())
        tp;
      let total = Q.sum (List.map snd tp) in
      if not (Q.equal total Q.one) then
        invalid_arg
          (Printf.sprintf "Profile.make_mixed: tuple probabilities sum to %s"
             (Q.to_string total))

    let make_mixed inst ~vp ~tp =
      if List.length vp <> G.nu inst then
        invalid_arg
          "Profile.make_mixed: wrong number of vertex-player strategies";
      List.iter
        (fun d -> List.iter (check_vertex (G.graph inst)) (Finite.support d))
        vp;
      check_tp inst tp;
      let vp = Array.of_list vp in
      { instance = inst; vp; tp; kernel = Some (Kernel.make inst ~vp ~tp) }

    let of_pure inst { vp_choices; tp_choice } =
      make_mixed inst
        ~vp:(Array.to_list (Array.map Finite.point vp_choices))
        ~tp:[ (tp_choice, Q.one) ]

    let uniform inst ~vp_support ~tp_support =
      let vp_dist = Finite.uniform vp_support in
      let count = List.length tp_support in
      if count = 0 then invalid_arg "Profile.uniform: empty tuple support";
      let p = Q.make 1 count in
      make_mixed inst
        ~vp:(List.init (G.nu inst) (fun _ -> vp_dist))
        ~tp:(List.map (fun t -> (t, p)) tp_support)

    let rescan m = { m with kernel = None }
    let instance m = m.instance

    let vp_strategy m i =
      if i < 0 || i >= Array.length m.vp then
        invalid_arg "Profile.vp_strategy: player index out of range";
      m.vp.(i)

    let vp_strategies m = Array.copy m.vp
    let tp_strategy m = m.tp
    let vp_support m i = Finite.support (vp_strategy m i)

    let vp_support_union m =
      Array.to_list m.vp |> List.concat_map Finite.support
      |> List.sort_uniq compare

    let tp_support m = List.map fst m.tp

    let tuples_hitting m v =
      List.filter (fun (t, _) -> G.covers m.instance t v) m.tp

    (* The leaf queries are the one place the kernel/rescan choice is
       made.  A rescan profile re-scans the relevant support on every
       query: it is the correctness oracle for the kernel tables (the
       property tests assert exact Q-equality between the two).  The
       counter pairs with kernel.builds / kernel.*_patches: their ratio
       in a sweep's metrics shows how much rescanning the tables avoid. *)

    let c_naive_rescans = Obs.counter "kernel.naive_rescans"

    let hit_prob m v =
      match m.kernel with
      | Some k -> k.Kernel.hit.(v)
      | None ->
          Obs.incr c_naive_rescans;
          Q.sum (List.map snd (tuples_hitting m v))

    let expected_load m v =
      match m.kernel with
      | Some k -> k.Kernel.load.(v)
      | None ->
          Obs.incr c_naive_rescans;
          Array.fold_left (fun acc d -> Q.add acc (Finite.prob d v)) Q.zero m.vp

    let expected_load_edge m id =
      match m.kernel with
      | Some k -> k.Kernel.edge_load.(id)
      | None ->
          let e = Graph.edge (G.graph m.instance) id in
          Q.add (expected_load m e.Graph.u) (expected_load m e.Graph.v)

    let expected_load_strategy m t =
      List.fold_left
        (fun acc v -> Q.add acc (expected_load m v))
        Q.zero
        (G.covered m.instance t)

    let replace_vp m i d =
      List.iter (check_vertex (G.graph m.instance)) (Finite.support d);
      if i < 0 || i >= Array.length m.vp then
        invalid_arg "Profile.replace_vp: player index out of range";
      let kernel =
        Option.map
          (Kernel.replace_vp (G.graph m.instance) ~old_d:m.vp.(i) ~new_d:d)
          m.kernel
      in
      let vp = Array.copy m.vp in
      vp.(i) <- d;
      { m with vp; kernel }

    let replace_tp m tp =
      check_tp m.instance tp;
      let kernel = Option.map (Kernel.replace_tp m.instance ~tp) m.kernel in
      { m with tp; kernel }

    let is_pure m = Array.for_all Finite.is_pure m.vp && List.length m.tp = 1

    let pp fmt m =
      Format.fprintf fmt "@[<v 2>profile %a:@," G.pp_instance m.instance;
      Array.iteri
        (fun i d -> Format.fprintf fmt "vp%d: %a@," i Finite.pp d)
        m.vp;
      Format.fprintf fmt "tp:";
      List.iter
        (fun (t, p) ->
          Format.fprintf fmt "@ %a:%s" G.Strategy.pp t (Q.to_string p))
        m.tp;
      Format.fprintf fmt "@]"
  end

  module Profit = struct
    let pure_vp inst (profile : Profile.pure) i =
      if i < 0 || i >= Array.length profile.Profile.vp_choices then
        invalid_arg "Profit.pure_vp: player index out of range";
      if
        G.covers inst profile.Profile.tp_choice
          profile.Profile.vp_choices.(i)
      then 0
      else 1

    let pure_tp inst (profile : Profile.pure) =
      Array.fold_left
        (fun acc v ->
          if G.covers inst profile.Profile.tp_choice v then acc + 1 else acc)
        0 profile.Profile.vp_choices

    let vp_payoff_of_vertex m v = Q.sub Q.one (Profile.hit_prob m v)
    let tp_payoff_of_strategy = Profile.expected_load_strategy

    let expected_vp m i =
      Finite.expect (Profile.vp_strategy m i) ~f:(vp_payoff_of_vertex m)

    let expected_tp m =
      Q.sum
        (List.map
           (fun (t, p) -> Q.mul p (Profile.expected_load_strategy m t))
           (Profile.tp_strategy m))
  end

  (* The guard of every enumerating walk: refuse a strategy space of
     more than [enumeration_limit] strategies with [refusal] before
     walking any of it. *)
  let check_enumerable inst refusal =
    match G.space_size_within inst ~limit:enumeration_limit with
    | Some _ -> ()
    | None -> invalid_arg refusal

  module Best_response = struct
    let graph m = G.graph (Profile.instance m)

    (* One count per full sweep over the vertex space — the unit B7
       times and B15 gates its observability overhead on. *)
    let c_vp_sweeps = Obs.counter "br.vp_sweeps"

    let vp_best_vertex m =
      Obs.incr c_vp_sweeps;
      let g = graph m in
      let best = ref 0 and best_hit = ref (Profile.hit_prob m 0) in
      for v = 1 to Graph.n g - 1 do
        let h = Profile.hit_prob m v in
        if Q.( < ) h !best_hit then begin
          best := v;
          best_hit := h
        end
      done;
      !best

    let vp_best_value m = Q.sub Q.one (Profile.hit_prob m (vp_best_vertex m))

    let tp_best_exhaustive m =
      check_enumerable (Profile.instance m)
        "Best_response: tuple space too large for enumeration";
      let best = ref None in
      let _ =
        G.fold_strategies (Profile.instance m) ~init:() ~f:(fun () t ->
            let value = Profile.expected_load_strategy m t in
            match !best with
            | Some (_, v) when Q.( >= ) v value -> ()
            | _ -> best := Some (t, value))
      in
      match !best with Some (t, _) -> t | None -> assert false

    let tp_best_value_exhaustive m =
      Profile.expected_load_strategy m (tp_best_exhaustive m)

    let tp_upper_bound m =
      G.value_upper_bound (Profile.instance m)
        ~load:(Profile.expected_load m)
        ~edge_load:(Profile.expected_load_edge m)

    (* One count per weighted-oracle invocation — the double-oracle
       solver's per-iteration cost unit. *)
    let c_weighted_oracles = Obs.counter "br.weighted_oracles"

    (* Exact defender best response through the game's weighted oracle:
       the weights are the profile's expected per-vertex attacker loads,
       so unlike [tp_best_exhaustive] this never walks the strategy
       space and stays exact on spaces of any size. *)
    let tp_best_weighted m =
      Obs.incr c_weighted_oracles;
      let g = graph m in
      let weight = Array.init (Graph.n g) (Profile.expected_load m) in
      G.best_response_weighted (Profile.instance m) ~weight

    let tp_best_value_weighted m =
      Profile.expected_load_strategy m (tp_best_weighted m)
  end

  module Pure = struct
    let refusal = "Pure_nash: tuple space too large for brute-force inspection"

    let is_pure_ne inst (profile : Profile.pure) =
      check_enumerable inst refusal;
      let g = G.graph inst in
      let t = profile.Profile.tp_choice in
      let all_covered = List.length (G.covered inst t) = Graph.n g in
      (* Vertex players: a caught player improves by moving to any
         uncovered vertex; an escaped player is already at its maximum
         profit 1. *)
      let vp_ok =
        Array.for_all
          (fun v -> all_covered || not (G.covers inst t v))
          profile.Profile.vp_choices
      in
      vp_ok
      &&
      (* Defender: compare with the best achievable coverage count. *)
      let catch choice =
        Array.fold_left
          (fun acc v -> if G.covers inst choice v then acc + 1 else acc)
          0 profile.Profile.vp_choices
      in
      let current = catch t in
      let best =
        G.fold_strategies inst ~init:0 ~f:(fun acc t' -> max acc (catch t'))
      in
      current = best

    let exists_brute_force inst =
      check_enumerable inst refusal;
      let n = Graph.n (G.graph inst) in
      (* Symmetry reduction: a pure NE exists iff some strategy covers
         every vertex; the search below is the definitional enumeration
         over defender choices with the attacker side resolved
         analytically. *)
      G.fold_strategies inst ~init:false ~f:(fun acc t ->
          acc || List.length (G.covered inst t) = n)
  end

  module Verify = struct
    type mode = Exhaustive | Certificate | Oracle
    type verdict = Confirmed | Refuted of string | Unknown of string

    let verdict_is_confirmed = function
      | Confirmed -> true
      | Refuted _ | Unknown _ -> false

    let verdict_to_string = function
      | Confirmed -> "confirmed"
      | Refuted why -> "refuted: " ^ why
      | Unknown why -> "unknown: " ^ why

    let vp_side m =
      let best = Best_response.vp_best_value m in
      let nu = G.nu (Profile.instance m) in
      let rec check i =
        if i = nu then Confirmed
        else
          let offending =
            List.find_opt
              (fun v -> Q.( < ) (Profit.vp_payoff_of_vertex m v) best)
              (Profile.vp_support m i)
          in
          match offending with
          | Some v ->
              Refuted
                (Printf.sprintf
                   "vertex player %d puts weight on vertex %d with payoff %s \
                    < best %s"
                   i v
                   (Q.to_string (Profit.vp_payoff_of_vertex m v))
                   (Q.to_string best))
          | None -> check (i + 1)
      in
      check 0

    let support_load_range m =
      let loads =
        List.map
          (fun (t, _) -> Profile.expected_load_strategy m t)
          (Profile.tp_strategy m)
      in
      (Q.min_list loads, Q.max_list loads)

    let tp_side mode m =
      let low, high = support_load_range m in
      if Q.( < ) low high then
        Refuted
          (Printf.sprintf
             "defender support mixes tuples of different value (%s vs %s)"
             (Q.to_string low) (Q.to_string high))
      else
        match mode with
        | Exhaustive ->
            let best = Best_response.tp_best_value_exhaustive m in
            if Q.( < ) low best then
              Refuted
                (Printf.sprintf
                   "defender can deviate to a tuple of value %s > %s"
                   (Q.to_string best) (Q.to_string low))
            else Confirmed
        | Certificate ->
            let bound = Best_response.tp_upper_bound m in
            if Q.equal low bound then Confirmed
            else
              Unknown
                (Printf.sprintf
                   "support value %s below top-k edge-load bound %s; \
                    certificate inconclusive"
                   (Q.to_string low) (Q.to_string bound))
        | Oracle ->
            (* Exact and complete at any space size: the weighted oracle
               returns a true best response, so the comparison decides. *)
            let best = Best_response.tp_best_value_weighted m in
            if Q.( < ) low best then
              Refuted
                (Printf.sprintf
                   "defender can deviate to a strategy of value %s > %s \
                    (weighted oracle)"
                   (Q.to_string best) (Q.to_string low))
            else Confirmed

    let mixed_ne mode m =
      match vp_side m with
      | Confirmed -> tp_side mode m
      | (Refuted _ | Unknown _) as v -> v
  end

  module Io = struct
    (* Q's own string format ("num/den", "/den" omitted for integers) at
       any magnitude: probabilities with denominators beyond the native
       range serialize losslessly. *)
    let q_to_string = Q.to_string

    let q_of_string s =
      match Q.of_string_opt s with
      | Some q -> q
      | None -> invalid_arg ("Profile_io: bad rational " ^ s)

    (* The tuple game keeps writing the original "profile v1" format
       bit-for-bit (old artifacts stay loadable and new tuple saves stay
       diffable against old ones); every other game writes "profile v2"
       plus an explicit "game <name>" tag line.  The reader accepts both:
       v1 implies the tuple game. *)
    let to_string profile =
      let inst = Profile.instance profile in
      let buf = Buffer.create 256 in
      Buffer.add_string buf "# defender mixed configuration\n";
      if G.name = "tuple" then Buffer.add_string buf "profile v1\n"
      else
        Buffer.add_string buf (Printf.sprintf "profile v2\ngame %s\n" G.name);
      Buffer.add_string buf
        (String.concat " "
           (List.concat_map
              (fun (key, value) -> [ key; string_of_int value ])
              (G.params inst))
        ^ "\n");
      for i = 0 to G.nu inst - 1 do
        Buffer.add_string buf (Printf.sprintf "vp %d" i);
        let d = Profile.vp_strategy profile i in
        List.iter
          (fun v ->
            Buffer.add_string buf
              (Printf.sprintf " %d:%s" v (q_to_string (Finite.prob d v))))
          (Finite.support d);
        Buffer.add_char buf '\n'
      done;
      Buffer.add_string buf "tp";
      List.iter
        (fun (t, p) ->
          Buffer.add_string buf
            (Printf.sprintf " %s:%s"
               (String.concat ","
                  (List.map string_of_int (G.Strategy.to_ints t)))
               (q_to_string p)))
        (Profile.tp_strategy profile);
      Buffer.add_char buf '\n';
      Buffer.contents buf

    let of_string inst text =
      let lines =
        String.split_on_char '\n' text
        |> List.map String.trim
        |> List.filter (fun l -> l <> "" && l.[0] <> '#')
      in
      let split_pair token =
        match String.rindex_opt token ':' with
        | Some i ->
            ( String.sub token 0 i,
              q_of_string
                (String.sub token (i + 1) (String.length token - i - 1)) )
        | None -> invalid_arg ("Profile_io: missing probability in " ^ token)
      in
      (match lines with
      | [] | [ _ ] -> invalid_arg "Profile_io: truncated input"
      | _ -> ());
      (* Header: "profile v1" (implicitly the tuple game) or
         "profile v2" followed by a "game <name>" line. *)
      let lines =
        match lines with
        | "profile v1" :: rest ->
            if G.name <> "tuple" then
              invalid_arg
                (Printf.sprintf
                   "Profile_io: v1 profile is a tuple-game profile, model is \
                    game %s"
                   G.name);
            rest
        | "profile v2" :: game_line :: rest -> (
            match String.split_on_char ' ' game_line with
            | [ "game"; tag ] ->
                if tag <> G.name then
                  invalid_arg
                    (Printf.sprintf
                       "Profile_io: profile is for game %s, model is game %s"
                       tag G.name);
                rest
            | _ -> invalid_arg "Profile_io: bad game line")
        | _ -> invalid_arg "Profile_io: bad header"
      in
      match lines with
      | sizes :: rest ->
          let expected = G.params inst in
          let mismatch () =
            invalid_arg
              (Printf.sprintf
                 "Profile_io: profile does not match the model (%s)"
                 (String.concat " or " (List.map fst expected)))
          in
          (match String.split_on_char ' ' sizes with
          | tokens when List.length tokens = 2 * List.length expected ->
              let rec pair = function
                | [] -> []
                | key :: value :: rest -> (key, value) :: pair rest
                | [ _ ] -> invalid_arg "Profile_io: bad sizes line"
              in
              List.iter2
                (fun (key, value) (ekey, evalue) ->
                  if key <> ekey then invalid_arg "Profile_io: bad sizes line";
                  match int_of_string_opt value with
                  | Some v when v = evalue -> ()
                  | Some _ -> mismatch ()
                  | None -> invalid_arg "Profile_io: bad sizes line")
                (pair tokens) expected
          | _ -> invalid_arg "Profile_io: bad sizes line");
          let nu = G.nu inst in
          let vp = Array.make nu None in
          let tp = ref None in
          List.iter
            (fun line ->
              match String.split_on_char ' ' line with
              | "vp" :: index :: tokens ->
                  let i =
                    match int_of_string_opt index with
                    | Some i when i >= 0 && i < nu -> i
                    | _ -> invalid_arg "Profile_io: bad vp index"
                  in
                  let pairs =
                    List.map
                      (fun token ->
                        let vertex, prob = split_pair token in
                        match int_of_string_opt vertex with
                        | Some v -> (v, prob)
                        | None ->
                            invalid_arg ("Profile_io: bad vertex " ^ vertex))
                      tokens
                  in
                  vp.(i) <- Some (Finite.make pairs)
              | "tp" :: tokens ->
                  let entries =
                    List.map
                      (fun token ->
                        let ids, prob = split_pair token in
                        let int_ids =
                          String.split_on_char ',' ids
                          |> List.map (fun s ->
                                 match int_of_string_opt s with
                                 | Some id -> id
                                 | None ->
                                     invalid_arg
                                       ("Profile_io: bad edge id " ^ s))
                        in
                        (G.strategy_of_ints inst int_ids, prob))
                      tokens
                  in
                  tp := Some entries
              | _ -> invalid_arg ("Profile_io: unrecognized line: " ^ line))
            rest;
          let vp =
            Array.to_list
              (Array.mapi
                 (fun i d ->
                   match d with
                   | Some d -> d
                   | None ->
                       invalid_arg
                         (Printf.sprintf
                            "Profile_io: missing strategy for vp %d" i))
                 vp)
          in
          let tp =
            match !tp with
            | Some entries -> entries
            | None -> invalid_arg "Profile_io: missing tp line"
          in
          Profile.make_mixed inst ~vp ~tp
      | _ -> invalid_arg "Profile_io: truncated input"

    let save file profile =
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (to_string profile))

    let load inst file =
      let ic = open_in file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let len = in_channel_length ic in
          of_string inst (really_input_string ic len))
  end
end
