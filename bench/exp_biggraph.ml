(* Experiment family G: the BigGraph tier.  The CSR substrate exists so
   the matching machinery behind Theorems 3.1/4.13/5.1 runs at graph
   sizes the paper's constructions are *about* but the seed
   representation could never reach.  G1 drives Hopcroft-Karp, König
   and the Hall expander check on a sparse random bipartite graph with
   10^5-10^6 vertices; G2 drives the blossom algorithm on a general
   graph of the same magnitude built to have a known perfect matching,
   and cross-checks blossom against Hopcroft-Karp where both apply.
   Stage wall-clocks are recorded as timings and accounted through
   [Harness.Obs] spans; every reported measure is a pure function of
   the seeded instance, so bench-smoke's gate that sequential and
   --jobs artifacts agree extends over this tier too. *)

open Netgraph
module E = Harness.Experiment
module Obs = Harness.Obs

let timed ctx label f =
  let x, wall = Harness.Timer.time (fun () -> Obs.span label f) in
  E.record_timing ctx label { E.median = wall; min = wall; max = wall; runs = 1 };
  x

let involution_ok g mate =
  let ok = ref true in
  for v = 0 to Graph.n g - 1 do
    let w = mate.(v) in
    if w >= 0 && (w >= Graph.n g || mate.(w) <> v) then ok := false
  done;
  !ok

(* G1 — bipartite matching pipeline at 10^5..10^6 vertices: maximum
   matching, then the König cover and the Hall/expander verdict it
   certifies, all on one seeded sparse d-out instance. *)
let g1 ctx =
  let a = if E.is_smoke ctx then 60_000 else 500_000 in
  let d = 3 in
  let n = 2 * a in
  let rng = Prng.Rng.create 9_000_001 in
  let g =
    timed ctx "g1.generate" (fun () ->
        Gen.random_bipartite_sparse rng ~a ~b:a ~d)
  in
  let left = List.init a (fun i -> i) in
  let right = List.init a (fun i -> a + i) in
  E.measure ctx "n" (E.Int n);
  E.measure ctx "m" (E.Int (Graph.m g));
  ignore
    (E.check ctx ~label:"G1: d-out generator emits exactly a*d edges"
       (Graph.m g = a * d));
  let mm = timed ctx "g1.hopcroft_karp" (fun () ->
      Matching.Hopcroft_karp.max_matching g ~left ~right)
  in
  let size = mm.Matching.Hopcroft_karp.size in
  let deficiency = a - size in
  E.measure ctx "matching_size" (E.Int size);
  E.measure ctx "deficiency" (E.Int deficiency);
  ignore
    (E.check ctx ~label:"G1: mate array is an involution"
       (involution_ok g mm.Matching.Hopcroft_karp.mate));
  ignore
    (E.check ctx ~label:"G1: one matched edge per matched pair"
       (List.length mm.Matching.Hopcroft_karp.edges = size));
  (* König: |minimum vertex cover| = mu, and the cover is verified to
     cover by a full edge scan, not trusted from the theorem. *)
  let koenig = timed ctx "g1.koenig" (fun () -> Matching.Koenig.solve g) in
  let cover = koenig.Matching.Koenig.vertex_cover in
  E.measure ctx "vertex_cover_size" (E.Int (List.length cover));
  ignore
    (E.check ctx ~label:"G1: Koenig cover size equals matching size"
       (List.length cover = size));
  let in_cover = Array.make n false in
  List.iter (fun v -> in_cover.(v) <- true) cover;
  let covers_all =
    Graph.fold_edges g ~init:true ~f:(fun acc _ e ->
        acc && (in_cover.(e.Graph.u) || in_cover.(e.Graph.v)))
  in
  ignore (E.check ctx ~label:"G1: Koenig cover covers every edge" covers_all);
  (* Hall on the left side: the expander verdict must agree with the
     deficiency computed independently by Hopcroft-Karp. *)
  let hall = timed ctx "g1.hall" (fun () -> Matching.Hall.check g ~vc:left) in
  ignore
    (E.check ctx ~label:"G1: Hall verdict consistent with HK deficiency"
       (hall.Matching.Hall.expander = (deficiency = 0)));
  ignore
    (E.check ctx
       ~label:"G1: Hall verdict carries the matching witness it claims"
       (match hall with
       | { Matching.Hall.expander = true; saturating_matching = Some es; _ }
         -> List.length es = a
       | { Matching.Hall.expander = false; violating_set = Some vs; _ } ->
           vs <> []
       | _ -> false));
  E.outf ctx
    "G1 bipartite n=%d m=%d: mu=%d (deficiency %d), |VC|=%d, expander=%b\n"
    n (Graph.m g) size deficiency (List.length cover)
    hall.Matching.Hall.expander

(* G2 — general matching at 10^5..10^6 vertices.  A Chung-Lu power-law
   core with a pendant mate attached to every core vertex: the pendant
   edges form a perfect matching, so mu = n/2 exactly — a closed-form
   answer the blossom run is gated against — while the skewed core
   supplies the odd cycles that force real contractions.  Every
   augmenting search from a free vertex must succeed (a perfect
   matching exists), which is what keeps the run near-linear at this
   scale. *)
let g2 ctx =
  let core = if E.is_smoke ctx then 50_000 else 500_000 in
  let n = 2 * core in
  let rng = Prng.Rng.create 9_000_002 in
  let g =
    timed ctx "g2.generate" (fun () ->
        let cl =
          Gen.chung_lu rng ~n:core ~gamma:2.5 ~avg_degree:3.0
        in
        let bd =
          Graph.Builder.create ~edges_hint:(Graph.m cl + core) ~n ()
        in
        Graph.iter_edges cl ~f:(fun _ e ->
            Graph.Builder.add_edge bd e.Graph.u e.Graph.v);
        for i = 0 to core - 1 do
          Graph.Builder.add_edge bd i (core + i)
        done;
        Graph.Builder.finish bd)
  in
  E.measure ctx "n" (E.Int n);
  E.measure ctx "m" (E.Int (Graph.m g));
  let mm = timed ctx "g2.blossom" (fun () -> Matching.Blossom.max_matching g) in
  let size = mm.Matching.Blossom.size in
  E.measure ctx "matching_size" (E.Int size);
  ignore
    (E.check ctx
       ~label:"G2: blossom finds the pendant-saturated perfect matching"
       (size = core));
  ignore
    (E.check ctx ~label:"G2: mate array is an involution"
       (involution_ok g mm.Matching.Blossom.mate));
  ignore
    (E.check ctx ~label:"G2: one matched edge per matched pair"
       (List.length mm.Matching.Blossom.edges = size));
  (* Cross-engine agreement where both engines apply: on a bipartite
     instance blossom must reproduce the Hopcroft-Karp optimum. *)
  let a2 = if E.is_smoke ctx then 5_000 else 20_000 in
  let bip = Gen.random_bipartite_sparse rng ~a:a2 ~b:a2 ~d:3 in
  let hk_size, bl_size =
    timed ctx "g2.crosscheck" (fun () ->
        let left = List.init a2 (fun i -> i) in
        let right = List.init a2 (fun i -> a2 + i) in
        ( (Matching.Hopcroft_karp.max_matching bip ~left ~right)
            .Matching.Hopcroft_karp.size,
          Matching.Blossom.matching_number bip ))
  in
  E.measure ctx "crosscheck_size" (E.Int hk_size);
  ignore
    (E.check ctx
       ~label:"G2: blossom agrees with Hopcroft-Karp on a bipartite instance"
       (hk_size = bl_size));
  E.outf ctx "G2 general n=%d m=%d: mu=%d (perfect); crosscheck mu=%d on \
              bipartite n=%d\n"
    n (Graph.m g) size hk_size (2 * a2)

let register () =
  let r ~id ~claim ~expected run =
    Harness.Registry.register
      {
        Harness.Experiment.id;
        tag = Harness.Experiment.Extension;
        claim;
        expected;
        game = "tuple";
        run;
      }
  in
  r ~id:"G1"
    ~claim:
      "the CSR substrate carries the bipartite matching pipeline \
       (Hopcroft-Karp, Koenig cover, Hall expander verdict) to 10^5-10^6 \
       vertex instances"
    ~expected:
      "|VC| = mu with the cover verified edge-by-edge; Hall verdict matches \
       the HK deficiency; mate involution; stage wall-clocks recorded"
    g1;
  r ~id:"G2"
    ~claim:
      "the CSR substrate carries the blossom algorithm to 10^5-10^6 vertex \
       general graphs"
    ~expected:
      "mu = n/2 exactly on the pendant-saturated power-law instance; mate \
       involution; blossom = Hopcroft-Karp on a bipartite cross-check"
    g2
