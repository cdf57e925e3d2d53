(** The graph-theoretic characterization of mixed Nash equilibria
    (Theorem 3.4): a mixed configuration is an NE iff

    1. E(D(tp)) is an edge cover of G and D(VP) is a vertex cover of the
       graph obtained by E(D(tp));
    2. (a) hit probabilities are uniform over D(VP) and globally minimal,
       (b) the defender's probabilities sum to 1;
    3. (a) expected loads m_s(t) are uniform over D(tp) and globally
       maximal over E^k, (b) Σ_{v ∈ V(D(tp))} m_s(v) = ν.

    Condition 3(a)'s global maximality quantifies over C(m,k) tuples, so
    it inherits {!Tuple_instance.Engine.Verify.mode}. *)

open Tuple_instance

type report = {
  cond1_edge_cover : bool;
  cond1_vertex_cover : bool;
  cond2a_uniform_minimal_hit : bool;
  cond2b_tp_probability_sums : bool;
  cond3a_support_loads : Engine.Verify.verdict;
  cond3b_total_load : bool;
}

(** Overall verdict implied by a report. *)
val verdict : report -> Engine.Verify.verdict

(** [~naive:true] answers the hit/load queries by support re-scan instead
    of the profile's kernel tables (correctness oracle). *)
val check : ?naive:bool -> Engine.Verify.mode -> Engine.Profile.mixed -> report

(** [holds mode m] = the characterization verdict is [Confirmed]. *)
val holds : ?naive:bool -> Engine.Verify.mode -> Engine.Profile.mixed -> bool

val pp_report : Format.formatter -> report -> unit
