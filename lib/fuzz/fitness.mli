(** Fitness functions for the adversarial search: deterministic pure
    functions of (spec, scenario config); higher = more adversarial. *)

type kind =
  | Divergence  (** DTW between two named CCAs' CWND traces *)
  | Counterexample  (** synthesized-handler-vs-ground-truth distance *)
  | Throughput  (** 1 - link utilization of the CCA flow *)

val kind_name : kind -> string
val kind_of_name : string -> kind option

type spec = {
  kind : kind;
  cca : string;
  cca_b : string option;  (** second CCA of a divergence pair *)
  handler : Abg_dsl.Expr.num option;  (** counterexample target *)
}

val evaluate : spec -> Abg_netsim.Config.t -> float
(** Score one scenario. Raises [Failure] on an incoherent spec (unknown
    CCA, missing pair/handler); batch quarantine contains it. *)
