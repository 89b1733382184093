(** Bucketization of the search space (§4.4): the bucket discriminator is
    the exact subset of DSL operators a sketch uses, so every sketch
    belongs to exactly one bucket — the property the divide-and-conquer
    refinement loop needs. *)

open Abg_dsl

type bucket = Component.t list

val all : Catalog.t -> bucket list
(** Every feasible operator subset of the DSL, the empty set (pure-leaf
    sketches) included. Feasibility: boolean operators only occur under a
    conditional and vice versa. Raises [Invalid_argument] beyond 20
    operators (the power set stops being enumerable). *)

val of_sketch : Expr.num -> bucket
(** The bucket a sketch belongs to. *)

val equal : bucket -> bucket -> bool
