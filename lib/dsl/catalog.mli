(** Sub-DSL catalog (§3.3, Listing 1): family-specific vocabularies,
    depth/node budgets, constant pools and unit-checking switches. The
    classifier hint maps a trace suite to one of these. *)

type t = {
  name : string;
  components : Component.t list;
  max_depth : int;
  max_nodes : int;
  constant_pool : float array;
  unit_check : bool;
}

val default_constants : float array
(** The §4.2 approximate-concretization pool: constants observed in the
    published classical CCAs, plus 0 and small integers. *)

val reno : t
(** The base Reno-DSL (black elements of Listing 1 + reno-inc). *)

val cubic : t
(** Reno plus cube/cube-root and wmax; unit checking disabled (§5.5). *)

val delay : t
(** The rate/delay DSL (starred extensions of Listing 1). *)

val vegas : t
(** The delay DSL plus the vegas-diff macro. *)

val delay_7 : t
val delay_11 : t
val vegas_11 : t
(** The Figure 6 budget variants. *)

val all : t list
val find : string -> t option
val operators : t -> Component.t list
