(** Sub-DSL catalog (§3.3, Listing 1).

    Searching the full DSL is intractable, so Abagnale is invoked with a
    family-specific sub-DSL chosen from classifier hints. Each entry fixes
    the component vocabulary, the AST depth and node budgets, the pool of
    candidate constant values for approximate concretization (§4.2), and
    whether unit constraints are enforced (disabled only for the Cubic DSL,
    per §5.5). *)

type t = {
  name : string;
  components : Component.t list;
  max_depth : int;
  max_nodes : int;
  constant_pool : float array;
  unit_check : bool;
}

(** Default placeholder constant values (§5.1/§6.1): the union of constants
    observed in the published descriptions of the classical CCAs, plus
    small integers. Concretization samples assignments from this pool. *)
let default_constants =
  [| 0.0; 0.16; 0.2; 0.25; 0.3; 0.35; 0.37; 0.5; 0.68; 0.7; 0.8; 1.0; 1.3;
     2.0; 2.05; 2.15; 2.6; 2.7; 3.0; 5.0; 8.0 |]

let base_ops =
  [ Component.Op_add; Component.Op_sub; Component.Op_mul; Component.Op_div;
    Component.Op_ite; Component.Op_lt; Component.Op_gt; Component.Op_modeq ]

(* Family sub-DSLs restrict operators as well as signals (§3.3): the
   paper's Table 4 bucket counts (e.g. 15 buckets for the Vegas DSL vs 218
   for Reno) only arise when the delay-family DSLs carry the handful of
   operators those CCAs actually use. *)
let vegas_ops =
  [ Component.Op_add; Component.Op_mul; Component.Op_div; Component.Op_ite;
    Component.Op_lt; Component.Op_gt ]

let delay_ops =
  [ Component.Op_add; Component.Op_mul; Component.Op_ite; Component.Op_lt;
    Component.Op_gt; Component.Op_modeq ]

let base_leaves =
  [ Component.Leaf_cwnd; Component.Leaf_const;
    Component.Leaf_signal Signal.Mss; Component.Leaf_signal Signal.Acked_bytes;
    Component.Leaf_signal Signal.Time_since_loss ]

(** The base Reno-DSL: black elements of Listing 1 plus the reno-inc
    macro. *)
let reno =
  {
    name = "reno";
    components =
      base_leaves @ [ Component.Leaf_macro Macro.Reno_inc ] @ base_ops;
    max_depth = 3;
    max_nodes = 7;
    constant_pool = default_constants;
    unit_check = true;
  }

(** Cubic-DSL: Reno plus cube/cube-root and wmax; unit checking disabled
    because integer-exponent units cannot type cube roots (§5.5). *)
let cubic =
  {
    name = "cubic";
    components =
      base_leaves
      @ [ Component.Leaf_signal Signal.Wmax;
          Component.Leaf_macro Macro.Reno_inc ]
      @ base_ops
      @ [ Component.Op_cube; Component.Op_cbrt ];
    max_depth = 4;
    max_nodes = 9;
    constant_pool = default_constants;
    unit_check = false;
  }

let delay_leaves =
  base_leaves
  @ [ Component.Leaf_signal Signal.Rtt; Component.Leaf_signal Signal.Min_rtt;
      Component.Leaf_signal Signal.Max_rtt;
      Component.Leaf_signal Signal.Ack_rate;
      Component.Leaf_signal Signal.Rtt_gradient ]

(** Rate/delay-DSL: olive-starred extensions of Listing 1 (RTT and rate
    signals) used by BBR-like and delay-based CCAs. *)
let delay =
  {
    name = "delay";
    components =
      delay_leaves
      @ [ Component.Leaf_macro Macro.Reno_inc;
          Component.Leaf_macro Macro.Htcp_diff;
          Component.Leaf_macro Macro.Rtts_since_loss ]
      @ delay_ops;
    max_depth = 4;
    max_nodes = 11;
    constant_pool = default_constants;
    unit_check = true;
  }

(** Vegas-DSL: the delay DSL plus the vegas-diff macro (bottleneck-queue
    estimator), freeing sketch nodes for other structure (§6.3). *)
let vegas =
  {
    name = "vegas";
    components =
      delay_leaves
      @ [ Component.Leaf_macro Macro.Reno_inc;
          Component.Leaf_macro Macro.Htcp_diff;
          Component.Leaf_macro Macro.Rtts_since_loss;
          Component.Leaf_macro Macro.Vegas_diff ]
      @ vegas_ops;
    max_depth = 4;
    (* 11 nodes: a Vegas-style conditional increase (CWND + ({vegas-diff <
       c} ? c * reno-inc : c)) takes 10 AST nodes. *)
    max_nodes = 11;
    constant_pool = default_constants;
    unit_check = true;
  }

(* Figure 6 variants: same vocabularies, explicit node budgets. *)
let delay_7 = { delay with name = "delay-7"; max_depth = 4; max_nodes = 7 }
let delay_11 = { delay with name = "delay-11"; max_depth = 4; max_nodes = 11 }

let vegas_11 =
  { vegas with name = "vegas-11"; max_depth = 5; max_nodes = 11 }

let all = [ reno; cubic; delay; vegas; delay_7; delay_11; vegas_11 ]
let find name = List.find_opt (fun d -> String.equal d.name name) all

let operators dsl = List.filter Component.is_operator dsl.components
