(** Small float helpers shared across the pipeline. *)

val approx_equal : ?eps:float -> float -> float -> bool
(** Combined absolute/relative tolerance (default 1e-9). *)

val clamp : lo:float -> hi:float -> float -> float

val div_eps : float
(** [1e-12]: a divisor [b] with [|b| < div_eps] makes {!safe_div} 0. The
    analyses and the compiled evaluator read this one threshold. *)

val safe_div : float -> float -> float
(** Division by (near-)zero yields 0 — a degenerate candidate handler
    must score badly, not poison a replay with infinities. *)

val cbrt : float -> float
(** Real cube root, defined for negative inputs. *)

val log_grid : lo:float -> hi:float -> n:int -> float array
(** [n] log-spaced points in [[lo, hi]] (Figure 3's error sweep). *)

val fmod : float -> float -> float
(** Positive floating-point modulo; result in [[0, |b|)); 0 when [b = 0]. *)
