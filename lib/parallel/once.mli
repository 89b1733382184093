(** A value built on first use and kept for the process, safe to request
    from several domains at once.

    OCaml 5's [lazy] is not: a domain that forces a lazy another domain
    is still forcing gets [CamlinternalLazy.Undefined]. Here the first
    caller builds under a mutex and later callers, concurrent ones
    included, wait for it and share its value. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** [make build] builds nothing yet. *)

val get : 'a t -> 'a
(** [get t] is the value of [t]'s [build ()], run by the first call. If
    [build] raises, the exception reaches that caller and the next
    [get] runs [build] again. [build] must not [get] its own [t]. *)
