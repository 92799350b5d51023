(** Arbitrary-precision signed integers, built on {!Bignat}.

    Used for displacement arithmetic whose intermediate values may be
    negative (e.g. aggregated transition displacements scaled by bignat
    coefficients). *)

type t

val zero : t

val of_int : int -> t
val of_bignat : Bignat.t -> t
val to_bignat_opt : t -> Bignat.t option
(** [Some] iff the value is non-negative. *)

val to_int_opt : t -> int option

val sign : t -> int
(** -1, 0 or 1. *)

val neg : t -> t
val abs : t -> Bignat.t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val compare : t -> t -> int
val equal : t -> t -> bool

val to_string : t -> string
