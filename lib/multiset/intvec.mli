(** Dense integer vectors over a fixed finite domain, i.e. elements of
    [Z^d] where coordinates are indexed by [0 .. d-1].

    The representation is an [int array] treated as immutable: every
    operation allocates a fresh array; callers must not mutate results.
    Displacement vectors of protocol transitions (Section 5.1 of the
    paper) live here. *)

type t = int array

val zero : int -> t
val init : int -> (int -> int) -> t
val dim : t -> int
val get : t -> int -> int
val set : t -> int -> int -> t
(** Functional update. *)

val equal : t -> t -> bool

val compare_lex : t -> t -> int
(** Lexicographic total order (for use in [Map]/[Set]). *)

val leq : t -> t -> bool
(** Pointwise order [u <= v], the order of Dickson's lemma. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : int -> t -> t

val pointwise_min : t -> t -> t
val pointwise_max : t -> t -> t

val sum_coords : t -> int
val norm1 : t -> int
val norm_inf : t -> int

val support : t -> int list
(** Indices of the non-zero coordinates, ascending. *)

val is_nonnegative : t -> bool

val hash : t -> int

val pp : ?names:string array -> Format.formatter -> t -> unit
(** Prints e.g. [(2·a, 1·c)]; coordinates equal to zero are omitted. *)
