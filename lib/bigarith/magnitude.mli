(** Magnitudes: numbers too large to materialise, as iterated exponentials.

    The paper's constants — e.g. the small-basis constant
    [beta = 2^(2(2n+1)!+1)] (Definition 3) or the Theorem 5.9 bound
    [2^((2n+2)!)] — do not fit in memory even as bignats for moderate [n].
    A magnitude is either a concrete {!Bignat.t} or [2^m] for a magnitude
    [m], i.e. a tower of twos over a bignat.

    Comparison between magnitudes is exact (towers of twos are
    well-ordered by their exponents, and concrete-vs-tower comparisons
    reduce to bit lengths). [mul_upper]/[add_upper] are the only
    approximate operations and always round {e up}. *)

type t

val of_bignat : Bignat.t -> t
val of_int : int -> t

val exp2 : t -> t
(** [exp2 m] is the magnitude [2^m].  Small results are collapsed back to
    concrete bignats, so comparisons stay exact. *)

val exp2_bignat : Bignat.t -> t
(** [exp2_bignat e] is [2^e] with a concrete bignat exponent. *)

val to_bignat_opt : t -> Bignat.t option
(** The concrete value if the magnitude is (or collapses to) a bignat. *)

val compare : t -> t -> int
(** Exact comparison. *)

val mul_upper : t -> t -> t
(** An upper bound on the product: exact on two concrete values, and
    within a factor [2] per concrete operand otherwise. *)

val tower_height : t -> int
(** Number of [exp2] constructors after normalisation. *)

val to_string : t -> string
(** Decimal for small values, ["2^(...)"] towers otherwise. *)
