(** Arbitrary-precision natural numbers.

    The sealed build environment provides no [zarith]; this module implements
    the natural-number arithmetic needed to evaluate the paper's constants
    ([3^n], [(2n+2)!], the Pottier constant [xi], …) and to print them.

    Numbers are immutable. All operations are total unless documented
    otherwise; subtraction is truncated at zero by [sub_clamped] and partial
    in [sub]. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] converts a non-negative machine integer.
    @raise Invalid_argument if [n < 0]. *)

val to_int_opt : t -> int option
(** [to_int_opt x] is [Some n] iff [x] fits in a non-negative [int]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool

val add : t -> t -> t
val succ : t -> t

val sub : t -> t -> t
(** [sub a b] is [a - b].
    @raise Invalid_argument if [b > a]. *)

val sub_clamped : t -> t -> t
(** [sub_clamped a b] is [max 0 (a - b)]. *)

val mul : t -> t -> t
(** Schoolbook multiplication with Karatsuba above an internal threshold. *)

val mul_schoolbook : t -> t -> t
(** Plain quadratic multiplication, exposed for the benchmark harness's
    Karatsuba ablation. Results agree with {!mul}. *)

val mul_int : t -> int -> t
(** [mul_int a k] with [k >= 0]. *)

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < b].
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val divmod_int : t -> int -> t * int
(** [divmod_int a k] for [1 <= k < 2^30]. *)

val pow : t -> int -> t
(** [pow b e] is [b] raised to the non-negative machine integer [e]. *)

val pow2 : int -> t
(** [pow2 k] is [2^k] for [k >= 0]. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val bits : t -> int
(** [bits x] is the position of the highest set bit plus one; [bits zero = 0].
    Hence [x < 2^(bits x)] and, for [x > 0], [2^(bits x - 1) <= x]. *)

val log2_floor : t -> int
(** [log2_floor x] for [x > 0].  @raise Invalid_argument on zero. *)

val factorial : int -> t
(** [factorial n] is [n!] for [n >= 0]. *)

val gcd : t -> t -> t

val of_string : string -> t
(** Parses a decimal numeral (optional [_] separators allowed).
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal representation. Intended for values up to a few hundred thousand
    bits; see {!Magnitude} for anything larger. *)

val pp : Format.formatter -> t -> unit
