(** Multisets over a fixed finite domain: elements of [N^d].

    A configuration of a population protocol (Section 2.2) is a multiset
    over its states; this module provides the multiset algebra the paper
    uses — size, support, pointwise order, and monotone arithmetic — on
    top of {!Intvec}'s representation.

    Values are [int array]s with non-negative coordinates, treated as
    immutable. Constructors enforce non-negativity. *)

type t = private int array

val of_array : int array -> t
(** Validates non-negativity (the array is copied).
    @raise Invalid_argument on a negative coordinate. *)

val to_intvec : t -> Intvec.t
val zero : int -> t
val singleton : int -> int -> t
(** [singleton d i] has one element on coordinate [i]. *)

val of_list : int -> (int * int) list -> t
(** [of_list d assoc] sums [count] elements on each [(index, count)] pair. *)

val dim : t -> int
val get : t -> int -> int
val size : t -> int
(** Total number of elements, [|C|] in the paper. *)

val count_on : t -> int list -> int
(** [count_on c s] is [C(S) = sum_{q in S} C(q)]. *)

val support : t -> int list
val is_zero : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int
(** Lexicographic; a total order for containers. *)

val leq : t -> t -> bool
(** Pointwise order. *)

val add : t -> t -> t

val sub_opt : t -> t -> t option
val scale : int -> t -> t
val pointwise_min : t -> t -> t
val pointwise_max : t -> t -> t

val add_delta : t -> Intvec.t -> t option
(** [add_delta c delta] is [Some (c + delta)] when non-negative — firing a
    displacement. *)

val hash : t -> int
val pp : ?names:string array -> Format.formatter -> t -> unit

(** {1 Packed configurations}

    A multiset whose dimension is at most {!max_packed_dim} and whose
    coordinates are all at most {!max_packed_count} fits in one
    immediate [int]: coordinate [i] occupies bits [8i..8i+7], so the
    packed value is the base-256 number whose digits are the counts.
    Because machine addition is exact, adding the (possibly negative)
    integer [sum_i delta_i * 256^i] to a packed value yields the packed
    form of the displaced multiset whenever every resulting coordinate
    stays within [0..255] — which interaction firing guarantees after an
    enabledness check, since the population size is conserved. This is
    the representation behind the allocation-free configuration-graph
    fast path. *)

val max_packed_dim : int
(** 7: the largest dimension a 63-bit [int] accommodates at 8 bits per
    coordinate. *)

val max_packed_count : int
(** 255: the largest per-coordinate count (hence the largest population
    size that is safe under displacement arithmetic). *)

val packable : t -> bool
(** Can this multiset be represented as a packed [int]? *)

val pack : t -> int
(** @raise Invalid_argument when not {!packable}. *)

val unpack : dim:int -> int -> t
(** Inverse of {!pack} for values built from a multiset of dimension
    [dim]. *)

val pack_delta : Intvec.t -> int
(** The signed integer whose base-256 digits are the displacement's
    coordinates; adding it to a packed value fires the displacement
    (see above for the safety condition). *)
