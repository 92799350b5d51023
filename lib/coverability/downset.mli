(** Downward-closed subsets of [N^d], represented by their finite set of
    maximal ω-vectors — equivalently, by a {e base} of basis elements
    [(B, S)] in the sense of Section 3 of the paper. *)

type t

val of_max_elements : int -> Omega_vec.t list -> t
(** Down-closure of the given ω-vectors; dominated vectors dropped. *)

val keep_maximal : Omega_vec.t list -> Omega_vec.t list
(** The vectors below no other vector of the list, without duplicates,
    sorted by [Stdlib.compare]: the canonical form of the maximal
    elements kept by {!of_max_elements}. *)

val max_elements : t -> Omega_vec.t list
val mem : Mset.t -> t -> bool

val basis : t -> (Mset.t * int list) list
(** The base as [(B, S)] pairs: the set denoted is
    [∪ (B + N^S)] (Section 3). *)

val size : t -> int
(** Number of basis elements. *)

val norm : t -> int
(** The norm of the base: the largest finite coordinate of any basis
    element (compare with the paper's bound [β], Lemma 3.2). *)

val union : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool

val pp : ?names:string array -> Format.formatter -> t -> unit
