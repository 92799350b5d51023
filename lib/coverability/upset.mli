(** Upward-closed subsets of [N^d], represented by their finite set of
    minimal elements (an antichain, by Dickson's lemma). *)

type t

val empty : int -> t
val dim : t -> int

val of_elements : int -> Mset.t list -> t
(** Up-closure of the given configurations; dominated elements dropped. *)

val minimal_elements : t -> Mset.t list
(** The canonical antichain, sorted. *)

val mem : Mset.t -> t -> bool

val add : Mset.t -> t -> t option
(** [add m u] is [Some u'] with [u' = u ∪ up(m)] if [m] is not already
    in [u], and [None] if [m ∈ u] (no change). *)

val subset : t -> t -> bool
val equal : t -> t -> bool

val size : t -> int
(** Number of minimal elements. *)

val max_norm : t -> int
(** Largest coordinate over all minimal elements (0 when empty). *)

val complement : t -> Omega_vec.t list
(** The complement of the upset — a downward-closed set — as its finite
    list of maximal ω-vectors, sorted by [Stdlib.compare].

    Built by splitting: starting from the all-ω vector, each minimal
    element [m] in turn is cut out of the antichain of maximal vectors.
    A vector not above [m] stays; a vector [v] above [m] is replaced by
    its children [v[i := m(i) - 1]], one per coordinate [i] of [m]'s
    support, and a child is dropped when another child or a surviving
    vector dominates it. The work for one [m] is one pass over the
    antichain plus comparisons of each child with its siblings and with
    the survivors holding the child's value at the lowered coordinate:
    it grows with the number of vectors [m] splits, not with the
    antichain times [m]'s support. The complement itself can still have
    exponentially many maximal vectors in the number of minimal
    elements.

    Publishes ["upset.complement_children"] (children generated) and
    ["upset.complement_pruned"] (children dropped as dominated) once per
    call. *)
