(** Hilbert bases of homogeneous linear Diophantine systems by the
    Contejean–Devie completion procedure.

    The basis of [A·y = 0] is the set of pointwise-minimal non-zero
    solutions; the basis of [A·y >= 0] is obtained by adding one slack
    variable per constraint ([A·y - s = 0]) and projecting — the
    projections are exactly the indecomposable solutions of the
    inequality system. Corollary 5.7 of the paper instantiates this for
    the potentially-realisable transition multisets of a protocol. *)

type Obs.Budget.partial += Partial_basis of int array list
(** The minimized basis elements harvested before a candidate budget
    ran out — a sound under-approximation of the full basis, carried by
    {!Obs.Budget.Exceeded}. *)

val solve_eq :
  ?jobs:int -> ?max_candidates:int -> ?scalar_criterion:bool -> Diophantine.t ->
  int array list
(** Minimal non-zero solutions of [A·y = 0]. Breadth-first completion
    from the unit vectors; each frontier vector is extended by [e_j]
    only when column [j] of [A] has negative scalar product with the
    current defect [A·y] (the Contejean–Devie criterion, which is both
    complete and terminating). Passing [~scalar_criterion:false]
    disables the criterion — the search stays complete but may diverge
    (the benchmark harness uses this as an ablation; rely on
    [max_candidates]).

    The completion is breadth-first by norm, so no harvested basis
    element lies below a frontier vector [y] (each was tested against
    every element of smaller norm when admitted, and one of equal norm
    would equal it). A basis element [b] can then dominate the
    extension [y + e_j] only if [b(j) = y(j) + 1]: the harvested basis
    is indexed by (coordinate, value), and each extension is tested
    against that one bucket, support mask first. The invariant does
    not use the scalar criterion, so it also holds with
    [~scalar_criterion:false]. A level's duplicates are found in a
    table hashed on every coordinate.

    [jobs] (default 1) domains compute each completion round's
    extensions — criterion, domination test, defect update — in chunks
    of 16 frontier vectors over a {!Pool.run_rounds} pool; admission
    (duplicate detection, budget accounting) is reduced sequentially in
    the sequential path's own order, so the returned basis, all
    published counters and the budget trip point are byte-identical
    for any [jobs].
    @raise Obs.Budget.Exceeded if the completion exceeds
    [max_candidates] (default 5_000_000) candidate vectors — a safety
    valve only. The exception carries {!Partial_basis} and the
    candidates/levels/basis counts consumed — the same payload for any
    [jobs], raised after every domain is joined. (The round in which
    the budget trips is still expanded in full before the sequential
    reduction detects the overrun, so a diverging search may briefly
    materialise one level past the budget.) *)

val solve_geq :
  ?jobs:int -> ?max_candidates:int -> ?scalar_criterion:bool -> Diophantine.t ->
  int array list
(** Hilbert basis (indecomposable solutions) of [A·y >= 0]. *)

val decompose_eq :
  Diophantine.t -> basis:int array list -> int array -> int array list option
(** [decompose_eq sys ~basis y] writes the solution [y] as a multiset of
    basis elements (returned with multiplicity); [None] if [y] is not a
    solution or the basis is not generating. Greedy subtraction — any
    basis element pointwise below a solution of an equality system can
    be subtracted, so greediness is complete. A test oracle for the
    generating property; no engine calls it. *)

val decompose_geq :
  Diophantine.t -> basis:int array list -> int array -> int array list option
(** Same for inequality systems, via the slack-variable lift. *)

val verify_minimal : Diophantine.t -> eq:bool -> int array list -> bool
(** All elements are non-zero solutions and pairwise incomparable. A
    test oracle: no engine calls it; the tests check every computed
    basis with it. *)
