(** Potentially realisable transition multisets (Definition 4) and their
    Pottier basis (Corollary 5.7).

    For a leaderless single-input protocol, a multiset [π ∈ N^T] is
    potentially realisable iff [Δ_π(q) >= 0] for every state [q] other
    than the input state — a homogeneous system of [|Q| - 1] Diophantine
    inequalities over [|T|] variables, whose Hilbert basis this module
    computes and checks against the Pottier constant
    [ξ = 2(2|T|+1)^|Q|]. *)

val input_state : Population.t -> int
(** @raise Invalid_argument unless the protocol has one input variable. *)

val system : Population.t -> Diophantine.t
(** The system of Section 5.4. Requires a leaderless protocol. *)

val is_potentially_realisable : Population.t -> int array -> bool

val basis : ?jobs:int -> ?max_candidates:int -> Population.t -> int array list
(** Hilbert basis of {!system} (Corollary 5.7's basis). [jobs]
    parallelises the completion (see {!Hilbert_basis.solve_eq}); the
    basis is identical for any setting. *)

val size : int array -> int
(** [|π|], the total number of transition occurrences. *)

val min_input : Population.t -> int array -> int
(** The least [i] with [IC(i) ⟹π C] for some configuration [C >= 0]:
    [max 0 (-Δ_π(x))]. *)

val result_config : Population.t -> int array -> int * Mset.t
(** [(i, C)] with [i] minimal such that [IC(i) ⟹π C]; then [C(x) = 0]
    whenever [Δ_π(x) <= 0] (the normalisation used by Corollary 5.7). *)

val decompose : Population.t -> int array -> int array list option
(** Corollary 5.7's generation property: write a potentially realisable
    multiset as a sum of Pottier-basis elements (with multiplicity);
    [None] if the argument is not potentially realisable. Computes the
    basis internally — cache it via {!basis} +
    {!Hilbert_basis.decompose_geq} in hot paths. A test oracle for
    Corollary 5.7; no engine calls it. *)

val check_corollary_5_7 : Population.t -> int array list -> bool
(** Every basis element [π] satisfies [|π| <= ξ/2], its minimal input
    is at most [ξ], and its result configuration has size at most [ξ]. *)
