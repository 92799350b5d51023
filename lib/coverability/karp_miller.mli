(** The Karp–Miller coverability tree: a forward computation of the
    {e clover} — the downward closure of the set of configurations
    reachable from a given initial configuration, represented by its
    maximal ω-vectors.

    Complements {!Backward}: backward coverability answers one query
    [from →* up(target)] exactly; the clover answers {e all} coverability
    queries from a fixed source at once ([target] coverable iff
    [target ∈ clover]), at the price of ω-acceleration
    (self-covering loops pump coordinates to ω, which is sound for
    coverability by the monotonicity property of Section 2.2). *)

type Obs.Budget.partial += Partial_clover of Omega_vec.t list
(** The maximal ω-vectors discovered before a node budget ran out — an
    under-approximation of the clover, carried by
    {!Obs.Budget.Exceeded}. *)

val clover : ?max_nodes:int -> Population.t -> Mset.t -> Omega_vec.t list
(** [clover p c0]: the maximal ω-vectors of the coverability set of
    [c0]. @raise Obs.Budget.Exceeded if the tree exceeds [max_nodes]
    (default 1_000_000) nodes; the exception carries {!Partial_clover}
    and the node/acceleration counts consumed. *)

val coverable : Population.t -> from:Mset.t -> target:Mset.t -> bool
(** Same answer as {!Backward.coverable}, computed forward. A test
    oracle: the tests check the two against each other. *)

val downset : Population.t -> Mset.t -> Downset.t
(** The coverability set as a {!Downset.t}, under {!clover}'s default
    node budget. *)

val clover_parametric : ?max_nodes:int -> Population.t -> Omega_vec.t list
(** The coverability set over {e all} initial configurations at once:
    the tree is rooted at the ω-vector with [ω] on every input state
    (and the leader counts elsewhere), so the result is the downward
    closure of [∪_v Reach(IC(v))]. On a fixed input the population is
    conserved and no acceleration can fire; here accelerations do the
    work. A state is coverable from some input iff some clover vector
    is positive on it (compare {!Transform.coverable_states}). Budget
    as {!clover}, reported as ["karp_miller.clover_parametric"]. *)
