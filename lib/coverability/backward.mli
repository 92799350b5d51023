(** Backward coverability: the classic WSTS fixpoint computing
    [pre*(U)] of an upward-closed set [U] of configurations.

    For a transition [t = p,q ↦ p',q'] and a minimal element [m] of
    [U], the least configuration that enables [t] and reaches [up(m)]
    in one [t]-step is [max(p + q, m - Δ_t)] (pointwise, clamped at 0);
    iterating to fixpoint terminates by Dickson's lemma.

    The fixpoint is generation-synchronous: each round expands the
    whole current frontier, with the per-candidate predecessor
    computation and the membership pre-filter against the
    generation-start upset fanned out over a {!Pool.run_rounds} domain
    pool, and the basis updates reduced sequentially in index order.
    The resulting basis {e and} every published counter are
    byte-identical for any [jobs] setting (the test suite checks this
    differentially).

    This is the effective counterpart of the Rackoff-based argument of
    Lemma 3.2: instead of bounding the norm of stable-set bases by
    [β = 2^(2(2n+1)!+1)], it computes the bases exactly. *)

type stats = {
  iterations : int;     (** candidate elements examined *)
  added : int;          (** minimal elements ever inserted *)
}

val pre_star : ?jobs:int -> Population.t -> Upset.t -> Upset.t
(** [pre_star p u] is the set of configurations from which [u] is
    reachable (including [u] itself). [jobs] (default 1) domains expand
    each frontier generation in chunks of 4 frontier elements; the
    result does not depend on [jobs]. *)

val pre_star_stats : ?jobs:int -> Population.t -> Upset.t -> Upset.t * stats

val coverable : Population.t -> from:Mset.t -> target:Mset.t -> bool
(** [coverable p ~from ~target]: can [from] reach some [C >= target]?
    A test oracle: no engine calls it; the tests compare it with
    explicit search and with {!Karp_miller.coverable}. *)
