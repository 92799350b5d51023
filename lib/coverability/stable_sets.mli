(** Exact computation of the stable sets [SC_0], [SC_1] and
    [SC = SC_0 ∪ SC_1] of Definition 2.

    A configuration is [b]-stable iff it cannot reach a configuration
    populating a state of output [≠ b]; the non-[b]-stable
    configurations are therefore [pre*] of an upward-closed set,
    computed by {!Backward.pre_star}, and [SC_b] is its complement — a
    downward-closed set (Lemma 3.1) with an effective base (the exact
    version of Lemma 3.2's [β]-norm base). *)

type t = {
  protocol : Population.t;
  unstable0 : Upset.t;   (** configurations that are not 0-stable *)
  unstable1 : Upset.t;
  stable0 : Downset.t;   (** [SC_0] *)
  stable1 : Downset.t;   (** [SC_1] *)
}

val analyse : ?jobs:int -> Population.t -> t
(** [jobs] parallelises the two backward fixpoints (see
    {!Backward.pre_star}); the analysis is identical for any setting. *)

val analyse_memo : ?jobs:int -> Population.t -> t
(** {!analyse}, memoized in a bounded process-wide cache keyed by a
    structural fingerprint of the protocol (name excluded), so repeated
    sweeps — e.g. one {!val:analyse} per eta candidate — pay for the
    backward fixpoints once. Thread-safe. Publishes
    ["stable_sets.memo_hits"]/["stable_sets.memo_misses"]. *)

val memo_clear : unit -> unit
(** Empty the {!analyse_memo} cache (tests use this for isolation). *)

val stable : t -> bool -> Downset.t
val unstable : t -> bool -> Upset.t

val stable_union : t -> Downset.t
(** [SC]; its base is the union of the bases (as in Lemma 3.2). *)

val is_stable : t -> bool -> Mset.t -> bool
(** [is_stable a b c]: is [c] a [b]-stable configuration? *)

val pp_summary : Format.formatter -> t -> unit
(** Base sizes and norms of [SC_0] and [SC_1]. *)
