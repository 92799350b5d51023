(** SplitMix64 pseudo-random number generator.

    A small, fast, deterministic PRNG so that simulations and randomised
    test-case generators are reproducible from an explicit seed,
    independent of the OCaml standard library's generator. *)

type t

val create : int -> t
(** [create seed] initialises a generator from a machine-integer seed. *)

val copy : t -> t

val next : t -> int64
(** The next raw 64-bit output. *)

val int_below : t -> int -> int
(** [int_below g n] draws uniformly from [0 .. n-1], for [n >= 1],
    without modulo bias. *)

val float_unit : t -> float
(** Uniform in [0, 1). *)

val split : t -> t
(** A generator with an independent stream. *)

val nth_split : seed:int -> int -> t
(** [nth_split ~seed i] is the generator the [(i+1)]-th {!split} of
    [create seed] returns, computed in O(1). *)
