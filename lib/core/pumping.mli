(** The Section 4 pumping argument, run on concrete protocols.

    Lemma 4.2 constructs stable configurations [C_2, C_3, …] with
    [IC(i) →* C_i] and [C_i + j·x →* C_{i+j}]; Dickson's lemma then
    yields [k < l] with [C_k <= C_l] lying in one basis element [(B,S)]
    of [SC], and Lemma 4.1 concludes [eta <= k] for any threshold
    [x >= eta] the protocol computes. This module builds the sequence
    (using exact reachability for the "run to a stable configuration"
    steps), finds the Dickson witness, and re-checks every side
    condition. Works for protocols with or without leaders. *)

type witness = private {
  protocol : Population.t;
  a : int;               (** the certified bound: [eta <= a] *)
  b : int;               (** the pumping period *)
  c_a : Mset.t;          (** stable configuration with [IC(a) →* c_a] *)
  c_ab : Mset.t;         (** stable, [c_a + b·x →* c_ab], [c_a <= c_ab] *)
  omega : Omega_vec.t;   (** maximal ω-vector of [SC] witnessing the
                             shared basis element: [c_ab ∈ down(omega)]
                             and [supp(c_ab - c_a) ⊆ ω-coordinates] *)
}

val sequence :
  Population.t -> Stable_sets.t -> first:int -> count:int -> (int * Mset.t) list
(** [(i, C_i)] pairs of the Lemma 4.2 construction, for [count] inputs
    starting at [first]: each [C_{i+1}] is the first stable
    configuration found (breadth-first) from [C_i + x].
    @raise Failure if some exploration finds no stable configuration
    (the protocol then computes nothing). *)

val find_witness : Population.t -> max_input:int -> (witness, string) result
(** Builds the sequence from input 2 up to [max_input] and returns the
    first Dickson witness compatible with a basis element of [SC]. *)

val check : witness -> bool
(** Re-validates: stability of both configurations, reachability
    [IC(a) →* c_a] and [c_a + b·x →* c_ab], the ordering, and the
    basis-element side conditions. *)

val pp : Format.formatter -> witness -> unit
