(** The exact event kernel behind {!Simulator} and {!Gillespie}.

    Both backends run the same chain: two distinct agents meet, and one
    of the transitions on their unordered state pair fires, uniformly
    among them. Most meetings leave the configuration unchanged — the
    pair has no transition, or the one drawn is an identity. The kernel
    jumps from one productive (non-identity) firing straight to the
    next:

    - it keeps an integer weight per productive transition and, after a
      firing, recomputes only the weights of the transitions that read
      one of the (at most 4) states whose count changed;
    - one [Splitmix64.int_below W] draw over the total weight [W] picks
      the transition that fires;
    - the clock advances by the time until that firing: a geometric
      number of interactions on the {!Steps} clock, an exponential time
      on the {!Continuous} clock.

    Identity transitions weigh exactly as much as absent ones, zero: a
    protocol and its identity-free copy draw the same random numbers
    and follow the same trajectory. *)

type clock =
  | Steps of { max_steps : int; quiet_steps : int }
      (** The uniform scheduler's interaction count. A transition's
          weight is its pair count times [L/k], where [k] is the number
          of transitions (identities included) on its pre-pair and [L]
          the lcm of those [k]; with [n] agents an interaction is
          productive with probability [W / (L·n(n-1)/2)]. The run stops
          after [max_steps] interactions, or once the consensus status
          has been decided and unchanged for [quiet_steps] of them. *)
  | Continuous of { max_steps : int; quiet_time : float; scale : float }
      (** Mass-action time: a transition's weight is its plain pair
          count and the total rate is [W·scale]. The run stops after
          [max_steps] productive firings, at the first firing time at
          least [quiet_time] after a decided status last changed, or as
          soon as no productive transition is enabled (inert). *)

type outcome = {
  time : float;          (** clock reading at the stop: interactions
                             executed (an integer) or continuous time *)
  fired : int;           (** productive firings *)
  last_change : float;   (** clock reading of the last consensus-status change *)
  output : bool option;  (** consensus output of the final configuration *)
  final : Mset.t;
  converged : bool;      (** stopped by the quiet window, or inert *)
  inert : bool;          (** {!Continuous} only: no productive transition enabled *)
  updates : int;         (** per-transition weight recomputations *)
}

val run : clock -> rng:Splitmix64.t -> Population.t -> Mset.t -> outcome
(** [run clock ~rng p c0] simulates [p] from [c0]. Below two agents no
    transition is ever enabled. *)

(** {2 Weight bookkeeping}

    The kernel's state between firings, exposed so tests can replay
    arbitrary traces against a from-scratch recomputation. *)

type state

val state : clock -> Population.t -> Mset.t -> state
(** The weights of [p] in a configuration; only the kind of clock
    matters, not its stopping rules. *)

val total : state -> int
(** [W], the sum of the productive transitions' weights. *)

val config : state -> Mset.t

val fire : state -> int -> unit
(** [fire s r] fires the transition that the draw [r] (with
    [0 <= r < total s]) selects, and updates the weights it touches. *)
