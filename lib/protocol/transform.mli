(** Structural transformations of protocols. *)

val complement : Population.t -> Population.t
(** Flip every output bit: computes the negation of the original
    predicate (stable consensus for [b] becomes stable consensus for
    [not b]). *)

val coverable_states : Population.t -> bool array
(** [coverable_states p].(q) iff some configuration reachable from an
    initial configuration populates [q]: the closure of the input and
    leader states under "some transition with both pre-states inside
    puts its post-states inside". For a leaderless protocol these are
    the states coverable from large inputs, and Lemma 5.4
    ({!Saturation.find}) applies iff every state is one. *)

val restrict_to_coverable : Population.t -> Population.t
(** Drop states no configuration reachable from an initial
    configuration ever populates (closure of the input states and
    leaders under transitions), together with the transitions that
    mention them. The result is equivalent to the input protocol and
    its state count is the honest one for state-complexity purposes. *)

val relabel : Population.t -> (int -> string) -> Population.t
(** Rename states (indices are preserved).
    @raise Invalid_argument if two states receive the same name. *)
