(** A compiler from {!Predicate} formulas to population protocols.

    Supported fragment (see DESIGN.md for the rationale):
    - [Const b];
    - [Threshold (a, c)] with all coefficients of one sign (rewritten
      through negation when non-positive);
    - the strict-majority pattern [x_i - x_j >= 1];
    - [Modulo (a, r, m)] with arbitrary coefficients;
    - [Not], [And], [Or] of supported formulas (negation by output
      complement, conjunction/disjunction by synchronous product).

    Mixed-sign thresholds other than majority are rejected: the
    value-merging construction used here relies on values never
    decreasing, which fails with cancellation (the classical
    general-threshold protocol needs a different, more delicate
    machine). *)

val compile : Predicate.t -> (Population.t, string) result
(** The protocol's input variables are [x0 .. x(arity-1)] (predicates
    of arity 0 get a single dummy variable). Every returned protocol is
    leaderless and complete. *)

val states_needed : Predicate.t -> int option
(** Number of states {!compile} would produce, without building the
    protocol; [None] if unsupported. *)
