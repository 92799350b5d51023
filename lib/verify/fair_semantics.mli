(** The exact semantics of "computing by stable consensus".

    A protocol computes output [b] on input [v] iff every fair
    execution from [IC(v)] stabilises to consensus [b]; on the finite
    reachability graph this holds iff every bottom SCC reachable from
    [IC(v)] consists solely of configurations with consensus output
    [b]. This module decides that, and checks protocols against their
    specification predicate. *)

type verdict =
  | Decides of bool         (** all reachable bottom SCCs agree on this output *)
  | No_consensus            (** some reachable bottom SCC is not a uniform consensus *)
  | Conflicting             (** uniform bottom SCCs with different outputs *)

val decide_config :
  ?max_configs:int -> ?deadline:Obs.Budget.deadline ->
  ?incremental:bool -> Population.t -> Mset.t -> verdict
(** Verdict for a concrete initial configuration.
    {!Configgraph.Packed.applicable} alone picks the representation:
    when the instance fits, the graph is explored on immediate ints —
    same graph, same verdict, several times faster — and otherwise on
    multisets. The tests compare both against a multiset reference.

    [incremental] (default [true]) judges bottom SCCs on the fly as
    Tarjan pops them ({!Configgraph.explore_sccs}) and stops at the
    first consensus-free one; [~incremental:false] materialises the full
    graph first (the eager reference path). The verdict is canonical —
    [No_consensus] if {e any} reachable bottom SCC lacks consensus, else
    [Conflicting] if uniform bottom SCCs disagree, else [Decides b] — so
    the two paths always return the same verdict; only the
    [fair.sccs]/[fair.bottom_sccs] counters reflect how much of the
    graph the lazy path skipped.
    @raise Configgraph.Too_many_configs if the graph exceeds the budget.
    @raise Obs.Budget.Exceeded if [deadline] expires mid-exploration. *)

val decide :
  ?max_configs:int -> ?deadline:Obs.Budget.deadline ->
  ?incremental:bool -> Population.t -> int array -> verdict
(** Verdict for input [v] (starting from [IC(v)]). *)

type check_result =
  | Ok_all of int                       (** number of inputs checked *)
  | Mismatch of int array * verdict * bool  (** input, verdict, expected *)

val check_predicate :
  ?max_configs:int -> Population.t -> Predicate.t ->
  inputs:int array list -> check_result
(** Checks [decide p v = Decides (spec v)] on every listed input. *)

val valid_inputs_single : Population.t -> max:int -> int list
(** For single-variable protocols: inputs [i] in [0..max] for which
    [IC(i)] is a configuration (at least two agents). *)

val pp_verdict : Format.formatter -> verdict -> unit
