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

val decide_config : ?max_configs:int -> Population.t -> Mset.t -> verdict
(** Verdict for a concrete initial configuration.
    {!Configgraph.Packed.applicable} alone picks the representation:
    when the instance fits, the graph is explored on immediate ints —
    same graph, same verdict, several times faster — and otherwise on
    multisets. On packed graphs a component is judged by the union of
    its members' supports, the rule {!verdict_of_unions} states; on
    multisets by each member's {!Population.output_of_config}. The
    tests compare both against a multiset reference.

    Bottom SCCs are judged on the fly as Tarjan pops them
    ({!Configgraph.explore_sccs}), and the exploration stops at the
    first consensus-free one. The verdict is canonical —
    [No_consensus] if {e any} reachable bottom SCC lacks consensus, else
    [Conflicting] if uniform bottom SCCs disagree, else [Decides b] — so
    it does not depend on the order the components are popped; only the
    [fair.sccs]/[fair.bottom_sccs] counters reflect how much of the
    graph the early stop skipped.
    @raise Configgraph.Too_many_configs if the graph exceeds the budget. *)

(** {2 Support summaries}

    A configuration's consensus output depends only on its support (the
    set of populated states), so a configuration graph can be judged
    under {e every} output map at once from two small sets of support
    bitmasks (bit [s] set iff state [s] is populated). The busy-beaver
    census explores each transition assignment's graphs once this way
    and reads the verdict of each of its output maps from them. *)

type summary = {
  bottoms : int list;
      (** the distinct support unions of the bottom SCCs, ascending *)
  reached : int list;
      (** the distinct supports of all reachable configurations,
          ascending *)
}

val summarise : ?max_configs:int -> Population.t -> Mset.t -> summary
(** [summarise p c0] explores the graph reachable from [c0] once
    (breadth-first, packed when {!Configgraph.Packed.applicable}) and
    keeps only its summary; the protocol's own output map plays no
    part. It counts one [fair.decisions] for the graph, like
    {!decide_config}, and all of its SCCs in [fair.sccs].
    @raise Configgraph.Too_many_configs if the graph exceeds the budget.
    @raise Invalid_argument when a multiset graph has more states than
    an int has bits. *)

val output_mask : Population.t -> int
(** The bitmask of the protocol's output-1 states. *)

val verdict_of_unions : output:int -> int list -> verdict
(** The verdict of bottom SCCs with these support unions when state [s]
    outputs 1 iff bit [s] of [output] is set. A component with union
    [u] is a 1-consensus iff [u ⊆ output], a 0-consensus iff
    [u ∩ output = ∅], and has no consensus otherwise; the verdict is
    canonical as in {!decide_config}. So
    [verdict_of_unions ~output (summarise p c0).bottoms] equals
    [decide_config p' c0] for [p'] = [p] with that output map.
    @raise Assert_failure on an empty list (a graph always has a
    bottom SCC). *)

val decide : ?max_configs:int -> Population.t -> int array -> verdict
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
