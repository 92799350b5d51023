(** Explicit-state exploration of the configuration space.

    For a fixed input, the set of configurations reachable from [IC(v)]
    is finite (interactions preserve the number of agents), so the
    reachability graph can be built exhaustively. This graph is the
    ground truth for the semantics of Section 2.2: reachability
    ([C →* C']), fair-execution outcomes, and stability are all decided
    on it.

    The module has one exploration state per representation — multisets
    here, immediate ints in {!Packed} — and two traversals that run on
    either: breadth-first ({!explore}, {!Packed.explore}), and lazy
    Tarjan ({!explore_sccs}, {!Packed.explore_sccs}). Both states intern
    successors in transition order, so for a given traversal the two
    representations number the nodes identically and build the same
    graph index for index. *)

type t = private {
  protocol : Population.t;
  configs : Mset.t array;     (** node index -> configuration *)
  succ : int array array;     (** distinct successor node indices *)
  root : int;                  (** index of the initial configuration *)
  lookup : Mset.t -> int option;
      (** the exploration's interning table, retained so membership
          queries stay O(1) — use {!find} *)
}

exception Too_many_configs of int
(** Raised by every explorer when the exploration exceeds its node
    budget; the [configgraph.*] counters still record the nodes and
    edges explored up to the abort. *)

val explore : ?max_configs:int -> Population.t -> Mset.t -> t
(** [explore p c0] builds the graph of configurations reachable from
    [c0]. Default budget: 2_000_000 nodes.
    @raise Too_many_configs if the node budget is exceeded. *)

val explore_sccs :
  ?max_configs:int -> Population.t -> Mset.t ->
  on_bottom:(Mset.t list -> [ `Continue | `Stop ]) -> int
(** Incremental exploration with on-the-fly (Tarjan) SCC detection:
    nodes are discovered by DFS and a strongly connected component is
    complete — and, if no edge leaves it, reported to [on_bottom] with
    its member configurations — as soon as it pops, while the rest of
    the graph is still unexplored. [on_bottom] returning [`Stop]
    abandons the exploration immediately; this is how
    {!Fair_semantics.decide} stops at the first decisive bottom SCC
    instead of materialising the whole graph. Returns the number of
    SCCs detected before finishing (or stopping). Same budget as
    {!explore}; node numbering is DFS discovery order, not
    {!explore}'s BFS order. *)

val num_configs : t -> int

val find : t -> Mset.t -> int option
(** Index of a configuration in the graph, if reachable. O(1): answered
    from the exploration's own hash index, not by scanning. *)

val can_reach : t -> src:int -> (Mset.t -> bool) -> bool
(** Does some configuration satisfying the predicate lie in the forward
    closure of [src]? The explicit search the tests' coverability and
    Section 4.1 oracles are built on; no engine calls it. *)

val can_reach_config : t -> src:int -> Mset.t -> bool
(** [can_reach_config g ~src c]: is the {e known} target configuration
    [c] in the forward closure of [src]? One O(1) index probe plus a
    graph traversal — no per-node predicate scan. *)

(** Packed fast path: when the protocol has at most
    [Mset.max_packed_dim] states and the population at most
    [Mset.max_packed_count] agents (always true in the busy-beaver scan
    regime), configurations are interned as immediate ints — no
    per-successor multiset allocation, int-keyed hashing. The node
    numbering is identical to the multiset explorers' under both
    traversals: [Packed.config g i = (explore p c0).configs.(i)]
    index-for-index, and {!Packed.explore_sccs} reports the same bottom
    components as {!explore_sccs}, in the same order. {!Fair_semantics}
    uses this path exactly when {!Packed.applicable} holds; the multiset
    explorers are the reference it is tested against. *)
module Packed : sig
  type graph = private {
    protocol : Population.t;
    configs : int array;      (** node index -> packed configuration *)
    succ : int array array;
    root : int;
    lookup : int -> int option;
        (** the exploration's open-addressing intern table — use
            {!find} *)
  }

  val applicable : Population.t -> Mset.t -> bool

  val explore : ?max_configs:int -> Population.t -> Mset.t -> graph
  (** @raise Too_many_configs as {!val:explore}.
      @raise Invalid_argument when not {!applicable}. *)

  val explore_sccs :
    ?max_configs:int -> Population.t -> Mset.t ->
    on_bottom:(int list -> [ `Continue | `Stop ]) -> int
  (** As {!val:explore_sccs}, on packed configurations — [on_bottom]
      receives the bottom component's members as packed ints. *)

  val num_configs : graph -> int
  val find : graph -> int -> int option
  val config : graph -> int -> Mset.t
  (** Unpacked view of node [i]. *)
end
