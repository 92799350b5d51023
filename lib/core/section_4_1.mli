(** Section 4.1's "deceptively similar" function

    [f(n) = max over protocols P with n states of
            min { i | IC(i) →* All_1 }],

    where [All_1] is the set of configurations in which every agent
    populates an output-1 state — over {e all} protocols, not just
    those computing a predicate. The paper notes that with leaders
    [f] grows faster than any primitive recursive function (via VAS
    reachability hardness [15, 16, 22, 23]), whereas for leaderless
    protocols a result of Balasubramanian et al. [10] gives
    [f(n) ∈ 2^O(n)] — the heuristic reason the leaderless busy beaver
    bound of Theorem 5.9 is so much smaller than Theorem 4.5's.

    This module measures [f] empirically on the enumerable protocol
    spaces ([n <= 3] exhaustively, [n = 4] by sampling). *)

val min_accepting_input :
  ?max_configs:int -> Population.t -> max_input:int -> int option
(** Least [i <= max_input] such that some configuration reachable from
    [IC(i)] has all agents on output-1 states; [None] if there is none
    below the cutoff (or the protocol has no output-1 state at all). It
    reads the reached supports of each input's
    {!Fair_semantics.summary}: [IC(i) →* All_1] iff one of them lies
    inside the output-1 states.
    @raise Configgraph.Too_many_configs when an exploration exceeds
    [max_configs] (default 60,000) before an answer is found.
    @raise Invalid_argument for a protocol with more states than an int
    has bits. *)

type scan_result = {
  num_protocols : int;
  max_f : int;              (** largest finite minimum found *)
  num_unreachable : int;    (** protocols that never reach All_1 below the cutoff *)
  num_aborted : int;
      (** protocols whose answer is unknown: an exploration they needed
          exceeded [max_configs] before any input reached All_1 *)
  histogram : (int * int) list;  (** min accepting input -> #protocols *)
}

val scan : ?max_input:int -> ?max_configs:int -> n:int -> unit -> scan_result
(** All [P^P · 2^n] protocols of {!Busy_beaver.scan}'s space, with the
    same defaults. The loop is assignment-major: one
    {!Busy_beaver.Summaries} cache explores each (assignment, input)
    at most once, and every output map reads its answer from those
    summaries — the same answer {!min_accepting_input} gives. *)
