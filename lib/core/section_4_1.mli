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

    [Busy_beaver.scan ~analysis:All_1] measures [f] on the enumerable
    protocol spaces with this module's reading of [All_1]. *)

val reaches_all_1 : output:int -> Fair_semantics.summary -> bool
(** [IC(i) →* All_1] under the output-1 state bitmask [output], read
    from [IC(i)]'s summary: one of its reached supports lies inside
    [output]. *)

val min_accepting_input : Population.t -> max_input:int -> int option
(** Least [i <= max_input] such that some configuration reachable from
    [IC(i)] has all agents on output-1 states; [None] if there is none
    below the cutoff (or the protocol has no output-1 state at all),
    by {!reaches_all_1} on each input's {!Fair_semantics.summary}.
    @raise Configgraph.Too_many_configs when an exploration exceeds
    60,000 configurations before an answer is found.
    @raise Invalid_argument for a protocol with more states than an int
    has bits. *)
