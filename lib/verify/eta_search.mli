(** Exact determination of the threshold of a busy-beaver protocol.

    A protocol computing some [x >= eta] (Section 2.3) rejects all
    inputs below [eta] and accepts all inputs from [eta] on. This
    module finds [eta] by deciding each input exactly (up to a cutoff —
    the configuration graphs grow quickly, so cutoffs are inherent;
    Section 4.1 of the paper explains why certifying thresholds in
    general is as hard as VAS reachability). *)

type result =
  | Eta of int
      (** rejects below, accepts from this input up to the cutoff *)
  | Always_accepts       (** accepts every checked input *)
  | Always_rejects       (** rejects every checked input (eta beyond cutoff, if any) *)
  | Not_threshold of int array * Fair_semantics.verdict
      (** some input breaks the 0*1* threshold pattern, or is undecided *)

val find :
  ?max_configs:int -> ?jobs:int -> ?stable:[ `Off | `Per_input | `Memo ] ->
  Population.t -> max_input:int -> result
(** [find p ~max_input] decides every valid input [<= max_input] of a
    single-input-variable protocol with {!Fair_semantics.decide_config},
    where {!Configgraph.Packed.applicable} alone picks the
    configuration-graph representation. Each input is explored
    incrementally, so the search stops building a graph at its first
    consensus-free bottom component. The busy-beaver census does not
    call it: it reads the same verdicts from per-assignment
    {!Fair_semantics.summary} values, and the tests compare the two.
    [?max_configs] is the node budget of each input's exploration.

    [?stable] (default [`Off]) consults the stable sets of Definition 2
    before exploring: when [IC(i) ∈ SC_b] the input is decided [b]
    outright (counter ["eta_search.stable_hits"]), since a [b]-stable
    initial configuration can only ever reach consensus-[b]
    configurations. [`Memo] computes the analysis once per protocol via
    {!Stable_sets.analyse_memo}; [`Per_input] recomputes it for every
    input (a strawman kept for the differential tests). [?jobs]
    parallelises the analysis' backward fixpoints. The result is
    identical for every [stable]/[jobs] setting.
    @raise Invalid_argument if the protocol has several input variables.
    @raise Configgraph.Too_many_configs when an exploration exceeds
    [max_configs]. *)

val sweep : int list -> (int -> Fair_semantics.verdict) -> result
(** [sweep inputs decide] is the threshold pattern [0*1*] read over
    ascending [inputs]: it asks [decide] for one input at a time and
    stops at the first that breaks the pattern or is undecided. {!find}
    is [sweep] over {!Fair_semantics.decide_config}; the busy-beaver
    census runs it over verdicts read from summaries. Every input it
    asks about counts into [eta_search.inputs_checked].
    @raise Invalid_argument on an empty input list. *)

val pp_result : Format.formatter -> result -> unit
