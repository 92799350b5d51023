(** Concrete witness executions: transition sequences realising a
    reachability claim, found by breadth-first search (hence of minimal
    length).

    Complements {!Configgraph} (which answers yes/no questions) when a
    replayable certificate is wanted — e.g. the [IC(i) →* C] halves of
    pumping witnesses, or debugging a protocol that stabilises to the
    wrong consensus. *)

val find :
  Population.t -> src:Mset.t -> target:(Mset.t -> bool) -> (int list * Mset.t) option
(** [find p ~src ~target] is [Some (sigma, c)] where firing [sigma]
    from [src] reaches [c] with [target c], and [sigma] has minimal
    length; [None] if no reachable configuration satisfies [target].
    @raise Configgraph.Too_many_configs past 2,000,000 configurations. *)

val find_config : Population.t -> src:Mset.t -> Mset.t -> int list option
(** Minimal-length sequence to one specific configuration. *)

val replay : Population.t -> Mset.t -> int list -> Mset.t option
(** Fire a sequence, [None] if some transition is disabled en route.
    The test oracle for {!find}: a returned trace must replay to the
    configuration it names. *)

val pp_trace : Population.t -> Format.formatter -> int list -> unit
(** Prints the transitions of a trace, one per line. *)
