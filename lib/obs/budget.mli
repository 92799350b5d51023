(** Typed resource budgets with graceful degradation.

    Long-running searches (Hilbert-basis completion, Karp–Miller
    clovers) take explicit resource budgets that count work —
    candidates or nodes, never wall-clock time — so a trip is the same
    on every machine and at every [jobs]. When a budget runs out they
    raise {!Exceeded} instead of a string [Failure]: the exception
    carries the budget's identity, the resources consumed so far and —
    through the extensible {!partial} type — whatever partial result
    the search had accumulated, so callers can degrade to an
    [Unknown(budget)] verdict instead of dying. Configuration-graph
    explorations have a node budget of their own and raise
    [Configgraph.Too_many_configs], not {!Exceeded}. *)

type partial = ..
(** Open type of partial results. Each budgeted engine extends it with
    its own constructor (e.g. [Hilbert_basis.Partial_basis]); a caller
    that recognises the constructor can salvage the partial result,
    everyone else still gets the typed exception and the stats. *)

type partial += No_partial

type info = {
  source : string;  (** the budgeted engine, e.g. ["hilbert.solve_eq"] *)
  resource : string;  (** what ran out: ["candidates"], ["nodes"] *)
  limit : float;  (** the configured budget *)
  consumed : (string * float) list;  (** resources spent when the budget hit *)
  partial : partial;
}

exception Exceeded of info

val exceeded :
  ?partial:partial ->
  source:string ->
  resource:string ->
  limit:float ->
  consumed:(string * float) list ->
  unit ->
  exn
(** Build an {!Exceeded} (and bump the ["budget.exceeded"] counter when
    metrics are on). Raise it with [raise (Budget.exceeded ... ())]. *)

val describe : info -> string
(** One line: source, resource, limit and the consumed stats. *)
