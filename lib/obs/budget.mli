(** Typed resource budgets with graceful degradation.

    Long-running searches (Hilbert-basis completion, Karp–Miller
    clovers, configuration-graph exploration) take explicit resource
    budgets. When a budget runs out they raise {!Exceeded} instead of a
    string [Failure]: the exception carries the budget's identity, the
    resources consumed so far and — through the extensible {!partial}
    type — whatever partial result the search had accumulated, so
    callers can degrade to an [Unknown(budget)] verdict instead of
    dying. *)

type partial = ..
(** Open type of partial results. Each budgeted engine extends it with
    its own constructor (e.g. [Hilbert_basis.Partial_basis]); a caller
    that recognises the constructor can salvage the partial result,
    everyone else still gets the typed exception and the stats. *)

type partial += No_partial

type info = {
  source : string;  (** the budgeted engine, e.g. ["hilbert.solve_eq"] *)
  resource : string;  (** what ran out: ["candidates"], ["nodes"], ["wall_s"] *)
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

(** A wall-clock budget as an absolute deadline on the monotonic clock,
    so one budget can span nested calls (e.g. every configuration-graph
    exploration of one [Eta_search.find]). *)
type deadline = { at_ns : int64; budget_s : float; source : string }

val deadline_in : source:string -> float -> deadline
(** [deadline_in ~source s] expires [s] seconds from now. *)

val expired : deadline -> bool

val raise_if_expired : consumed:(string * float) list -> deadline -> unit
(** Raise {!Exceeded} (resource ["wall_s"], limit the deadline's
    budget, no partial result) if the deadline has passed. *)
