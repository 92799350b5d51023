(** A reusable domain pool for deterministic, fault-isolated fan-out.

    One engine runs both entry points: {!run} is a single round over a
    chunk partition of [0 .. tasks-1], {!run_rounds} the
    same fan-out iterated over rounds that the caller stages one at a
    time. [jobs] domains take part (worker 0 is the calling domain);
    the [jobs - 1] others are spawned once per call and persist across
    rounds behind a barrier. Every domain claims chunks dynamically off
    one shared counter. The chunk {e partition} is a pure function of
    the task count and [chunk] — only the assignment of chunks to
    domains varies with scheduling — so a caller that accumulates one
    result slot per chunk (or per task) and reduces the slots in index
    order obtains aggregates that are byte-identical for every [jobs]
    value. The Monte-Carlo ensemble engine ({!Ensemble}), the
    busy-beaver scan ([Busy_beaver.scan]), the backward coverability
    fixpoint ([Backward]) and the Hilbert completion ([Hilbert_basis])
    are built on this contract.

    Fault isolation: a task exception never escapes a worker domain and
    never leaks a domain — all spawned domains are joined on every
    path. What happens next is the caller's [on_task_error] policy.
    Any other exception — raised by a callback ([should_stop],
    [skip_chunk], [on_chunk_done]) in any domain, or by [run_rounds]'
    [next] — cancels the batch and re-raises as itself, with its
    original backtrace, after every domain is joined. *)

type error_policy =
  [ `Fail  (** cancel the batch; re-raise after all domains joined *)
  | `Skip  (** record the failure, keep going with the other chunks *)
  | `Retry of int  (** re-run the chunk up to [n] more times, then skip *)
  ]

val num_chunks : tasks:int -> chunk:int -> int
(** The number of chunks [run] and [run_rounds] cut [tasks] into: chunk
    [ci] covers task indices [\[ci * chunk, min tasks ((ci + 1) * chunk))],
    with [chunk] clamped to at least 1 as [run] clamps it. The ranges
    are computed per claim, never stored. [jobs] never shapes the
    partition, so callers that allocate one accumulator slot per chunk
    size their arrays with this. *)

type failure = {
  chunk_index : int;
  error : exn;
  backtrace : Printexc.raw_backtrace;
}

type stats = {
  jobs : int;  (** domains used ({!run} clamps [jobs] to [tasks]) *)
  wall_s : float;  (** wall-clock of the whole batch *)
  chunks : int array;  (** chunks claimed (run or failed), per worker *)
  busy_s : float array;  (** time inside claimed chunks, per worker *)
  task_errors : int;  (** failed chunk attempts (retries each count) *)
  failures : failure list;
      (** chunks that ultimately failed under [`Skip]/[`Retry], sorted
          by chunk index. Empty under [`Fail] (the failure re-raises). *)
  cancelled : bool;
      (** the batch stopped claiming chunks early — [should_stop] fired
          or a [`Fail] failure occurred *)
}

val run :
  ?jobs:int ->
  ?chunk:int ->
  ?name:string ->
  ?on_task_error:error_policy ->
  ?should_stop:(unit -> bool) ->
  ?skip_chunk:(int -> bool) ->
  ?on_chunk_done:(int -> unit) ->
  tasks:int ->
  (lo:int -> hi:int -> unit) ->
  stats
(** [run ~jobs ~chunk ~name ~tasks f] is one round of the engine: it
    calls [f ~lo ~hi] once for every chunk [\[lo, hi)] of the task
    range — the {!num_chunks} chunks of [chunk] tasks — across a pool of
    [jobs] domains (worker 0 is the calling domain; defaults:
    [jobs = 1], [chunk = 1]). Its events and spans carry no round
    label.
    [f] must confine its writes to state owned by the claimed range.

    [on_task_error] (default [`Fail]) resolves chunks whose [f] raises:
    under [`Fail] the lowest-indexed failure that ran is re-raised with
    its original backtrace — deterministically for a single failing
    chunk — {e after} every domain is joined; under [`Skip]/[`Retry]
    the batch completes and the failures are reported in
    {!stats.failures} (and the ["<name>.task_errors"] counter). For
    [`Retry] to be deterministic, [f] must reset the chunk's
    accumulator state at the start of the chunk.

    [should_stop], polled between chunk claims, is the cancellation
    token for signal-driven shutdown: once it returns true no further
    chunks are claimed, in-flight chunks drain, and {!stats.cancelled}
    is set. [skip_chunk] (resume support) suppresses chunks — by chunk
    index ([lo / chunk]) — that a checkpoint already recorded;
    skipped chunks are neither run nor counted. [on_chunk_done] fires
    in the worker after each successfully completed chunk (its writes
    to the chunk's slot are visible) — checkpoint writers hook here.
    An exception raised by any of these three callbacks, in whichever
    domain, cancels the batch and re-raises as itself after every
    domain is joined; no metrics are published then.

    When metrics are enabled, publishes ["<name>.chunks"],
    ["<name>.domain<w>.chunks"], ["<name>.domain<w>.busy_s"], the
    ["<name>.utilization"] gauge and (only when nonzero)
    ["<name>.task_errors"]; every chunk runs inside a ["<name>.chunk"]
    trace span (default [name]: ["pool"]). *)

val run_rounds :
  ?jobs:int ->
  ?chunk:int ->
  ?name:string ->
  next:(unit -> int option) ->
  (lo:int -> hi:int -> unit) ->
  stats
(** [run_rounds ~jobs ~chunk ~name ~next f] drives an {e iterated}
    fan-out — a worklist algorithm whose frontier is expanded in
    generations — on the engine behind {!run}: the [jobs] domains
    persist across rounds (worker 0 is the calling domain), with a
    barrier between rounds.

    The driver alone calls [next ()] before each round: it reduces the
    previous round's per-task slots (in index order — this is where
    determinism lives) and stages the next round, returning
    [Some tasks] to fan out [f ~lo ~hi] over the partition of
    [0 .. tasks-1] into chunks of [chunk], or [None] to
    finish. Rounds are labelled 0, 1, 2, … in the order [next] returns
    them, at every [jobs]; the label is the ["round"] field of the
    [pool.lease] and [pool.chunk_done] events and the ["round"] arg of
    the ["<name>.chunk"] spans. A [Some 0] round takes a label and runs
    no chunk. As with {!run}, slot-per-task accumulation plus
    index-ordered reduction in [next] yields results byte-identical for
    every [jobs] value.

    Writes staged by [next] are visible to the workers of the round it
    opens, and the workers' slot writes are visible to the following
    [next] (the round barrier synchronises both directions).

    Fault contract: a task exception cancels the batch — no further
    round opens, so [next] is not called again — and re-raises after
    {e every} domain is joined; the lowest-indexed failing chunk of
    that round wins, independent of scheduling. An exception escaping
    [next] itself (e.g. {!Obs.Budget.Exceeded} raised during
    reduction) likewise joins all domains before propagating as
    itself. Publishes the same ["<name>.*"] metrics as {!run},
    accumulated over all rounds, once at the end (not when [next]
    raises). *)

val utilization : stats -> float
(** Total busy time over [jobs * wall] — 1.0 is a perfectly packed pool. *)
