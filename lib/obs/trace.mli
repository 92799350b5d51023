(** Nested timing spans on the monotonic clock, exported in the Chrome
    trace-event format (load the file in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}).

    Tracing is off by default: [with_span] with no active sink (and no
    stack consumer, see below) runs its thunk directly — one load and a
    branch. A file sink streams one complete event ([ph = "X"]) per
    line inside a JSON array — valid JSON once {!stop} writes the
    footer, and still loadable by Chrome if the process dies mid-trace.
    Threads of the trace are OCaml domains ([tid] = domain id), so an
    ensemble run shows per-domain utilization lanes. Writes are
    mutex-serialised; an in-memory sink is provided for tests.

    Every span carries a process-unique id ([sid]) and the id of its
    enclosing span ([parent], [0] at top level), emitted as top-level
    ["sid"]/["parent"] JSON fields (Chrome and Perfetto ignore unknown
    keys), so {!Trace_stats} can rebuild the span forest — self times,
    critical path — without guessing nesting from timestamps. The
    per-domain span stacks behind those ids are shared infrastructure:
    {!Events} reads {!current_span_id} for correlation ids and
    {!Profile} reads {!sample_stacks} from its sampler thread. *)

type event = {
  name : string;
  cat : string;                     (** subsystem, e.g. ["verify"] *)
  ts_ns : int64;                    (** start, relative to the sink start *)
  dur_ns : int64;
  tid : int;                        (** domain id *)
  sid : int;                        (** unique span id; [0] for instants *)
  parent : int;                     (** enclosing span id; [0] = root *)
  args : (string * string) list;
}

val start_file : string -> unit
(** Open [file] and start recording. Replaces any active sink
    (finalising it first). *)

val start_memory : unit -> unit
(** Start recording into memory (tests). *)

val stop : unit -> event list
(** Stop recording. For a file sink: writes the closing footer, closes
    the channel and returns [[]]. For a memory sink: returns the events
    in emission (i.e. span-completion) order. No-op, returning [[]],
    when nothing is active. *)

val detach : unit -> unit
(** Drop the active sink {e without} flushing or closing it. For forked
    children that inherit the parent's trace channel: the channel (its
    buffer included) still belongs to the parent, so the child must
    neither write spans to it nor flush the inherited buffer copy —
    either corrupts the parent's file. Call this first thing after
    [Unix.fork] in the child. No-op when nothing is active. *)

val with_span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f ()] and emits a complete event when a
    sink is active — also on exceptional exit, so spans stay
    well-nested when e.g. a search raises on budget exhaustion. *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit
(** A zero-duration marker event (e.g. "new best protocol found"). *)

(** {2 Span-stack tracking}

    Consumers other than a trace sink (the event log, the profiler)
    can keep the per-domain span stacks alive without recording
    events. The refcount makes enabling idempotent per consumer. *)

val track_stacks : unit -> unit
(** Acquire a reference on span-stack tracking. While held, every
    [with_span] pushes/pops a frame (two [Atomic.set]s per span). *)

val untrack_stacks : unit -> unit
(** Release one reference (never below zero). *)

val current_span_id : unit -> int
(** The innermost open span of the calling domain, [0] when none (or
    when tracking is off). *)

val sample_stacks : unit -> (int * string list) list
(** Snapshot every domain's current span stack — [(domain id, span
    names outermost first)], domains with an empty stack omitted,
    sorted by domain id. Safe to call from any domain; each stack is
    read with a single atomic load, so a sample observes every stack
    at (close to) one instant without blocking the workers. *)
