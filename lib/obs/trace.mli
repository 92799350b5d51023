(** Nested timing spans on the monotonic clock, exported in the Chrome
    trace-event format (load the file in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}).

    Tracing is off by default: [with_span] with no active consumer (a
    sink, a profile or the event log) runs its thunk directly after one
    atomic load. A file sink streams one complete event ([ph = "X"]) per
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
    {!Events} reads {!current_span_id} for correlation ids, and a
    profile ({!start_profile}) charges every span's self time to its
    span path. *)

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
(** Drop the active sink and profile {e without} flushing or closing
    them. For forked children that inherit the parent's channels: each
    channel (its buffer included) still belongs to the parent, so the
    child must neither write to it nor flush the inherited buffer copy
    — either corrupts the parent's file — and spans the child runs
    afterwards are neither recorded nor charged. Call this first thing
    after [Unix.fork] in the child. No-op when nothing is active. *)

val start_profile : string -> unit
(** Open [file] and start charging every completed span's self time —
    its duration minus its children's, from the same clock reads a sink
    records — to the node of its span path, in one tree per domain.
    Replaces any running profile (writing it first).
    @raise Sys_error when [file] cannot be opened. *)

val stop_profile : unit -> unit
(** Write the profile and close its file: in the folded-stack format of
    {{:https://github.com/brendangregg/FlameGraph}flamegraph.pl} and
    {{:https://www.speedscope.app}speedscope}, one line per span path
    with a completed span, sorted, weighted by its self time in whole
    microseconds (rounded to the nearest):

    {v
    domain0;bbsearch.scan;bbsearch.chunk 118601
    domain1;bbsearch.chunk;bbsearch.summarise 168009
    v}

    It reads every domain's tree without stopping them, so call it
    once the instrumented work is done. No-op when no profile runs. *)

val with_span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()]; when a sink or a profile is active
    it also times it, emitting a complete event and charging the
    profile — also on exceptional exit, so spans stay well-nested when
    e.g. a search raises on budget exhaustion. *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit
(** A zero-duration marker event (e.g. "new best protocol found"). *)

(** {2 Span-stack tracking}

    Consumers other than a trace sink or a profile (the event log) can
    keep the per-domain span stacks alive without timing spans. The
    refcount makes enabling idempotent per consumer. *)

val track_stacks : unit -> unit
(** Acquire a reference on span-stack tracking. While held, every
    [with_span] pushes and pops a frame of the calling domain's
    stack. *)

val untrack_stacks : unit -> unit
(** Release one reference (never below zero). *)

val current_span_id : unit -> int
(** The innermost open span of the calling domain, [0] when none (or
    when tracking is off). *)
