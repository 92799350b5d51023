(** Low-overhead wall-clock sampling profiler over the {!Trace} span
    stacks.

    A sampler systhread on the calling domain (not a domain of its
    own, so it composes with [Unix.fork] and forked workers) wakes
    every [interval_s] (default 1ms) and snapshots every domain's
    current span stack ({!Trace.sample_stacks} — one atomic load per
    domain, no stop-the-world). The interval holds only while the
    calling domain's main thread blocks (a pool driver joining its
    workers, a coordinator in [select]); while that thread computes on
    the same core, the runtime's thread tick throttles sampling to
    about 20 Hz. Aggregated counts are written on {!stop} in the
    folded-stack format consumed by
    {{:https://github.com/brendangregg/FlameGraph}flamegraph.pl} and
    {{:https://www.speedscope.app}speedscope}:

    {v
    domain0;bbsearch.scan;bbsearch.chunk 412
    domain5;bbsearch.chunk 389
    v}

    The cost model: when off, nothing (no thread, no per-span work);
    when on, each worker pays two atomic stores per span (the frame
    push/pop of {!Trace.track_stacks}) regardless of the sampling
    rate, and the sampler's own work is proportional to the number of
    live domains times the rate — bounded, and off the workers'
    critical path. Spans are coarse (chunks, phases), so this is a
    phase profiler, not an instruction profiler: it answers "which
    span names own the wall time", which is what flamegraphs of a
    search need. *)

val start : ?interval_s:float -> path:string -> unit -> unit
(** Start the sampler thread; samples accumulate in memory and the
    folded-stack file is written at {!stop} (atomically replacing
    [path]'s previous content). Replaces any running profiler.
    [interval_s] is clamped to at least 0.2ms. *)

val stop : unit -> unit
(** Stop sampling, join the sampler thread and write the folded-stack
    file. No-op when not running. *)

val samples : unit -> int
(** Number of sampling ticks so far that observed at least one
    non-empty stack (test helper: poll this instead of sleeping). *)
