(** Structured JSONL event log ([ppevents/v1]) — the one channel for
    everything that previously went to ad-hoc side channels: progress
    lines, checkpoint snapshots, shutdown signals, budget trips, pool
    task errors and chunk lease/complete/retry events.

    The file starts with a header line
    [{"schema":"ppevents/v1","t0_utc":...}] followed by one JSON object
    per line:

    {v
    {"ts_s":1.23,"utc":"2026-08-07T12:00:00.123Z","sev":"info",
     "dom":4,"span":812,"ev":"pool.lease","data":{...}}
    v}

    [ts_s] is monotonic-clock seconds since the sink started (use it
    for ordering and latency math), [utc] wall-clock for correlating
    with the outside world, [dom] the emitting domain, and [span] the
    innermost open {!Trace} span of that domain — the correlation id
    tying an event to the trace file recorded alongside. Lines are
    mutex-serialised and flushed individually, so [tail -f] works and a
    crash loses at most the line being written.

    Off by default; {!emit} with no sink is one load and a branch.
    Binaries enable it with [--events FILE] ({!Obs_cli}). *)

type severity = Debug | Info | Warn | Error

val enabled : unit -> bool

val start_file : string -> unit
(** Open the file, write the header line and start logging. Replaces
    any active sink (stopping it first). Also acquires
    {!Trace.track_stacks} so events carry span correlation ids even
    when no trace sink is recording. *)

val start_sink : (string -> unit) -> unit
(** Capture mode: each serialised record line goes to the callback
    instead of a file, with {e no} header line and an absolute [ts_s]
    basis ([t0 = 0], i.e. raw monotonic-clock seconds) — the shape a
    distributed worker needs to batch its events up to a coordinator
    that will realign them with a clock-offset estimate. *)

val set_tee : (string -> unit) option -> unit
(** Mirror every record line of the {e current} sink to a secondary
    callback (or stop mirroring with [None]); no-op when no sink is
    active. Lets a worker that already logs to its own [--events] file
    stream the same lines upward. The tee sees lines in the sink's own
    [ts_s] basis — ship {!origin_s} alongside so the receiver can
    convert to absolute time. *)

val origin_s : unit -> float
(** The current sink's [t0] on the absolute monotonic clock, in
    seconds ([absolute ts = origin_s () +. ts_s]); [0] for capture
    sinks ({!start_sink}) and when no sink is active. *)

val inject : Json.t -> unit
(** Append one pre-built record verbatim (serialised under the sink
    lock, no re-stamping) — how a coordinator writes realigned worker
    records into its merged log. No-op without a sink. *)

val stop : unit -> unit
(** Emit a final ["events.stop"] record, close the sink (when it owns
    a file) and release stack tracking. No-op when nothing is
    active. *)

val detach : unit -> unit
(** Forget the active sink without emitting or closing anything — for
    a forked child whose inherited sink (file descriptor and lock
    included) belongs to the parent — and release its stack
    tracking. *)

val emit : ?severity:severity -> ?data:(string * Json.t) list -> string -> unit
(** [emit name ~data] appends one event record. [data] becomes the
    ["data"] object (omitted when empty). Severity defaults to
    [Info]. Callers on hot paths should guard with {!enabled} before
    building [data]. *)
