(** The worker side of the distributed scan: connect, learn the scan
    from the coordinator's {!Wire.Welcome}, run granted chunks, stream
    results back.

    The worker carries {e no} scan configuration of its own — it hands
    the Welcome's config object to the [runner] factory and scans
    whatever comes back. That is the protocol's defence against flag
    drift: a [--connect] worker launched with different CLI flags still
    computes exactly the coordinator's chunks, because its entire plan
    (sample codes included) is derived from the coordinator's bytes.

    When the Welcome sets [telemetry] the worker additionally turns on
    {!Obs.Metrics}, captures its own ppevents stream (teeing a local
    [--events] sink when one exists, else a capture-only sink), emits a
    [worker.chunk] record per chunk, and ships both upward: batched
    {!Wire.Events} plus an {!Obs.Metrics.diff} on every heartbeat.
    Telemetry rides the same racy channels as heartbeats and never
    gates a Result, so scan output is byte-identical either way.

    {b Fault tolerance.} Three mechanisms keep a worker useful on a
    lossy transport: a missed Welcome is answered by re-sending Hello
    on the same fd (the handshake frames are as droppable as any
    other); an {e idle} worker still heartbeats (so a dropped Grant
    leaves it visibly alive while the coordinator's progress-expiry
    reclaims the lease); and a bounded {!cache} of computed chunk
    states lets a chunk whose Result vanished be {e resent} rather
    than recomputed when it is granted again — to this worker in this
    or a later session. {!run_reconnect} adds the session layer: TCP
    redial with exponential backoff and deterministic jitter, the
    cache threaded through every session. *)

type chunk_runner = {
  scan : int -> Obs.Json.t;  (** chunk index -> serialised accumulator *)
  chunks : int;
      (** the plan's chunk count: a Welcome announcing another count is
          refused, and a Grant reaching outside [0, chunks) is a
          {!Wire.Protocol_error} naming the chunk *)
  range : (int -> int * int) option;
      (** chunk index -> its [lo, hi) code range, used only to size
          [worker.chunk] telemetry records; [None] drops the lo/hi
          fields (chunk-normalised straggler stats degrade to
          unsized). *)
}

type cache
(** Completed chunk states awaiting (possible) re-grant, bounded FIFO:
    the 128 most recent are kept, the oldest evicted first. Resends are
    counted in [dist.cache_resends]. *)

val run :
  ?heartbeat_every:float ->
  ?welcome_timeout:float ->
  ?chaos:Chaos.t ->
  ?cache:cache ->
  ?on_welcome:(config_hash:string -> (unit, string) result) ->
  ?on_chunk_done:(int -> unit) ->
  name:string ->
  fd:Unix.file_descr ->
  runner:(Obs.Json.t -> (chunk_runner, string) result) ->
  unit ->
  (unit, string) result
(** [run ~name ~fd ~runner ()] speaks the {!Wire} protocol on [fd]
    until the coordinator's {!Wire.Shutdown} ([Ok ()]) or a protocol
    failure ([Error _]: EOF before shutdown, a bad message, or a
    refused Welcome).

    [runner config] is called once, on the Welcome. The Welcome is
    refused, before any Grant is served, when [runner] rejects its
    config, when its chunk count differs from the returned [chunks],
    or when [on_welcome] (default: accept) returns [Error] for its
    config hash; the error then reads
    ["rejected coordinator config: <reason>"]. The returned
    {!chunk_runner}'s [scan] is called once per granted chunk, in
    grant order — except chunks still in [cache], whose stored state
    is resent as-is. A {!Wire.Heartbeat} is sent whenever
    [heartbeat_every] (default 2s) has elapsed since the last send —
    between chunks {e and} while idle (the receive loop wakes every
    half-interval); with telemetry on, each beat first flushes pending
    event lines and carries the metric delta since the previous beat.
    64 pending lines force an early flush. If no Welcome arrives
    within [welcome_timeout] (default 5s) the Hello is re-sent, up to
    3 times. [chaos] mangles this side's outbound frames
    ({!Wire.send}); [on_chunk_done] fires after each chunk's Result is
    on the wire — the chaos-kill test hook ([Unix.kill] yourself there
    to simulate a crash at an exact chunk count). *)

val run_reconnect :
  ?heartbeat_every:float ->
  ?max_attempts:int ->
  ?backoff_base:float ->
  ?jitter_seed:int ->
  ?chaos_for:(int -> Chaos.t option) ->
  ?on_chunk_done:(int -> unit) ->
  name:string ->
  connect:(unit -> (Unix.file_descr, string) result) ->
  runner:(Obs.Json.t -> (chunk_runner, string) result) ->
  unit ->
  (unit, string) result
(** {!run} in a redial loop, for TCP workers: each session calls
    [connect] for a fresh fd (closed when the session ends), keeps the
    same worker identity [name], and threads one {!cache} through —
    so a Result completed just before a disconnect is resent, not
    redone, when the rejoined session is re-granted the chunk. The
    coordinator recognises the returning name, supersedes the dead
    connection and re-registers the worker (its rejoin handshake);
    results always carry their {e Grant's} epoch, so work from before
    a coordinator restart is recognisably stale.

    A failed session sleeps [min 5 (backoff_base * 2^(k-1))] seconds
    ([backoff_base] defaults to 0.4s) scaled by a deterministic
    jitter in [0.75, 1.25) drawn from a Splitmix64 stream seeded by
    [jitter_seed] and the worker name, then redials. [k] counts
    {e consecutive} failures — a session whose Welcome was accepted
    proves the coordinator was alive and resets the streak — and
    [max_attempts] (default 6) of them end the loop with the last
    error. A refused Welcome ends the loop at once with the refusal,
    without a redial, which would only meet the same Welcome: a
    config {!run} refuses, and a config hash that changed across
    sessions (the cache would poison a different scan), refused before
    any Grant is served. [chaos_for session] supplies each session's
    outbound fault stream. Reconnects are counted in
    [dist.reconnects] and logged as [dist.reconnect] events. *)
