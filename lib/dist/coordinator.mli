(** The coordinator side of the distributed scan: a single-threaded
    [select(2)] event loop (EINTR-proof, {!Wire.select_eintr}) that
    welcomes workers, leases them chunk ranges, collects their
    per-chunk accumulators, and reassigns the leases of workers that
    die.

    Worker death is detected in graded steps. The fast path is fd
    EOF — a SIGKILLed worker's socket closes immediately; the worker
    is failed and its leases reclaimed. The backup is {e progress
    expiry}: a worker sitting on leases without completing anything
    for [heartbeat_timeout] seconds has its chunks reclaimed but keeps
    its registration and socket — under fault injection that usually
    means a lost Grant or Result frame, not a dead process, and the
    worker earns grants again the moment it shows life (grants are
    gated on heartbeat freshness, so a silent worker is never fed).
    Only prolonged {e total} silence (3× the timeout without a beat)
    drops the connection as lost. Either way a chunk is only ever
    {e recorded} once, so a resurrection race produces a dropped
    duplicate, never a double count.

    Rejoins: a Hello bearing an already-registered name on a {e new}
    connection supersedes the old socket without touching its leases —
    same identity, the standing leases are re-sent as Grant frames
    (the worker's cache answers instantly for chunks it already
    computed). A Hello {e retry} on the same connection (the worker
    missed our Welcome) is answered with a fresh Welcome and the same
    re-grant. Corrupt frames skipped by the v3 reader are tallied per
    connection into the stats and [dist.corrupt_frames].

    Every accepted result is handed to [on_result] in arrival order —
    the caller records it in its {!Obs.Checkpoint} ledger; the
    index-ordered merge of that ledger at the end is the caller's job,
    which is what makes the distributed aggregate byte-identical to a
    single-process run. Who holds which chunk lives only in this loop's
    {!Lease} table (and, advisory, in {!Telemetry}'s per-worker leased
    count); the ledger records only which chunks are done.

    Emits [dist.*] events ({!Obs.Events}) — [worker_join], [lease],
    [chunk_done], [worker_lost], [worker_rejoin], [lease_expired],
    [reassign], [stale_result], [corrupt_frames] — and mirrors the
    totals in [dist.*] metrics ({!Obs.Metrics}).

    With telemetry on (see [?telemetry]) it additionally maintains a
    {!Telemetry} registry — per-worker identity, liveness, clock
    offset, accumulated metric deltas — publishes it as the fleet
    section of {!Obs.Export} snapshots, and re-injects workers'
    forwarded event lines (offset-aligned, origin-tagged) into its own
    {!Obs.Events} sink, producing one merged fleet timeline. *)

type stats = {
  chunks_done : int;  (** fresh results recorded this run *)
  duplicates : int;  (** results for already-done chunks, dropped *)
  stale_dropped : int;  (** results stamped with a previous epoch *)
  reassigned : int;  (** chunk leases reclaimed (death or expiry) *)
  workers_seen : int;
  workers_lost : int;  (** EOF, protocol failure, or prolonged silence *)
  rejoins : int;  (** reconnects recognised by worker name *)
  corrupt_frames : int;  (** v3 frames skipped for length/CRC failure *)
  events_forwarded : int;  (** worker event lines ingested (racy) *)
  interrupted : bool;  (** [should_stop] fired before completion *)
  fleet : Obs.Export.fleet_worker list;
      (** the final {!Telemetry.fleet} view: per-worker rows, join
          order *)
}

val run :
  ?accept:Unix.file_descr ->
  ?fds:Unix.file_descr list ->
  ?heartbeat_timeout:float ->
  ?chaos:Chaos.spec ->
  ?should_stop:(unit -> bool) ->
  ?telemetry:bool ->
  config:Obs.Json.t ->
  config_hash:string ->
  epoch:int ->
  total_chunks:int ->
  completed:(int -> bool) ->
  on_result:(chunk:int -> Obs.Json.t -> unit) ->
  unit ->
  stats
(** Run the scan to completion. [fds] are already-connected worker
    sockets (the fork topology); [accept] is a listening socket whose
    connections are welcomed as they arrive (the TCP topology) — at
    least one source must eventually produce a worker or the loop
    waits forever. [config]/[config_hash] are what joining workers
    receive in their {!Wire.Welcome}; [epoch] stamps every grant, and
    results carrying any other epoch are dropped as stale.
    [completed] seeds the lease table from a resumed ledger. Before its
    final {!Wire.Shutdown} the loop waits (at most one
    [heartbeat_timeout], and not after [should_stop] returns [true])
    until every [fds] worker has sent its {!Wire.Hello} or closed its
    socket, so every forked child of a completed scan counts in
    [workers_seen], however fast the others finished.
    [heartbeat_timeout] (default 10s) bounds how long an unproductive
    worker can sit on a lease; grants are sized by {!Lease}'s default
    policy. [chaos] arms deterministic fault injection on this side's
    outbound frames, one {!Chaos} stream per accepted connection in
    accept order. [should_stop] (polled every loop tick,
    with {!Obs.Shutdown.requested} checked alongside by the caller if
    desired) drains the loop early: workers get a {!Wire.Shutdown} and
    [interrupted] is set.

    [telemetry] asks workers (via their Welcome) to stream metric
    deltas and batched event lines; it defaults to whether any local
    observability sink is live ([{!Obs.Metrics.enabled} ||
    {!Obs.Events.enabled} || {!Obs.Export.active}]). While running
    with telemetry, {!Obs.Export.set_fleet} is installed so the
    [workers] list of metric snapshots fills in; on exit (even on
    raise) the live provider is replaced by a frozen final view, so
    the exporter's last write — and a post-run [pptop] — still shows
    who did what. After Shutdown the loop lingers briefly
    (≤0.5s) to drain workers' final telemetry flushes.

    Returns when every chunk is done (or on early stop); all worker
    fds are closed on exit, [accept] is left open (the caller owns
    it). A worker whose connection raises {!Wire.Protocol_error} is
    dropped like a dead worker. *)
