(** Multi-process busy-beaver scans: a coordinator leases chunk ranges
    of a {!Busy_beaver.plan} to worker {e processes} — forked locally
    over socketpairs, or connecting over TCP — and merges their
    per-chunk accumulators in index order, so the distributed result is
    byte-identical to [Busy_beaver.scan ~jobs:1] of the same plan.

    The fault story is the whole point: a worker that dies (crash,
    SIGKILL, unplugged machine) merely returns its leased chunks to the
    pool; the survivors re-run them. The coordinator keeps every
    accepted accumulator in the {!Obs.Checkpoint} ledger it shares with
    {!Busy_beaver.scan} ({!Busy_beaver.with_ledger}), so a killed
    {e coordinator} resumes too — it bumps the ledger's epoch on
    adoption, which makes any result from a previous life's grant
    recognisably stale. Leases are not persisted: the next life grants
    every chunk the ledger does not record as done.

    Determinism: chunk content depends only on (plan, chunk index) —
    never on which process ran it or when — and the final reduce is
    index-ordered, so worker count, scheduling, crashes and
    reassignments are all invisible in the aggregate. *)

type outcome = {
  result : Busy_beaver.scan_result;
  stats : Dist.Coordinator.stats;
}

val coordinate :
  ?workers:int ->
  ?serve:Unix.file_descr ->
  ?heartbeat_timeout:float ->
  ?checkpoint:string ->
  ?checkpoint_every_chunks:int ->
  ?checkpoint_every_s:float ->
  ?resume:bool ->
  ?should_stop:(unit -> bool) ->
  ?chaos_kill:int * int ->
  ?chaos_net:Dist.Chaos.spec ->
  ?telemetry:bool ->
  plan:Busy_beaver.plan ->
  unit ->
  outcome
(** Run a distributed scan of [plan] to completion as its coordinator.

    [workers] (default 0) forks that many local worker processes, each
    wired up over a socketpair; [serve] additionally (or instead)
    accepts TCP workers on an already-listening socket (see
    {!listen}). At least one of the two must be able to produce a
    worker. Workers derive their plan from the coordinator's
    {!Busy_beaver.plan_config} bytes, never from their own flags.

    [checkpoint]/[resume] work as in {!Busy_beaver.scan} — the same
    ledger, opened, checked and flushed by the same
    {!Busy_beaver.with_ledger}, so each scan resumes the other's
    file, and the same {!Obs.Checkpoint.Mismatch} on a flag change —
    plus the coordinator's own step: the epoch is bumped and persisted
    when the ledger is adopted, before the first grant. Without
    [checkpoint] the ledger lives in memory. [should_stop] (polled
    alongside {!Obs.Shutdown.requested}) drains the scan early with
    [result.interrupted] set.

    OCaml 5 restriction: [Unix.fork] is forbidden in a process that
    has ever spawned a domain, so with [workers > 0] this must be
    called before any [Domain.spawn] (in particular before any
    [Busy_beaver.scan ~jobs:(>1)] in the same process).

    [chaos_kill:(w, k)] is the fault-injection hook for tests and CI:
    forked worker index [w] SIGKILLs {e itself} after completing [k]
    chunks — exercising EOF detection, lease reassignment and the
    byte-identity of the merged result under a real mid-scan crash.
    [chaos_net] arms deterministic {e transport} fault injection
    ({!Dist.Chaos}) on both sides of every connection: the coordinator
    mangles its outbound frames and each forked child mangles its own,
    all on independent Splitmix64 substreams of the spec's seed — the
    same spec replays the same fault schedule. The scan rides it out
    (CRC skip, progress-expiry, re-grant, duplicate drop) and the
    merged result stays byte-identical.

    Resuming a ledger emits a [dist.recovery] event (path, epoch, done
    and total chunks) and adds the prior life count to the
    [coordinator.restarts] metric. A resumed ledger whose chunk states
    do not decode is refused before any worker is forked or the file
    is touched.

    [telemetry] is passed through to {!Dist.Coordinator.run}: workers
    stream metric deltas and event batches up, the coordinator merges
    them into its {!Obs.Export} snapshots ([ppmetrics/v2] fleet
    section) and its ppevents log (offset-aligned, worker-tagged).
    Defaults to on exactly when a local observability sink is live;
    either way the scan result is byte-identical. Forked children
    detach every inherited observability channel before serving.

    All forked children are reaped before returning. *)

val listen : ?host:string -> port:int -> unit -> Unix.file_descr
(** Bind and listen a TCP socket for [?serve] ([host] defaults to
    ["127.0.0.1"]; port 0 picks a free port — recover it with
    [Unix.getsockname]). The caller closes it when done. *)

val connect_worker :
  ?name:string ->
  ?heartbeat_every:float ->
  ?chaos_kill:int ->
  ?chaos_net:Dist.Chaos.spec ->
  ?max_attempts:int ->
  ?backoff_base:float ->
  host:string ->
  port:int ->
  unit ->
  (unit, string) result
(** Join a coordinator at [host:port] as a TCP worker and serve chunks
    until its {!Dist.Wire.Shutdown}. [name] defaults to
    ["<hostname>-<pid>"]. [chaos_kill:k] SIGKILLs the process after
    [k] chunks (tests); [chaos_net] mangles this side's outbound
    frames deterministically ({!Dist.Chaos}).

    It redials through {!Dist.Worker.run_reconnect} when the
    connection drops — or was never up — with exponential backoff and
    deterministic jitter, up to [max_attempts] (default 6) consecutive
    failures, keeping the same worker identity and its computed-chunk
    cache across sessions: a coordinator restart ([--serve --resume])
    sees the worker rejoin mid-scan and any completed-but-unacked
    chunk is resent, not redone. Returns [Error _] when the
    coordinator stays gone, or at once when the worker refuses its
    Welcome — the exit diagnostic, not an exception. *)
