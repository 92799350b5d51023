(** The coordinator's in-memory view of the chunk ledger: which chunks
    are done, which are leased to which worker, and which still need an
    owner. Pure bookkeeping — no I/O, no clocks of its own (callers
    pass [now], always from the {e monotonic} {!Obs.Clock}; a wall
    clock here would let an NTP step mass-expire healthy leases) — so
    the reassignment logic is unit- and property-testable without
    processes.

    Grant policy: the lowest-index run of contiguous todo chunks, with
    a {e descending} batch size [max 1 (min max_batch
    (ceil (todo / (2 * workers))))] — guided self-scheduling, which
    lives here and nowhere else: the chunks themselves are the plan's
    fixed partition, and only the batches that lease them shrink.
    Early grants are big (few round-trips), final grants are single
    chunks (a straggler holds back one chunk, not a batch).

    Two timestamps per worker, deliberately distinct. [last_beat] is
    {e liveness} — refreshed by any message, consulted via {!beat_age}
    when deciding whether a worker is worth granting to. The progress
    stamp is {e scheduling} — refreshed only by register, grant and
    completing a held chunk, consulted by {!expire}. A worker wedged by
    a dropped [Grant] frame keeps heartbeating (live) while making no
    progress (expirable): its leases are reclaimed but the worker stays
    registered with its connection open, ready to be re-granted. Only
    {!fail_worker} — the connection actually died — removes a
    worker. *)

type t

val create : ?max_batch:int -> total:int -> completed:(int -> bool) -> unit -> t
(** [total] chunks; [completed i] marks chunks a resumed checkpoint
    already recorded (they are born done). [max_batch] (default 16)
    caps grant sizes. *)

val register : t -> worker:string -> now:float -> unit
(** Add a worker (idempotent; re-registering refreshes both its
    liveness and progress stamps — a rejoin is progress). *)

val grant : t -> worker:string -> now:float -> (int * int) option
(** Lease the next batch to [worker]: [Some (lo_chunk, hi_chunk)]
    covering chunks [lo_chunk .. hi_chunk - 1], or [None] when no todo
    chunk remains (everything is done or leased out). Stamps the
    worker's progress.
    @raise Invalid_argument when [worker] is not registered. *)

val complete : t -> chunk:int -> now:float -> [ `Fresh | `Duplicate ]
(** Mark a chunk done (releasing its lease and stamping the holder's
    progress). [`Duplicate] when it was already done — a re-run chunk
    that raced its reassignment; the caller drops the duplicate
    result. *)

val heartbeat : t -> worker:string -> now:float -> unit
(** Refresh a worker's liveness stamp (unknown workers ignored).
    Deliberately {e not} progress: a wedged worker heartbeats
    forever. *)

val beat_age : t -> worker:string -> now:float -> float option
(** Seconds since [worker]'s last liveness refresh; [None] when
    unregistered. The coordinator's grant gate: a worker whose beat is
    stale gets no new lease (it may be dead without an EOF yet). *)

val fail_worker : t -> worker:string -> int list
(** Remove a worker — its connection is gone — returning its leased
    chunks (index order) to the todo pool; the caller re-grants them.
    Unknown workers yield []. *)

val expire : t -> now:float -> timeout:float -> (string * int list) list
(** Reclaim the leases of every worker that holds at least one chunk
    but has made no {e progress} for [timeout] seconds, returning the
    reclaimed chunks per worker (worker name order). The workers stay
    registered: under fault injection a reclaim usually means a lost
    frame, not a dead process, and the same worker re-earns grants the
    moment it shows life. Idle workers are never expired. *)

val leases_of : t -> worker:string -> int list
(** Chunks currently leased to [worker], in index order. *)

val workers : t -> string list
(** Registered workers, in registration order. *)

val is_complete : t -> bool
val done_count : t -> int
val todo_count : t -> int
(** Chunks neither done nor leased. *)
