(** Offline fleet analytics over a {e merged} ppevents log — the file
    a telemetry-on coordinator writes: its own [dist.*] records
    interleaved with the workers' forwarded, offset-aligned,
    worker-tagged records ([worker.chunk] and friends).

    One pass attributes every record to a worker (the top-level
    [worker] tag on forwarded lines, or [data.worker] on [dist.*]
    records), builds synthetic spans from [worker.chunk] records (one
    {!Trace_stats} tid per worker, in first-seen order), and reuses
    {!Trace_stats.analyse} for the utilization timelines and the
    chunk-size-normalised straggler columns. On top of that it matches
    [dist.chunk_done] records back to the [dist.lease] that granted
    each chunk, giving a per-worker lease-latency distribution, and
    extracts a human chronology (joins, losses, reassignments, stale
    results).

    Deterministic for a given input; rendered by [ppreport fleet]. *)

type worker_row = {
  w_name : string;
  w_host : string;  (** from [dist.worker_join]; [""] when unknown *)
  w_pid : int;
  w_chunks : int;  (** [worker.chunk] records attributed to it *)
  w_busy_s : float;  (** summed chunk durations *)
  w_util : float;  (** busy / wall *)
  w_timeline : float list;  (** bucketed utilization in [0, 1] *)
  w_lease_count : int;  (** completions matched to their grant *)
  w_lease_median_s : float;
      (** grant-to-completion latency, nearest rank
          ({!Trace_stats.percentile}) *)
  w_lease_p99_s : float;
  w_lease_max_s : float;
  w_lost : int;  (** [dist.worker_lost] records naming it *)
}

type entry = { c_ts_s : float; c_ev : string; c_detail : string }
(** One chronology line: join / lost / reassign / stale / rejoin /
    expired / corrupt / reconnect / recover. *)

type report = {
  source : string;
  wall_s : float;  (** span of record timestamps *)
  total_events : int;  (** record lines ingested *)
  skipped : int;  (** unparseable lines (never fatal) *)
  rejoins : int;  (** [dist.worker_rejoin] — reconnects by name *)
  expired_leases : int;  (** [dist.lease_expired] — progress expiry *)
  corrupt_frames : int;  (** frames skipped by CRC, summed over
                             [dist.corrupt_frames] records *)
  reconnects : int;  (** worker-side [dist.reconnect] redials *)
  restarts : int;  (** coordinator lives beyond the first, from
                       [dist.recovery] epochs *)
  workers : worker_row list;  (** first-seen order *)
  chronology : entry list;  (** time-sorted *)
  fanout : Trace_stats.chunk_group list;
      (** straggler stats over the synthetic [worker.chunk] spans *)
}

val analyse : ?source:string -> string list -> report
(** Pure analysis of raw JSONL lines (header and blank lines are
    skipped silently; malformed lines are counted in [skipped]; a field
    a record lacks or mistypes reads as its default). Lease latency
    looks each finished chunk up in the granted ranges, so a grant
    costs one entry whatever its width. *)

val load : string -> (report, string) result
(** Read and analyse a merged events file. *)

val to_markdown : report -> string
(** GitHub-flavoured markdown tables; timelines use
    {!History.sparkline}. Deterministic. *)

val to_json : report -> Json.t
(** Machine-readable rendering ([ppfleet-report/v1]). *)
