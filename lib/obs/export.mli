(** Live export of the metric registry, for watching or scraping an
    hours-long scan mid-flight.

    Two renderings are kept side by side at every write: an atomic
    (tmp + rename, never torn) JSON snapshot at [path] — schema
    ["ppmetrics/v2"], with a ["workers"] section holding one row per
    distributed worker, empty in a single process — and the Prometheus
    text format at {!prom_path}[ path], ready for a node-exporter-style
    textfile collector.

    The periodic writer runs on a {e systhread} (not a domain: threads
    neither perturb the worker pool on single-core machines nor — the
    property the distributed scan depends on — poison the process for
    [Unix.fork]) and sleeps between writes; recording must be enabled
    ({!Metrics.set_enabled}) for the snapshots to move. *)

type fleet_worker = {
  fw_worker : string;
  fw_host : string;
  fw_pid : int;
  fw_last_seen_s : float;  (** seconds since the last message arrived *)
  fw_offset_s : float;  (** estimated monotonic clock offset, worker to coordinator *)
  fw_chunks_done : int;
  fw_leased : int;
  fw_events : int;  (** event-log lines forwarded so far *)
  fw_metrics : Metrics.snapshot;  (** accumulated heartbeat deltas *)
}
(** One distributed worker's row in the fleet view. *)

val set_fleet : (unit -> fleet_worker list) option -> unit
(** Install (or clear) the fleet provider the writer calls at every
    snapshot. Its rows fill the JSON ["workers"] array, and the
    Prometheus rendering gains [pp_fleet_*] families plus per-worker
    [pp_worker_<metric>] series labelled [{worker,host}]. The provider
    runs on the writer thread — it must be thread-safe (the
    coordinator's registry is mutex-guarded). *)

val set_identity : (string * string) list -> unit
(** Extra [pp_build_info] labels identifying this process in a scraped
    fleet — e.g. [[("role", "coordinator")]] or
    [[("role", "worker"); ("worker", name)]]. Empty (the default)
    leaves the exposition byte-identical to the pre-fleet format. *)

val prometheus_of_snapshot :
  ?meta:Run_meta.t ->
  ?identity:(string * string) list ->
  ?fleet:fleet_worker list ->
  Metrics.snapshot ->
  string
(** Prometheus exposition text: names are prefixed [pp_] and
    sanitized ([.] becomes [_]), every family gets [# HELP] and
    [# TYPE] lines, histograms render cumulative [_bucket{le="..."}]
    series (ending in [le="+Inf"], equal to [_count]) plus
    [_sum]/[_count], and [meta] becomes a [pp_build_info] gauge with
    escaped label values ([identity] appends further labels to it).
    [fleet] rows append the [pp_fleet_*] and [pp_worker_*] families
    described at {!set_fleet}. *)

val snapshot_json :
  ?meta:Run_meta.t ->
  ?fleet:fleet_worker list ->
  elapsed_s:float ->
  Metrics.snapshot ->
  Json.t
(** The JSON snapshot; [fleet] (default empty) becomes the ["workers"]
    array. *)

type snapshot = {
  meta : Run_meta.t option;
  elapsed_s : float;
  metrics : Metrics.snapshot;
  fleet : fleet_worker list;  (** the ["workers"] array *)
}
(** A decoded {!snapshot_json}. *)

val snapshot_of_json : Json.t -> (snapshot, string) result
(** Inverse of {!snapshot_json}, for [pptop]. The schema must be
    ["ppmetrics/v2"]; ["metrics"] and ["workers"] are required, and every
    worker row needs every field {!snapshot_json} writes. The header
    fields only label the view: an absent or malformed ["meta"] reads
    as [None], an absent or malformed ["elapsed_s"] as 0. Errors name
    the field (and the metric, for a histogram whose counts do not
    match its bounds). *)

val prom_path : string -> string
(** The sibling Prometheus file: [x.json] maps to [x.prom], anything
    else gets [".prom"] appended. *)

val write_now : ?meta:Run_meta.t -> t0:int64 -> path:string -> unit -> unit
(** One atomic write of both files; [t0] is the {!Clock.now_ns} origin
    for [elapsed_s]. Reads the current {!set_identity} labels and
    {!set_fleet} provider. *)

val start : ?meta:Run_meta.t -> ?every_s:float -> path:string -> unit -> unit
(** Write once now, then every [every_s] seconds (default 5, floored
    at 0.05) from a background systhread. Restarts any exporter
    already running. Write errors are swallowed: losing a snapshot
    must not kill the computation being observed. *)

val stop : unit -> unit
(** Stop the writer thread, join it, and write a final snapshot.
    No-op when nothing is running. *)

val detach : unit -> unit
(** Forget the running exporter without joining or writing — for a
    forked child, where the writer thread does not exist and the
    output path belongs to the parent. *)

val active : unit -> bool
