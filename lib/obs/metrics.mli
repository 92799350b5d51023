(** A process-wide registry of named counters, gauges and histograms.

    Cells are backed by [Atomic.t] so ensemble domains can increment
    concurrently without locks; registration (by name, idempotent) takes
    a mutex but happens off the hot paths, typically at module
    initialisation.

    {b Off by default, near-free when disabled.} Every mutation is
    guarded by a single global flag: when recording is disabled (the
    default) [incr]/[add]/[set]/[observe] are a load and a branch, so
    instrumented hot loops pay no measurable cost, and instrumentation
    never perturbs simulation determinism — metrics touch no RNG
    stream.

    {b Naming scheme:} [<subsystem>.<metric>], lowercase with
    underscores, e.g. [sim.null_interactions], [backward.pruned],
    [ensemble.domain0.busy_s]. Durations are suffixed [_s] (seconds). *)

type counter
type gauge
type histogram

val set_enabled : bool -> unit
(** Turn recording on or off (default: off). Flip before spawning
    worker domains; the flag is a plain word read racily by design. *)

val enabled : unit -> bool

(** {2 Registration}

    Re-registering a name returns the existing cell.
    @raise Invalid_argument when the name is already registered with a
    different kind (or, for histograms, different bounds). *)

val counter : string -> counter
val gauge : string -> gauge

val histogram : ?bounds:float array -> string -> histogram
(** [bounds] are strictly increasing bucket upper bounds (an implicit
    [+inf] bucket is appended). Default: powers of ten from 1 to 1e9. *)

(** {2 Mutation (guarded by the global flag)} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

val value : counter -> int
(** Current count, regardless of the flag. *)

val gauge_value : gauge -> float

(** {2 Snapshots} *)

type v =
  | Counter of int
  | Gauge of float
  | Histogram of { bounds : float array; counts : int array; sum : float; count : int }

type snapshot = (string * v) list
(** Sorted by name. *)

val snapshot : ?process:bool -> unit -> snapshot
(** [process] (default [true]) first publishes GC/memory telemetry —
    the gauges [gc.minor_collections], [gc.major_collections],
    [gc.heap_words] and [process.max_rss_kb] (peak RSS from
    [/proc/self/status], 0 off-Linux) — so long as recording is
    enabled. These describe the environment, not the computation:
    the regression gate skips them by default. *)

val quantile : v -> float -> float option
(** [quantile v q] estimates the [q]-quantile ([0 <= q <= 1]) of a
    [Histogram] by linear interpolation within the bucket holding the
    target rank (the first bucket's lower edge is [min 0 bounds.(0)];
    the overflow bucket reports its lower edge). [None] on empty
    histograms, counters and gauges.
    @raise Invalid_argument when [q] is outside [0,1]. *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** Per-name deltas of counters and histogram counts/sums; gauges keep
    the [after] value. Entries that did not change between the two
    snapshots are dropped, so a diff over a quiet subsystem is empty. *)

val merge : snapshot -> snapshot -> snapshot
(** [merge base delta] applies a {!diff}-shaped delta to [base]:
    counters and matching-bounds histograms add cell-wise, gauges (and
    any kind or bounds mismatch) take the delta's value, names only in
    one side pass through. Inverse of {!diff} over a growing registry:
    [merge before (diff ~before ~after) = after]. This is how a
    coordinator accumulates the per-heartbeat metric deltas each
    worker streams up into one fleet view. *)

val reset : unit -> unit
(** Zero every registered cell (kept registered). Test/bench helper. *)

(** {2 Rendering} *)

val to_text : snapshot -> string
(** Multi-line human-readable table, one metric per line. Histograms
    carry p50/p90/p99 estimates (see {!quantile}). *)

val to_json_value : snapshot -> Json.t
(** Histograms gain a derived ["quantiles"] object (p50/p90/p99) when
    non-empty; {!of_json} ignores it and re-rendering recomputes the
    identical values, so round-trips stay byte-stable. *)

val to_json : snapshot -> string

val of_json_value : Json.t -> (snapshot, string) result
(** As {!of_json}, from an already-parsed tree. *)

val of_json : string -> (snapshot, string) result
(** Inverse of [to_json]: [of_json (to_json s) = Ok s]. Gauges accept
    ints. A histogram must carry one count per bound plus the [+inf]
    count, as every reader indexes by bucket; any other shape is an
    [Error] naming the metric. *)
