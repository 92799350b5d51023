(** Empirical busy-beaver search (Definition 1 / Section 4.1): enumerate
    small protocols and measure the largest threshold any of them
    computes.

    The search enumerates deterministic, complete, leaderless protocols
    with [n] states and input state 0, decides each input up to a
    cutoff with the exact semantics, and keeps the protocols whose
    verdicts form a threshold pattern [0*1*]. Thresholds beyond the
    cutoff cannot be certified (Section 4.1 explains why this is
    fundamentally hard — it is VAS-reachability territory), so results
    are reported as {e apparent} busy-beaver values. The same driver
    measures Section 4.1's "deceptively similar" [f(n)] over the same
    code space: an {!analysis} selects how a code's summaries are read,
    and nothing else.

    The scan is a sharded pipeline: the code space is cut into
    fixed-size chunks, chunks are claimed dynamically by a domain pool
    ({!Pool}), and per-chunk partial results are reduced in chunk index
    order — so aggregates are byte-identical for every [jobs] and
    [chunk] setting. Symmetry pruning ({!Symmetry}) skips
    non-canonical codes and weights canonical ones by their orbit size,
    which preserves every aggregate exactly while verifying only one
    protocol per isomorphism class.

    A code is a transition assignment plus an output map, and its
    configuration graphs depend on the assignment alone. So a chunk
    explores each (assignment, input) it needs once ({!Summaries}) and
    reads the verdicts of all of the assignment's canonical output maps
    from that one summary. A map constant on the assignment's coverable
    states needs no summary: every input gets that verdict
    ({!Summaries.constant}). Codes are numbered assignment-major, so a
    chunk of [k · 2^n] codes holds [k] whole assignments; a chunk
    boundary inside an assignment only means both chunks summarise it.
    The [configgraph.*], [fair.*] and [bbsearch.summaries] counters of
    a scan therefore depend on the chunk partition; the aggregates and
    the per-code counters ([bbsearch.protocols_scanned],
    [threshold_protocols], [pruned_symmetry], [config_budget_aborts],
    [eta_search.inputs_checked]) do not. *)

(** What {!scan} measures of a code: [Threshold] (the census), its
    threshold [η] up to the cutoff; [All_1] (Section 4.1's [f]), its
    least input [i] with [IC(i) →* All_1]
    ({!Section_4_1.reaches_all_1}). Only this reading of the summaries
    differs; both values survive a relabelling that fixes the input
    state, so pruning, the pool, the ledger and the merge are shared. *)
type analysis = Threshold | All_1

type scan_result = {
  num_protocols : int;       (** protocols enumerated (or sampled) *)
  num_threshold : int;
      (** with a certified threshold pattern up to the cutoff; [All_1]:
          reaching All_1 from an input up to the cutoff *)
  num_reject_all : int;
      (** reject every checked input (threshold may exceed cutoff);
          [All_1]: reach All_1 from none of them *)
  num_aborted : int;
      (** verdict unknown: an exploration these protocols needed hit
          the node budget [max_configs]
          ({!Configgraph.Too_many_configs}; [All_1]: before an input
          reached All_1) *)
  best_eta : int;            (** largest threshold seen; [All_1]: [f(n)] *)
  best : Population.t option;
  histogram : (int * int) list;
      (** threshold value -> number of protocols; [All_1]: least input
          reaching All_1 -> number of protocols *)
  completed_chunks : int;    (** chunks finished, restored ones included *)
  total_chunks : int;
  interrupted : bool;
      (** the scan stopped early — a signal or [should_stop] fired; the
          aggregates cover only the completed chunks *)
  task_errors : int;         (** failed chunk attempts (see {!Pool.stats}) *)
}

val scan :
  ?analysis:analysis ->
  ?jobs:int ->
  ?chunk:int ->
  ?prune:bool ->
  ?max_input:int ->
  ?max_configs:int ->
  ?sample:int * int ->
  ?checkpoint:string ->
  ?checkpoint_every_chunks:int ->
  ?checkpoint_every_s:float ->
  ?resume:bool ->
  ?should_stop:(unit -> bool) ->
  ?on_task_error:Pool.error_policy ->
  n:int ->
  unit ->
  scan_result
(** [scan ~n ()] enumerates all [P^P · 2^n] protocols, where
    [P = n(n+1)/2] (transition assignments times output maps). With
    [~sample:(count, seed)] a uniform random sample is scanned instead —
    required in practice for [n >= 4]; sampled codes are drawn with a
    per-index split of the seed, so sample [i] is the same regardless of
    [jobs]/[chunk]. [?analysis] defaults to [Threshold].

    [?jobs] (default 1) domains share the scan; [?chunk] (default 1024)
    is the dynamic-scheduling granule: chunk [i] holds codes
    [\[i * chunk, min total ((i + 1) * chunk))]. Any setting of either
    produces byte-identical aggregates, and the chunk partition (so
    the checkpoint fingerprint) depends on [chunk] alone, so a ledger
    resumes at any [jobs]. [?prune] (default true) enables symmetry
    pruning: with it, [num_protocols] still counts the {e full} space
    (orbit-weighted), and [best] may be any member of the best orbit.
    The verifier explores packed configuration graphs whenever
    {!Configgraph.Packed.applicable} holds, which it always does here.
    Defaults: [max_input = 12], [max_configs = 60_000].

    {b Robustness.} [?max_configs] is the node budget of every
    exploration; codes whose verdict needs an over-budget exploration
    count into [num_aborted] (unknown verdict) instead of killing the
    scan, and which codes those are depends on the plan alone, not on
    the machine, [jobs] or [chunk]. [?on_task_error] (default [`Fail]) is
    the {!Pool.run} fault policy for unexpected per-chunk exceptions.
    [?should_stop] is a cancellation token polled between chunks;
    {!Obs.Shutdown.requested} is always polled alongside it, so a
    SIGINT/SIGTERM delivered inside {!Obs.Shutdown.with_graceful} drains
    the scan cleanly ([interrupted] is then set).

    {b Checkpoint/resume.} The scan runs on a {!with_ledger} ledger
    and returns {!result_of_chunks} of it. With [?checkpoint:path] the
    ledger is snapshotted to [path] (atomic tmp+rename) every
    [?checkpoint_every_chunks] (default 64) completed chunks or
    [?checkpoint_every_s] (default 30) seconds, whichever first, and on
    every exit path. With [~resume:true] an existing snapshot — this
    scan's or the distributed coordinator's — is loaded first:
    completed chunks are skipped, and the finished aggregate is
    byte-identical to an uninterrupted run, since chunk content depends
    only on the code index and the reduce is in chunk-index order.
    @raise Obs.Checkpoint.Mismatch when the snapshot's configuration
    fingerprint (n, cutoffs, chunk, sample seed/count, …) or chunk
    count differs, with a field-level diff.
    @raise Invalid_argument as {!with_ledger}. *)

(** {2 Range-addressed scanning}

    The distributed scan's entry points: a {!plan} pins the entire scan
    configuration (code space, cutoffs, pruning, sampling, chunk
    partition), {!scan_chunk} runs one chunk of it to a serialised
    accumulator, {!result_of_chunks} merges per-chunk accumulators
    — local or received over the wire — in index order, and
    {!with_ledger} is the ledger both scans keep them in. Two processes
    holding equal plans compute byte-identical accumulators for equal
    chunk indices, so a coordinator can hand chunk ranges to worker
    processes (fork or TCP), collect the JSON states, and reproduce the
    single-process [scan ~jobs:1] result byte for byte. {!scan} itself
    is built on the same functions. *)

type plan

val plan :
  ?analysis:analysis ->
  ?jobs:int ->
  ?chunk:int ->
  ?prune:bool ->
  ?max_input:int ->
  ?max_configs:int ->
  ?sample:int * int ->
  n:int ->
  unit ->
  plan
(** Same defaults as {!scan}. [jobs] has no effect on the plan: the
    partition is a function of the code space and [chunk] alone, and
    is computed, never stored; so are sampled codes ({!sample_code}).
    @raise Invalid_argument on a negative sample count or one above
    [Sys.max_array_length]. *)

val plan_config : plan -> Obs.Json.t
(** The canonical configuration object — what {!scan} fingerprints into
    checkpoints and what a coordinator sends to joining workers. Only
    an [All_1] plan has an ["analysis"] member (["all_1"]). *)

val plan_of_config : Obs.Json.t -> (plan, string) result
(** Rebuild a plan from {!plan_config} output: a worker process derives
    its entire scan — sample codes included — from the coordinator's
    welcome message, so the two cannot disagree. A configuration with a
    member the rebuilt plan's {!plan_config} does not write, or writes
    otherwise (an older build's ["eta_budget_s"], an unknown member, a
    ["chunk"] the plan clamps), is refused with an error naming those
    members; a [null] member reads as absent. *)

val plan_chunks : plan -> int
(** Number of chunks in the partition. *)

val plan_chunk_range : plan -> int -> int * int
(** [plan_chunk_range p ci] is the code-index range [\[lo, hi)] of
    chunk [ci]. *)

val scan_chunk : plan -> int -> Obs.Json.t
(** Run chunk [ci] from a fresh accumulator and serialise the result —
    deterministic: equal plans and indices give byte-equal JSON in any
    process. *)

val result_of_chunks :
  ?interrupted:bool ->
  ?task_errors:int ->
  plan ->
  Obs.Json.t option array ->
  scan_result
(** Merge one accumulator slot per chunk ([None] = chunk not run) in
    index order — the only merge: both {!scan} and the distributed
    coordinator call it on their ledger's [state]. With every slot
    filled by {!scan_chunk} output, the result equals the
    [scan ~jobs:1] result byte for byte; [completed_chunks] counts the
    filled slots.
    @raise Invalid_argument on a malformed accumulator or a slot-count
    mismatch. *)

val with_ledger :
  ?checkpoint:string ->
  ?every_chunks:int ->
  ?every_s:float ->
  ?resume:bool ->
  plan ->
  (Obs.Checkpoint.t -> Obs.Checkpoint.writer -> resumed:bool -> 'a) ->
  'a
(** [with_ledger plan f] runs [f] on the ledger of [plan]: the one
    open and flush path of {!scan} and the distributed coordinator. The
    ledger is the [checkpoint] file's — resumed, with [resumed] set,
    when [~resume:true] (default false) and the file exists — or a
    fresh one; without a file it lives in memory and its writer
    ([every_chunks], [every_s] as in {!Obs.Checkpoint.writer}) writes
    nothing. A resumed ledger holding a chunk state {!result_of_chunks}
    would refuse is refused before [f] runs and before the file is
    touched. [f] records each finished chunk with
    {!Obs.Checkpoint.note_done}; the final snapshot lands on every exit
    path, a failed write reported on stderr ("checkpoint write
    failed").
    @raise Obs.Checkpoint.Mismatch when another configuration or
    partition wrote the file.
    @raise Invalid_argument when the file is unreadable or malformed,
    naming the path (and the chunk, for a bad state). *)

val num_deterministic_protocols : int -> int
(** [P^P · 2^n] (may overflow for [n >= 5]; the busy beaver of
    enumeration itself). *)

val protocol_of_code :
  n:int -> assignment:int -> output_bits:int -> Population.t
(** Decode one point of the code space: [assignment] is a base-[P]
    number whose digit [i] names the target pair of ordered-pair [i];
    [output_bits] is the output bitmap ([bit s] set iff state [s] maps
    to true). This is the enumeration {!scan} walks. *)

val num_assignments : int -> int
(** [P^P], the number of transition assignments; each has [2^n] output
    maps. *)

val sample_code : n:int -> seed:int -> int -> int * int
(** [sample_code ~n ~seed i] is the [(assignment, output_bits)] code a
    [~sample:(count, seed)] scan draws [i]-th: it comes from the [i]-th
    split of the seed's stream ({!Splitmix64.nth_split}), so it depends
    on nothing else and costs O(1). *)

(** Per-assignment summaries, the unit the census explores. A code's
    configuration graphs depend on its transition assignment alone, so
    one {!Fair_semantics.summary} per (assignment, input) serves every
    output map: code [(a, o)]'s verdict on input [i] is
    [Fair_semantics.verdict_of_unions ~output:o] of [a]'s summary for
    [i]. A cache holds one assignment at a time and fills its inputs
    lazily, in the order they are asked for, so an input no code needs
    is never explored, and a code decided by {!constant} needs none.
    {!scan} keeps one cache per chunk, under either {!analysis}. Each
    summary counts into [bbsearch.summaries] inside a
    [bbsearch.summarise] span. *)
module Summaries : sig
  type t

  val create : ?max_configs:int -> n:int -> max_input:int -> unit -> t
  (** An empty cache for the [n]-state code space with the same defaults
      as {!scan}. *)

  val inputs : t -> int list
  (** The valid inputs up to [max_input], ascending: [2..max_input]. *)

  val constant : t -> assignment:int -> output_bits:int -> bool option
  (** [Some b] when [output_bits] maps every state [assignment] can
      cover ({!Transform.coverable_states}) to [b] and the node budget
      is at least [C(max_input + n - 1, n - 1)], the configurations of
      the largest input, so no exploration up to the cutoff could
      abort. Every reachable configuration is then a [b]-consensus:
      {!scan} reads [Decides b] on every input, so [false] is
      reject-all, and [true] is threshold 2 or All_1 at input 2,
      without a summary. [None] otherwise. Like {!get}, asking about
      another assignment empties the cache. *)

  val get : t -> assignment:int -> int -> Fair_semantics.summary option
  (** [get t ~assignment i] is the summary of [IC(i)] under
      [assignment], exploring it on first request; [None] when the
      exploration hit the node budget (remembered, so every output map
      of the assignment reads the same abort). Asking for another
      assignment empties the cache. *)
end

(** The symmetry group of the code space: state permutations fixing the
    input state 0 (isomorphic to [S_{n-1}]). Relabelling states by such
    a permutation yields an isomorphic protocol — same decided
    predicate, same threshold — so {!scan} only verifies the
    lexicographically least code of each orbit and scales its counts by
    the orbit size. *)
module Symmetry : sig
  type t

  val make : int -> t
  (** Precompute the group for [n] states (order [(n-1)!]). *)

  val order : t -> int

  val orbit : t -> assignment:int -> output_bits:int -> (int * int) list
  (** All distinct codes in the orbit, self included. *)

  val canonical : t -> assignment:int -> output_bits:int -> int * int
  (** Lexicographically least member of the orbit. *)

  val canonical_weight : t -> assignment:int -> output_bits:int -> int option
  (** [Some orbit_size] iff the code is its orbit's canonical member,
      [None] otherwise. Summing the weights over all canonical codes
      recovers the full code-space cardinality. *)
end
