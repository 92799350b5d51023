(** Crash-safe checkpoint/resume ledgers for chunked scans.

    A ledger records, for one fixed chunk partition of a scan's task
    space, which chunks have completed and an opaque JSON blob of
    accumulator state per completed chunk, plus a hash of the scan
    configuration (everything that affects the partition or the
    per-chunk content — including the RNG scheme for sampled scans).
    It is the one per-chunk store of a scan: the scan records every
    finished chunk in it and merges the ledger at the end, whether it
    lives in a file or only in memory.
    Snapshots are written with the tmp+rename pattern, so a crash
    mid-write can never corrupt the previous snapshot; a resumed scan
    skips the completed chunks, merges their stored accumulators and —
    when per-chunk work is index-deterministic — reproduces the
    uninterrupted aggregate byte for byte.

    The ledger also carries an {e epoch} counter, bumped every time a
    distributed coordinator takes the ledger over, so results from
    workers granted in a previous life are recognisably stale. Who
    holds which chunk is not recorded: a chunk not marked done is
    granted afresh by the next coordinator.

    File format: one [ppcheckpoint/v2] JSON object per file, the only
    schema {!of_json} accepts. *)

type t = {
  config_hash : string;
  config : Json.t;  (** the hashed configuration, kept readable *)
  total_chunks : int;
  state : Json.t option array;  (** slot per chunk; [Some] = completed *)
  mutable epoch : int;  (** coordinator take-over counter *)
}

val schema : string
(** ["ppcheckpoint/v2"]. *)

val hash_config : Json.t -> string
(** Hex digest of the canonical rendering of a configuration object. *)

val create : config:Json.t -> total_chunks:int -> t
(** A fresh checkpoint with no completed chunks. *)

val mark_done : t -> int -> Json.t -> unit
(** Record chunk [i] as completed with the given accumulator state. *)

val is_done : t -> int -> bool
val chunk_state : t -> int -> Json.t option
val num_done : t -> int

val epoch : t -> int

val bump_epoch : t -> int
(** Increment the epoch — a coordinator does this once when it adopts
    the ledger — and return the new value. *)

(** {2 Configuration mismatch}

    A snapshot only resumes the scan configuration that wrote it. When
    the fingerprints differ, callers raise {!Mismatch} carrying a
    field-by-field diff so the user learns {e which} flag changed
    instead of staring at two hashes. *)

type field_diff = {
  field : string;
  expected : string option;  (** in the running scan's configuration *)
  found : string option;  (** in the snapshot on disk *)
}

exception Mismatch of { path : string; diff : field_diff list }

val config_diff : expected:Json.t -> found:Json.t -> field_diff list
(** Top-level field diff of two configuration objects (equal fields
    omitted; non-object configurations degrade to one whole-value
    entry). Empty means the objects are equal — or differ only in ways
    invisible at the top level. *)

val mismatch_message : path:string -> field_diff list -> string
(** Human-readable rendering, one line per differing field. Also
    installed as the [Printexc] printer for {!Mismatch}. *)

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** Every field {!to_json} writes is required; any other member (such
    as the [leases] list older builds wrote) is skipped. [Error] names
    an unknown schema, a missing field, or a [total_chunks] or chunk
    index out of range; it never raises. The result is sized by
    [total_chunks], so a reader of outside bytes compares that count
    with its own first, as {!open_or_resume} does. *)

val save : path:string -> t -> unit
(** Atomic tmp+rename write of the snapshot.
    @raise Sys_error when the write fails. *)

val load : string -> (t, string) result

val open_or_resume :
  path:string -> resume:bool -> config:Json.t -> total_chunks:int -> t * bool
(** The ledger a chunked scan runs on. With [~resume:true] and a file at
    [path], the snapshot loaded from it, paired with [true]; otherwise a
    fresh {!create}, paired with [false]. A snapshot only resumes the
    configuration and partition that wrote it: its configuration hash
    and chunk count are compared with the run's before anything sized
    by the count is allocated.
    @raise Mismatch with the field-level diff when the snapshot's
    configuration hash or chunk count differs; a count that differs
    is listed as [total_chunks].
    @raise Invalid_argument when the file is unreadable or malformed. *)

(** A throttled, thread-safe writer: workers report completed chunks
    from any domain; a snapshot is written every [every_chunks]
    completions or [every_s] seconds, whichever comes first, and on
    {!flush}. Write failures (full disk, yanked directory) are swallowed
    in {!note_done} — a failing checkpoint must not kill the scan — and
    surface only in {!flush}. Without a [path] the ledger lives in
    memory only: {!note_done} records the chunk and nothing is ever
    written. *)
type writer

val writer : ?every_chunks:int -> ?every_s:float -> ?path:string -> t -> writer
(** Defaults: [every_chunks = 64], [every_s = 30.0]. *)

val note_done : writer -> int -> Json.t -> unit
(** [note_done w i state] marks chunk [i] completed and snapshots the
    file if a threshold was crossed. Safe to call concurrently. *)

val flush : writer -> unit
(** Write a snapshot now (the final bitmap after a drain); a no-op
    without a path. *)
