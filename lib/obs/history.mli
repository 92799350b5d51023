(** Run records ([ppbench/v2]) and the append-only JSONL ledger they
    accumulate in, plus the cross-run series helpers [ppreport] renders.

    A {!run} is what [bench/main.exe --json] writes: optional
    provenance {!Run_meta.t}, per-section wall-clock and metric diffs,
    and the bechamel timing table. The ledger is one run per line in
    [<dir>/runs.jsonl]; appending never rewrites earlier lines, so a
    crashed run cannot corrupt history. *)

type section = { wall_s : float; metrics : Metrics.snapshot }

type run = {
  meta : Run_meta.t option;
      (** provenance; absent from synthetic runs such as {!median_run} *)
  sections : (string * section) list;
  timings : (string * float) list;  (** bechamel name, ns/run *)
}

val run_to_json : run -> Json.t
val run_of_json : Json.t -> (run, string) result
(** Accepts only [ppbench/v2]; [Error] names any other schema. *)

val parse_run : string -> (run, string) result
val load_file : string -> (run, string) result

val ledger_file : string -> string
(** [ledger_file dir] is [dir ^ "/runs.jsonl"]. *)

val append : dir:string -> run -> unit
(** Append one JSONL line to [ledger_file dir], creating [dir] first. *)

val load_ledger : string -> (run list * int, string) result
(** All parseable runs in the ledger, oldest first, plus the number of
    malformed lines skipped. Blank lines are ignored silently; a
    truncated or corrupted line (e.g. from a crash mid-append) is
    skipped and counted, so one bad shutdown can never make the whole
    history unreadable. [Error] only when the file itself cannot be
    read. *)

val median_run : run list -> (run, string) result
(** A synthetic baseline: per section and metric, the lower median of
    the observed values (so counters stay integers a run really
    produced). Sections and metric names are taken from the newest
    run. [Error] on an empty list. *)

val sparkline : float list -> string
(** Eight-level Unicode block rendering, scaled to the series range. *)

val render_history : ?markdown:bool -> ?sections:string list -> run list -> string
(** Per-section wall-clock series with sparklines, plus which counters
    drift across runs (the deterministic ones are summarized). With
    [markdown], a table ready for EXPERIMENTS.md. *)
