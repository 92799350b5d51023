(** Cmdliner glue shared by every binary: the [--metrics], [--trace],
    [--metrics-out FILE]/[--metrics-every S], [--events FILE],
    [--profile FILE] and [--progress]/[--no-progress] flags and their
    side effects. *)

val term : unit Cmdliner.Term.t
(** Splice [$ Obs_cli.term] as the last argument of a command's term
    (the handler takes a trailing [unit]). Evaluating it opens the
    [--trace], [--events] and [--profile] files before anything else
    starts; one that cannot be opened ends the process with exit 1 and
    one stderr line naming the flag and the path. Then:

    - [--metrics]: enables {!Obs.Metrics} recording and registers an
      [at_exit] dump of the registry snapshot to stderr, so stdout
      stays byte-identical to an uninstrumented run;
    - [--metrics-out FILE]: enables recording and starts the
      {!Obs.Export} periodic writer — atomic JSON snapshots at FILE
      plus Prometheus text in the sibling [.prom] file, every
      [--metrics-every] seconds (default 5), finalised at exit — so a
      long scan can be watched ([pptop FILE]) or scraped mid-flight;
    - [--trace FILE]: starts a {!Obs.Trace} file sink, finalised at
      exit into a Chrome-trace-event JSON file (summarise with
      [ppreport trace FILE]);
    - [--events FILE]: starts the {!Obs.Events} JSONL log
      ([ppevents/v1]) — progress, checkpoint, pool, budget and
      shutdown records with span correlation ids; a
      ["shutdown.signal"] record is appended from an [at_exit] hook
      when a SIGINT/SIGTERM interrupted the run, before the sink
      closes;
    - [--profile FILE]: starts an {!Obs.Trace} profile, which charges
      every span's self time to its span path, and writes its folded
      stacks at exit (microseconds of self time per path);
    - progress lines ({!Obs.Progress}) default to automatic TTY
      detection; [--progress] forces them on, [--no-progress] off. *)
