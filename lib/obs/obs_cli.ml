open Cmdliner

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Record engine counters (steps, prunes, expansions, per-domain \
                 utilization, ...) and dump the registry snapshot to stderr on \
                 exit. Stdout is unaffected.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write nested timing spans to $(docv) in the Chrome \
                 trace-event format (open in chrome://tracing or Perfetto, \
                 or summarise with ppreport trace).")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Periodically export the live metric registry to $(docv): an \
                 atomic (tmp+rename) JSON snapshot, plus the Prometheus text \
                 format in the sibling .prom file. Implies metric recording; \
                 stdout stays byte-identical to an uninstrumented run. Watch \
                 it live with pptop.")

let metrics_every_arg =
  Arg.(value & opt float 5.0
       & info [ "metrics-every" ] ~docv:"SECONDS"
           ~doc:"Interval between live metric exports (with --metrics-out). \
                 Default 5s.")

let events_arg =
  Arg.(value & opt (some string) None
       & info [ "events" ] ~docv:"FILE"
           ~doc:"Append structured JSONL events (ppevents/v1) to $(docv): \
                 progress lines, checkpoint snapshots, pool chunk \
                 lease/complete/retry and task errors, budget trips and \
                 shutdown signals, each with monotonic+UTC timestamps, \
                 severity, domain and span correlation ids.")

let profile_arg =
  Arg.(value & opt (some string) None
       & info [ "profile" ] ~docv:"FILE"
           ~doc:"Charge every span's self time (its duration minus its \
                 children's) to its span path, per domain, and write the \
                 totals in microseconds as folded stacks (flamegraph.pl / \
                 speedscope format) to $(docv) on exit.")

let progress_arg =
  Arg.(value & flag
       & info [ "progress" ]
           ~doc:"Force throttled progress lines on stderr (at most one per \
                 second). Default: automatic when stderr is a TTY.")

let no_progress_arg =
  Arg.(value & flag & info [ "no-progress" ] ~doc:"Suppress progress lines.")

(* Open an instrumentation file before any work starts: a path that
   cannot be written ends the run with one line naming the flag. *)
let open_or_exit flag start = function
  | None -> ()
  | Some path -> (
    try start path
    with Sys_error e ->
      (* [e] is "<path>: <reason>" *)
      Printf.eprintf "%s: --%s: %s\n%!"
        (Filename.remove_extension (Filename.basename Sys.executable_name))
        flag e;
      exit 1)

let setup metrics trace metrics_out metrics_every events profile progress
    no_progress =
  (* arm clean shutdown in every binary: outside a graceful region a
     SIGINT/SIGTERM exits through Stdlib.exit, running the at_exit
     flushes registered below (metrics export, trace file, event log,
     profile) *)
  Obs.Shutdown.install ();
  open_or_exit "trace" (fun file ->
      Obs.Trace.start_file file;
      at_exit (fun () -> ignore (Obs.Trace.stop ())))
    trace;
  open_or_exit "events" (fun file ->
      Obs.Events.start_file file;
      (* at_exit runs LIFO: the signal record (if any) lands before the
         sink closes *)
      at_exit Obs.Events.stop;
      at_exit Obs.Shutdown.signal_event;
      Obs.Events.emit "run.start"
        ~data:[ ("argv", Obs.Json.String (String.concat " " (Array.to_list Sys.argv))) ])
    events;
  open_or_exit "profile" (fun file ->
      Obs.Trace.start_profile file;
      at_exit Obs.Trace.stop_profile)
    profile;
  if metrics || metrics_out <> None then Obs.Metrics.set_enabled true;
  if metrics then
    at_exit (fun () ->
        prerr_string (Obs.Metrics.to_text (Obs.Metrics.snapshot ()));
        flush stderr);
  (match metrics_out with
   | Some path ->
     let meta = Obs.Run_meta.collect () in
     Obs.Export.start ~meta ~every_s:metrics_every ~path ();
     at_exit Obs.Export.stop
   | None -> ());
  if no_progress then Obs.Progress.set_enabled false
  else if progress then Obs.Progress.set_enabled true
  else Obs.Progress.set_auto ()

let term =
  Term.(const setup $ metrics_arg $ trace_arg $ metrics_out_arg
        $ metrics_every_arg $ events_arg $ profile_arg $ progress_arg
        $ no_progress_arg)
