(** Offline analytics over a recorded {!Trace} file: per-phase
    self/total time, per-domain utilization timelines, the critical
    path through the span forest, and fan-out (pool chunk) straggler
    detection. This is the half of observability that *interprets* —
    [ppreport trace FILE] renders a report without loading the trace
    into an external viewer.

    Span nesting comes from the [sid]/[parent] ids every span records;
    a span with no children has self time equal to its total time. *)

type span = {
  name : string;
  cat : string;
  ts_us : float;
  dur_us : float;
  tid : int;
  sid : int;
  parent : int;
  args : (string * string) list;
}

type phase = {
  ph_name : string;
  ph_count : int;
  ph_total_s : float;
  ph_self_s : float;   (** total minus direct children, clamped at 0 *)
  ph_max_s : float;
}

type domain_row = {
  d_tid : int;
  d_spans : int;
  d_busy_s : float;    (** sum of root-span durations on this domain *)
  d_util : float;      (** busy / wall *)
  d_timeline : float list;  (** bucketed utilization in [0,1] *)
}

type path_step = {
  p_name : string;
  p_tid : int;
  p_dur_s : float;
  p_self_s : float;
}

type chunk_group = {
  g_section : string;  (** span name, [".chunk"] suffix stripped *)
  g_count : int;
  g_median_s : float;
  g_p99_s : float;
  g_max_s : float;
  g_straggler : bool;  (** max exceeds twice the median *)
  g_worst : (string * float) list;
      (** up to 3 slowest members, labelled by chunk index (or task
          range) and duration *)
  g_sized : bool;
      (** every member span carries a task range ([lo]/[hi] args), so
          the per-task columns below are meaningful *)
  g_size_spread : float;
      (** largest member task count over smallest — 1.0 when every
          chunk is full, > 1 with a short last chunk or a round smaller
          than its chunk *)
  g_task_median_s : float;  (** median of duration / task count *)
  g_task_max_s : float;
  g_task_straggler : bool;
      (** straggler {e after} normalising by chunk size: per-task max
          exceeds twice the per-task median. A section
          straggling raw but not per-task has uneven chunk sizes;
          straggling per-task is genuinely slow work *)
}

type report = {
  source : string;
  wall_s : float;
  span_count : int;
  instant_count : int;
  domain_count : int;
  total_busy_s : float;
  parallelism : float;     (** busy / wall *)
  phases : phase list;     (** sorted by self time, descending *)
  domains : domain_row list;
  critical_path : path_step list;  (** outermost first *)
  chunk_groups : chunk_group list;
}

val spans_of_json : Json.t -> (span list * int, string) result
(** Extract complete spans (and count instants) from a Chrome
    trace-event array; unknown event kinds are skipped, and a field an
    event lacks or mistypes reads as its default (0, [""], no args). *)

val percentile : float array -> float -> float
(** [percentile sorted q] is the nearest-rank [q]-quantile of an
    ascending array: the element of rank [ceil (q * n)], so it is always
    a sample that occurred; [0.0] on an empty array. *)

val analyse : ?source:string -> span list * int -> report
(** Pure analysis (deterministic for a given trace), with 48 timeline
    buckets per domain. Span and parent ids come
    from the file: the critical path expands each id once, so a span
    that names itself (or a cycle) as its parent ends it. *)

val load : string -> (report, string) result
(** Read, parse and analyse a trace file. *)

val to_markdown : report -> string
(** Render the report as GitHub-flavoured markdown tables; timelines
    use the {!History.sparkline} glyphs. Deterministic. *)

val to_json : report -> Json.t
(** Machine-readable rendering ([pptrace-report/v1]) so CI can archive
    the report next to the bench ledger. *)
