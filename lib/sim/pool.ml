type error_policy = [ `Fail | `Skip | `Retry of int ]

(* The chunk partition is arithmetic, a pure function of (tasks, chunk)
   — never of timing or of [jobs] — so the set of (chunk index, lo, hi)
   triples a run emits (lease/done events, accumulator slots) is
   deterministic and jobs-invariant, and index-ordered reduction over
   the slots equals the sequential left-to-right fold. Chunk [ci] holds
   indices [ci * chunk, min tasks ((ci + 1) * chunk)); nothing stores
   the ranges. *)
let num_chunks ~tasks ~chunk =
  let chunk = Stdlib.max 1 chunk in
  (* ceiling division that cannot overflow on a chunk near max_int *)
  (tasks / chunk) + if tasks mod chunk > 0 then 1 else 0

type failure = {
  chunk_index : int;
  error : exn;
  backtrace : Printexc.raw_backtrace;
}

type stats = {
  jobs : int;
  wall_s : float;
  chunks : int array;
  busy_s : float array;
  task_errors : int;
  failures : failure list;
  cancelled : bool;
}

let utilization s =
  let busy = Array.fold_left ( +. ) 0.0 s.busy_s in
  if s.wall_s > 0.0 then busy /. (float_of_int s.jobs *. s.wall_s) else 0.0

let publish name s =
  Array.iteri
    (fun w n ->
      Obs.Metrics.add (Obs.Metrics.counter (name ^ ".chunks")) n;
      Obs.Metrics.add
        (Obs.Metrics.counter (Printf.sprintf "%s.domain%d.chunks" name w))
        n;
      Obs.Metrics.set
        (Obs.Metrics.gauge (Printf.sprintf "%s.domain%d.busy_s" name w))
        s.busy_s.(w))
    s.chunks;
  (* registered lazily so fault-free runs keep their metric snapshots
     byte-identical to earlier releases *)
  if s.task_errors > 0 then
    Obs.Metrics.add (Obs.Metrics.counter (name ^ ".task_errors")) s.task_errors;
  if s.wall_s > 0.0 then
    Obs.Metrics.set (Obs.Metrics.gauge (name ^ ".utilization")) (utilization s)

(* Chunk lifecycle records for the structured event log. The set of
   lease/complete/error events depends only on the chunk partition (and
   the caller's deterministic [f]), so canonicalised event streams are
   jobs-invariant; only interleaving and timestamps move. [round] is
   [run_rounds]' round label ([None] under [run]). Guarded so an
   un-instrumented run pays one load per chunk. *)
let round_field = function
  | Some r -> [ ("round", Obs.Json.Int r) ]
  | None -> []

let lease_event ~name ~round ~ci ~lo ~hi =
  if Obs.Events.enabled () then
    Obs.Events.emit "pool.lease"
      ~data:
        ([ ("pool", Obs.Json.String name); ("chunk", Obs.Json.Int ci) ]
         @ round_field round
         @ [ ("lo", Obs.Json.Int lo); ("hi", Obs.Json.Int (hi - 1)) ])

let done_event ~name ~round ~ci =
  if Obs.Events.enabled () then
    Obs.Events.emit "pool.chunk_done"
      ~data:
        ([ ("pool", Obs.Json.String name); ("chunk", Obs.Json.Int ci) ]
         @ round_field round)

let error_event ~name ~ci e =
  if Obs.Events.enabled () then
    Obs.Events.emit ~severity:Error "pool.task_error"
      ~data:
        [
          ("pool", Obs.Json.String name);
          ("chunk", Obs.Json.Int ci);
          ("error", Obs.Json.String (Printexc.to_string e));
        ]

let retry_event ~name ~ci ~remaining =
  if Obs.Events.enabled () then
    Obs.Events.emit ~severity:Warn "pool.retry"
      ~data:
        [
          ("pool", Obs.Json.String name);
          ("chunk", Obs.Json.Int ci);
          ("remaining", Obs.Json.Int remaining);
        ]

(* The one fan-out engine behind [run] (one round) and [run_rounds]
   (iterated rounds). The [jobs - 1] helper domains are spawned once and
   persist across rounds behind one barrier; worker 0 is the calling
   domain, and only it calls [next], which yields the next round's
   label and task count ([None] to finish); every domain then claims
   chunks of that round off one shared counter and computes each
   claim's range.

   A task exception never leaves [run_chunk]: [policy] resolves it.
   Anything else a domain raises — the caller's [should_stop],
   [skip_chunk] and [on_chunk_done] callbacks, or [next] on worker 0 —
   cancels the batch. A helper records it and still reaches the
   barrier, so no round deadlocks; the original exception re-raises,
   with its backtrace, after every domain is joined. *)
let fan_out ~jobs ~chunk ~name ~policy ?should_stop ?skip_chunk ?on_chunk_done
    ~next f =
  let span = name ^ ".chunk" in
  let chunk = Stdlib.max 1 chunk in
  let retries = match policy with `Retry n -> Stdlib.max 0 n | _ -> 0 in
  (* the open round, written by worker 0 under [mutex] before it wakes
     the helpers, so they read it after the barrier *)
  let label = ref None and tasks = ref 0 and chunks = ref 0 in
  let next_ci = Atomic.make 0 in
  (* Cancellation token: set by the first [`Fail] failure, by an
     escaping exception, or when [should_stop] fires. Every worker stops
     claiming chunks once it is up and no further round opens;
     in-flight chunks drain normally. *)
  let cancelled = Atomic.make false in
  let task_errors = Atomic.make 0 in
  (* First-failure-wins under [`Fail]: the failure in the lowest-indexed
     chunk that actually ran is the one re-raised, independent of which
     domain observed its failure first. No round opens after a failure,
     so every candidate belongs to the same round. *)
  let first_failure = Atomic.make None in
  let rec record_first fail =
    let cur = Atomic.get first_failure in
    match cur with
    | Some f when f.chunk_index <= fail.chunk_index -> ()
    | _ ->
      if not (Atomic.compare_and_set first_failure cur (Some fail)) then
        record_first fail
  in
  let escaped = Atomic.make None in
  let failures_lock = Mutex.create () in
  let failures = ref [] in
  (* Per-worker accounting: slot [w] is written only by worker [w] and
     read after the joins, so plain arrays suffice. Busy time is the
     monotonic-clock time spent inside claimed chunks; the gap to the
     batch wall-clock is scheduling idleness. *)
  let chunks_claimed = Array.make jobs 0 in
  let busy_ns = Array.make jobs 0L in
  let stop_requested () =
    Atomic.get cancelled
    ||
    match should_stop with
    | Some s when s () ->
      Atomic.set cancelled true;
      true
    | _ -> false
  in
  let run_chunk w ci =
    let lo = ci * chunk and round = !label in
    let hi = lo + Stdlib.min chunk (!tasks - lo) in
    let c0_ns = Obs.Clock.now_ns () in
    lease_event ~name ~round ~ci ~lo ~hi;
    let args =
      (match round with Some r -> [ ("round", string_of_int r) ] | None -> [])
      @ [ ("chunk", string_of_int ci); ("lo", string_of_int lo);
          ("hi", string_of_int (hi - 1)) ]
    in
    let rec attempt remaining =
      match
        Obs.Trace.with_span span ~cat:"pool" ~args (fun () -> f ~lo ~hi)
      with
      | () ->
        done_event ~name ~round ~ci;
        Option.iter (fun g -> g ci) on_chunk_done
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Atomic.incr task_errors;
        error_event ~name ~ci e;
        let fail = { chunk_index = ci; error = e; backtrace = bt } in
        (match policy with
         | `Fail ->
           record_first fail;
           Atomic.set cancelled true
         | `Skip | `Retry _ ->
           if remaining > 0 then begin
             retry_event ~name ~ci ~remaining;
             attempt (remaining - 1)
           end
           else begin
             Mutex.lock failures_lock;
             failures := fail :: !failures;
             Mutex.unlock failures_lock
           end)
    in
    attempt retries;
    chunks_claimed.(w) <- chunks_claimed.(w) + 1;
    busy_ns.(w) <- Int64.add busy_ns.(w) (Int64.sub (Obs.Clock.now_ns ()) c0_ns)
  in
  (* Dynamic self-scheduling off the shared counter, so long chunks
     don't leave the other domains idle. The caller's [f] must confine
     its writes to state owned by the claimed range; the barrier and
     the joins publish them to the caller. Skipped chunks are neither
     run nor counted. *)
  let rec claim w =
    if not (stop_requested ()) then begin
      let ci = Atomic.fetch_and_add next_ci 1 in
      if ci < !chunks then begin
        if not (match skip_chunk with Some g -> g ci | None -> false) then
          run_chunk w ci;
        claim w
      end
    end
  in
  (* The barrier, all under [mutex]: [opened] counts rounds opened so
     far, [finished] the helpers done with the open one. *)
  let mutex = Mutex.create () and cond = Condition.create () in
  let opened = ref 0 and finished = ref 0 and shutdown = ref false in
  let helper w =
    let rec await seen =
      Mutex.lock mutex;
      while (not !shutdown) && !opened = seen do
        Condition.wait cond mutex
      done;
      let seen = !opened and stop = !shutdown in
      Mutex.unlock mutex;
      if not stop then begin
        (try claim w
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set escaped None (Some (e, bt)));
           Atomic.set cancelled true);
        Mutex.lock mutex;
        incr finished;
        Condition.broadcast cond;
        Mutex.unlock mutex;
        await seen
      end
    in
    await 0
  in
  let rec drive () =
    if not (Atomic.get cancelled) then
      match next () with
      | None -> ()
      | Some (l, t) ->
        Mutex.lock mutex;
        label := l;
        tasks := t;
        chunks := num_chunks ~tasks:t ~chunk;
        Atomic.set next_ci 0;
        finished := 0;
        incr opened;
        Condition.broadcast cond;
        Mutex.unlock mutex;
        claim 0;
        Mutex.lock mutex;
        while !finished < jobs - 1 do
          Condition.wait cond mutex
        done;
        Mutex.unlock mutex;
        drive ()
  in
  let t0 = Obs.Clock.now_ns () in
  let pool =
    List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> helper (i + 1)))
  in
  let join_all () =
    Mutex.lock mutex;
    shutdown := true;
    Condition.broadcast cond;
    Mutex.unlock mutex;
    List.iter Domain.join pool
  in
  (match drive () with
   | () -> join_all ()
   | exception e ->
     let bt = Printexc.get_raw_backtrace () in
     Atomic.set cancelled true;
     join_all ();
     Printexc.raise_with_backtrace e bt);
  Option.iter
    (fun (e, bt) -> Printexc.raise_with_backtrace e bt)
    (Atomic.get escaped);
  let stats =
    {
      jobs;
      wall_s = Obs.Clock.elapsed_s t0;
      chunks = chunks_claimed;
      busy_s = Array.map Obs.Clock.ns_to_s busy_ns;
      task_errors = Atomic.get task_errors;
      failures =
        List.sort
          (fun a b -> Stdlib.compare a.chunk_index b.chunk_index)
          !failures;
      cancelled = Atomic.get cancelled;
    }
  in
  if Obs.Metrics.enabled () then publish name stats;
  match Atomic.get first_failure with
  | Some fail -> Printexc.raise_with_backtrace fail.error fail.backtrace
  | None -> stats

let run ?(jobs = 1) ?(chunk = 1) ?(name = "pool") ?(on_task_error = `Fail)
    ?should_stop ?skip_chunk ?on_chunk_done ~tasks f =
  if tasks < 0 then invalid_arg "Pool.run: tasks >= 0 required";
  let jobs = Stdlib.max 1 (Stdlib.min jobs tasks) in
  let round = ref (Some (None, tasks)) in
  let next () =
    let r = !round in
    round := None;
    r
  in
  fan_out ~jobs ~chunk ~name ~policy:on_task_error ?should_stop ?skip_chunk
    ?on_chunk_done ~next f

let run_rounds ?(jobs = 1) ?(chunk = 1) ?(name = "pool") ~next f =
  let label = ref (-1) in
  let next () =
    match next () with
    | None -> None
    | Some tasks ->
      if tasks < 0 then invalid_arg "Pool.run_rounds: tasks >= 0 required";
      incr label;
      Some (Some !label, tasks)
  in
  fan_out ~jobs:(Stdlib.max 1 jobs) ~chunk ~name ~policy:`Fail ~next f
