(* A worker's entire scan comes from the coordinator's config bytes —
   see Dist.Worker. *)
let worker_runner config =
  match Busy_beaver.plan_of_config config with
  | Ok plan ->
    Ok
      {
        Dist.Worker.scan = Busy_beaver.scan_chunk plan;
        chunks = Busy_beaver.plan_chunks plan;
        range = Some (Busy_beaver.plan_chunk_range plan);
      }
  | Error e -> Error e

(* Writing to a worker that died between select rounds must surface as
   EPIPE (handled), not kill the process. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

type outcome = {
  result : Busy_beaver.scan_result;
  stats : Dist.Coordinator.stats;
}

let m_restarts = Obs.Metrics.counter "coordinator.restarts"

(* The coordinator's step on top of the shared ledger: bump the epoch
   and persist it *before* any grant goes out, so grants of a previous
   (crashed) coordinator can never be mistaken for this run's. A failed
   write is swallowed like any snapshot's, and [with_ledger]'s final
   flush reports it: a later life that cannot tell this life's grants
   from its own still merges the same bytes, since chunk content
   depends only on (plan, index). A resumed ledger leaves an
   events/metrics trail: [coordinator.restarts] counts prior lives
   (epoch - 1 on adoption) and a [dist.recovery] record says what the
   ledger held. *)
let adopt ?checkpoint ledger ~resumed =
  let epoch = Obs.Checkpoint.bump_epoch ledger in
  (match checkpoint with
   | None -> ()
   | Some path ->
     (try Obs.Checkpoint.save ~path ledger with Sys_error _ -> ());
     if resumed then begin
       Obs.Metrics.add m_restarts (epoch - 1);
       if Obs.Events.enabled () then
         Obs.Events.emit "dist.recovery"
           ~data:
             [
               ("path", Obs.Json.String path);
               ("epoch", Obs.Json.Int epoch);
               ("done_chunks", Obs.Json.Int (Obs.Checkpoint.num_done ledger));
               ("total_chunks", Obs.Json.Int ledger.Obs.Checkpoint.total_chunks);
             ]
     end);
  epoch

(* Chaos stream numbering keeps both endpoints of every connection on
   independent Splitmix64 substreams of the same seed: the coordinator
   numbers its streams by accept order (0, 1, 2, ...), forked children
   take 10000+idx, TCP workers 20000+session. *)
let child_chaos ~chaos_net ~idx =
  match chaos_net with
  | None -> None
  | Some spec -> Some (Dist.Chaos.create spec ~conn:(10_000 + idx))

let child_main ~idx ~chaos_kill ~chaos_net ~heartbeat_timeout ~fd =
  (* the inherited trace/events/export channels (buffers included)
     belong to the parent — recording from here would interleave
     garbage into its files. Detach, don't stop: stop would close the
     parent's fds. The worker's own telemetry restarts from the
     Welcome when the coordinator asks for it. *)
  Obs.Trace.detach ();
  Obs.Events.detach ();
  Obs.Export.detach ();
  let kills =
    match chaos_kill with Some (w, k) when w = idx -> Some k | _ -> None
  in
  let count = ref 0 in
  let on_chunk_done _ =
    incr count;
    match kills with
    | Some k when !count >= k -> Unix.kill (Unix.getpid ()) Sys.sigkill
    | _ -> ()
  in
  let name = Printf.sprintf "fork%d-%d" idx (Unix.getpid ()) in
  (* cadence scales with the coordinator's expiry horizon (identical to
     the old fixed 2s/5s at the default 10s timeout): grants are gated
     on beat freshness, so a child must beat well inside the timeout,
     and a lost Welcome must be retried before the scan gives up on
     it *)
  let heartbeat_every = Float.min 2.0 (heartbeat_timeout /. 4.0) in
  let welcome_timeout =
    Float.min 5.0 (Float.max 0.25 (heartbeat_timeout /. 2.0))
  in
  let fail e =
    (* stderr only: the child shares the parent's stdout buffers, and
       [_exit] below is what keeps those from double-flushing *)
    output_string stderr (Printf.sprintf "bbsearch worker %s: %s\n" name e);
    flush stderr;
    Unix._exit 1
  in
  (* nothing may escape: the child was forked inside the parent's
     [with_ledger], whose final snapshot is the parent's to write *)
  match
    Dist.Worker.run ~heartbeat_every ~welcome_timeout
      ?chaos:(child_chaos ~chaos_net ~idx) ~on_chunk_done ~name ~fd
      ~runner:worker_runner ()
  with
  | Ok () -> Unix._exit 0
  | Error e -> fail e
  | exception e -> fail (Printexc.to_string e)

let coordinate ?(workers = 0) ?serve ?(heartbeat_timeout = 10.0) ?checkpoint
    ?(checkpoint_every_chunks = 64) ?(checkpoint_every_s = 30.0)
    ?(resume = false) ?should_stop ?chaos_kill ?chaos_net ?telemetry ~plan () =
  if workers < 0 then invalid_arg "Distributed_scan.coordinate: workers >= 0";
  if workers = 0 && serve = None then
    invalid_arg "Distributed_scan.coordinate: no worker source (workers=0, no serve)";
  ignore_sigpipe ();
  let num_chunks = Busy_beaver.plan_chunks plan in
  let config_json = Busy_beaver.plan_config plan in
  Busy_beaver.with_ledger ?checkpoint ~every_chunks:checkpoint_every_chunks
    ~every_s:checkpoint_every_s ~resume plan
  @@ fun ledger w ~resumed ->
  let epoch = adopt ?checkpoint ledger ~resumed in
  (* socketpairs before any fork, so each child can close every end it
     does not own *)
  let pairs =
    Array.init workers (fun _ ->
        Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  let fork_or_explain () =
    try Unix.fork ()
    with Failure msg when workers > 0 ->
      (* OCaml 5 forbids fork once any domain was ever spawned — e.g. a
         prior [Busy_beaver.scan ~jobs:(>1)] in this same process *)
      invalid_arg
        (Printf.sprintf
           "Distributed_scan: cannot fork workers (%s); a domain was \
            already spawned in this process (e.g. an earlier --jobs \
            scan) — fork first, or use --serve with external \
            --connect workers"
           msg)
  in
  let pids =
    Array.mapi
      (fun i (_parent_fd, child_fd) ->
        match fork_or_explain () with
        | 0 ->
          (* the parent has already closed the child ends of earlier
             workers, so some of these fds are gone — EBADF is fine *)
          let close_quiet fd =
            try Unix.close fd with Unix.Unix_error _ -> ()
          in
          Array.iteri
            (fun j (p, c) ->
              close_quiet p;
              if j <> i then close_quiet c)
            pairs;
          (match serve with Some fd -> close_quiet fd | None -> ());
          child_main ~idx:i ~chaos_kill ~chaos_net ~heartbeat_timeout
            ~fd:child_fd
        | pid ->
          Unix.close child_fd;
          pid)
      pairs
  in
  let stop_requested () =
    Obs.Shutdown.requested ()
    || (match should_stop with Some f -> f () | None -> false)
  in
  let stats =
    Fun.protect
      ~finally:(fun () ->
        (* reap every forked child — the chaos-killed one included —
           before the ledger's final snapshot *)
        Array.iter
          (fun pid ->
            try ignore (Unix.waitpid [] pid)
            with Unix.Unix_error _ -> ())
          pids)
      (fun () ->
        Obs.Export.set_identity [ ("role", "coordinator") ];
        Obs.Trace.with_span "bbsearch.coordinate" ~cat:"dist"
          ~args:
            [
              ("workers", string_of_int workers);
              ("chunks", string_of_int num_chunks);
            ]
          (fun () ->
            Dist.Coordinator.run ?accept:serve
              ~fds:(Array.to_list (Array.map fst pairs))
              ~heartbeat_timeout ?chaos:chaos_net
              ~should_stop:stop_requested ?telemetry ~config:config_json
              ~config_hash:(Obs.Checkpoint.hash_config config_json)
              ~epoch ~total_chunks:num_chunks
              ~completed:(Obs.Checkpoint.is_done ledger)
              ~on_result:(fun ~chunk state ->
                Obs.Checkpoint.note_done w chunk state)
              ()))
  in
  let result =
    Busy_beaver.result_of_chunks
      ~interrupted:stats.Dist.Coordinator.interrupted plan
      ledger.Obs.Checkpoint.state
  in
  { result; stats }

let resolve host port =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
        invalid_arg (Printf.sprintf "Distributed_scan: cannot resolve %s" host)
      | { Unix.h_addr_list; _ } -> h_addr_list.(0)
      | exception Not_found ->
        invalid_arg (Printf.sprintf "Distributed_scan: cannot resolve %s" host))
  in
  Unix.ADDR_INET (addr, port)

let listen ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (resolve host port);
  Unix.listen fd 16;
  fd

let connect_worker ?name ?heartbeat_every ?chaos_kill ?chaos_net ?max_attempts
    ?backoff_base ~host ~port () =
  ignore_sigpipe ();
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "%s-%d" (Unix.gethostname ()) (Unix.getpid ())
  in
  Obs.Export.set_identity [ ("role", "worker"); ("worker", name) ];
  let count = ref 0 in
  let on_chunk_done _ =
    incr count;
    match chaos_kill with
    | Some k when !count >= k -> Unix.kill (Unix.getpid ()) Sys.sigkill
    | _ -> ()
  in
  let connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd (resolve host port) with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s:%d: %s" host port
           (Unix.error_message e))
    | () -> Ok fd
  in
  (* the session layer owns the fds; the chunk cache rides across
     sessions so a Result lost to a dying connection is resent, not
     recomputed, once the redial's rejoin handshake lands *)
  Dist.Worker.run_reconnect ?heartbeat_every ?max_attempts ?backoff_base
    ~jitter_seed:(Hashtbl.hash (host, port))
    ?chaos_for:
      (Option.map
         (fun spec session ->
           Some (Dist.Chaos.create spec ~conn:(20_000 + session)))
         chaos_net)
    ~on_chunk_done ~name ~connect ~runner:worker_runner ()
