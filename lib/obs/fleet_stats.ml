(* Offline analytics over a *merged* ppevents log — the file a
   coordinator writes when workers stream their telemetry up: its own
   dist.* records interleaved with forwarded, offset-aligned,
   worker-tagged records. One pass groups everything by worker, then
   the existing Trace_stats machinery (fed synthetic spans built from
   worker.chunk records, one tid per worker) does the utilization
   timelines and chunk-normalised straggler detection. *)

type worker_row = {
  w_name : string;
  w_host : string;
  w_pid : int;
  w_chunks : int;  (** worker.chunk records attributed to it *)
  w_busy_s : float;
  w_util : float;
  w_timeline : float list;
  w_lease_count : int;  (** chunk_done records matched to a lease *)
  w_lease_median_s : float;
  w_lease_p99_s : float;
  w_lease_max_s : float;
  w_lost : int;  (** dist.worker_lost records naming it *)
}

type entry = { c_ts_s : float; c_ev : string; c_detail : string }

type report = {
  source : string;
  wall_s : float;
  total_events : int;
  skipped : int;
  rejoins : int;  (** dist.worker_rejoin records *)
  expired_leases : int;  (** dist.lease_expired records *)
  corrupt_frames : int;  (** frames tallied by dist.corrupt_frames *)
  reconnects : int;  (** worker-side dist.reconnect records *)
  restarts : int;  (** coordinator lives minus one (dist.recovery) *)
  workers : worker_row list;
  chronology : entry list;
  fanout : Trace_stats.chunk_group list;
}

let schema = "ppfleet-report/v1"

(* ------------------------------------------------------------ parsing *)

type acc = {
  mutable order : string list;  (** first-seen order, reversed *)
  hosts : (string, string * int) Hashtbl.t;  (** worker -> host, pid *)
  chunks : (string, int) Hashtbl.t;
  lost : (string, int) Hashtbl.t;
  mutable grants : (int * int * float * string) list;
      (** newest first: lo, hi (exclusive), grant ts, worker *)
  lease_lat : (string, float list) Hashtbl.t;
  mutable spans : Trace_stats.span list;
  mutable chron : entry list;
  mutable t_min : float;
  mutable t_max : float;
  mutable total : int;
  mutable skipped : int;
  mutable next_sid : int;
  mutable rejoins : int;
  mutable expired : int;
  mutable corrupt : int;
  mutable reconnects : int;
  mutable restarts : int;
}

let note_worker a name =
  if not (List.mem name a.order) then a.order <- name :: a.order

let worker_tid a name =
  (* tid = position in first-seen order; stable across the pass *)
  let rec idx i = function
    | [] -> 0
    | n :: _ when n = name -> i
    | _ :: rest -> idx (i + 1) rest
  in
  idx 0 (List.rev a.order)

let bump tbl k n =
  Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let span_time a ts =
  if ts < a.t_min then a.t_min <- ts;
  if ts > a.t_max then a.t_max <- ts

(* The worker a record belongs to: forwarded records carry a top-level
   ["worker"] tag (added by the coordinator's realignment); the
   coordinator's own dist.* records name the subject worker inside
   [data]. *)
let record_worker j data =
  let open Json.Decode in
  match field "worker" string j with
  | Ok w -> Some w
  | Error _ -> Result.to_option (field "worker" string data)

let chron a ~ts ~ev detail =
  a.chron <- { c_ts_s = ts; c_ev = ev; c_detail = detail } :: a.chron

(* An event log is display-only input: a field a record lacks or
   mistypes reads as its default ("?", 0, ...), or drops the record
   from the tallies that need it. *)
let ingest_record a j =
  let open Json.Decode in
  let data = field_or "data" Result.ok ~default:Json.Null j in
  let ts = field_or "ts_s" number ~default:0.0 j in
  span_time a ts;
  let worker = record_worker j data in
  (match worker with Some w -> note_worker a w | None -> ());
  let who = Option.value ~default:"?" worker in
  match field_or "ev" string ~default:"" j with
  | "dist.worker_join" -> (
      match worker with
      | None -> ()
      | Some w ->
          let host = field_or "host" string ~default:"" data in
          Hashtbl.replace a.hosts w (host, field_or "pid" int ~default:0 data);
          chron a ~ts ~ev:"join"
            (if host = "" then w else Printf.sprintf "%s @ %s" w host))
  | "dist.lease" -> (
      match (worker, field "lo_chunk" int data, field "hi_chunk" int data) with
      | Some w, Ok lo, Ok hi -> a.grants <- (lo, hi, ts, w) :: a.grants
      | _ -> ())
  | "dist.chunk_done" -> (
      match (worker, field "chunk" int data) with
      | Some w, Ok chunk -> (
          (* the newest grant covering the chunk holds its lease; a
             range is looked up, never enumerated *)
          match
            List.find_opt
              (fun (lo, hi, _, _) -> lo <= chunk && chunk < hi)
              a.grants
          with
          | Some (_, _, t_grant, holder) when holder = w && ts >= t_grant ->
              Hashtbl.replace a.lease_lat w
                ((ts -. t_grant)
                :: Option.value ~default:[] (Hashtbl.find_opt a.lease_lat w))
          | _ -> ())
      | _ -> ())
  | "dist.worker_lost" ->
      (match worker with
      | Some w ->
          bump a.lost w 1;
          chron a ~ts ~ev:"lost"
            (Printf.sprintf "%s (%s, %d chunks leased)" w
               (field_or "reason" string ~default:"?" data)
               (field_or "leased" int ~default:0 data))
      | None -> ())
  | "dist.reassign" ->
      let n =
        List.length (field_or "chunks" (list Result.ok) ~default:[] data)
      in
      chron a ~ts ~ev:"reassign"
        (Printf.sprintf "%d chunks from %s back to the pool" n who)
  | "dist.stale_result" ->
      chron a ~ts ~ev:"stale"
        (Printf.sprintf "chunk %d from epoch %d dropped"
           (field_or "chunk" int ~default:(-1) data)
           (field_or "result_epoch" int ~default:(-1) data))
  | "dist.worker_rejoin" ->
      a.rejoins <- a.rejoins + 1;
      chron a ~ts ~ev:"rejoin"
        (Printf.sprintf "%s back on a new connection, leases kept" who)
  | "dist.lease_expired" ->
      a.expired <- a.expired + 1;
      chron a ~ts ~ev:"expired"
        (Printf.sprintf "%s silent on %d chunks, reclaimed (still registered)"
           who (field_or "leased" int ~default:0 data))
  | "dist.corrupt_frames" ->
      let n = field_or "n" int ~default:0 data in
      a.corrupt <- a.corrupt + n;
      chron a ~ts ~ev:"corrupt"
        (Printf.sprintf "%d mangled frame%s from %s skipped by CRC" n
           (if n = 1 then "" else "s")
           who)
  | "dist.reconnect" ->
      a.reconnects <- a.reconnects + 1;
      chron a ~ts ~ev:"reconnect"
        (Printf.sprintf "%s redialing (attempt %d): %s" who
           (field_or "attempt" int ~default:0 data)
           (field_or "error" string ~default:"?" data))
  | "dist.recovery" ->
      let epoch = field_or "epoch" int ~default:1 data in
      a.restarts <- a.restarts + Stdlib.max 0 (epoch - 1);
      chron a ~ts ~ev:"recover"
        (Printf.sprintf "ledger adopted at epoch %d: %d/%d chunks done" epoch
           (field_or "done_chunks" int ~default:0 data)
           (field_or "total_chunks" int ~default:0 data))
  | "worker.chunk" -> (
      match (worker, field "chunk" int data) with
      | Some w, Ok chunk ->
          bump a.chunks w 1;
          let dur = field_or "dur_s" number ~default:0.0 data in
          span_time a (ts -. dur);
          a.next_sid <- a.next_sid + 1;
          let args =
            [ ("chunk", string_of_int chunk) ]
            @
            match (field "lo" int data, field "hi" int data) with
            | Ok lo, Ok hi ->
                [ ("lo", string_of_int lo); ("hi", string_of_int hi) ]
            | _ -> []
          in
          a.spans <-
            {
              Trace_stats.name = "worker.chunk";
              cat = "fleet";
              (* worker.chunk is emitted when the chunk finishes, so
                 the span starts dur earlier *)
              ts_us = (ts -. dur) *. 1e6;
              dur_us = dur *. 1e6;
              tid = worker_tid a w;
              sid = a.next_sid;
              parent = 0;
              args;
            }
            :: a.spans
      | _ -> ())
  | _ -> ()

let analyse ?(source = "<fleet>") lines =
  let a =
    {
      order = [];
      hosts = Hashtbl.create 8;
      chunks = Hashtbl.create 8;
      lost = Hashtbl.create 8;
      grants = [];
      lease_lat = Hashtbl.create 8;
      spans = [];
      chron = [];
      t_min = Float.infinity;
      t_max = Float.neg_infinity;
      total = 0;
      skipped = 0;
      next_sid = 0;
      rejoins = 0;
      expired = 0;
      corrupt = 0;
      reconnects = 0;
      restarts = 0;
    }
  in
  List.iter
    (fun line ->
      if String.trim line <> "" then
        match Json.parse line with
        | Ok (Json.Obj fields as j) when not (List.mem_assoc "schema" fields) ->
            a.total <- a.total + 1;
            ingest_record a j
        | Ok (Json.Obj _) -> () (* header *)
        | Ok _ | Error _ -> a.skipped <- a.skipped + 1)
    lines;
  let wall_s =
    if a.t_max > a.t_min then a.t_max -. a.t_min else 0.0
  in
  let trace = Trace_stats.analyse ~source (List.rev a.spans, 0) in
  let domain_of tid =
    List.find_opt (fun d -> d.Trace_stats.d_tid = tid) trace.Trace_stats.domains
  in
  let workers =
    List.mapi
      (fun tid name ->
        let host, pid =
          Option.value ~default:("", 0) (Hashtbl.find_opt a.hosts name)
        in
        let lat =
          Array.of_list
            (Option.value ~default:[] (Hashtbl.find_opt a.lease_lat name))
        in
        Array.sort compare lat;
        let d = domain_of tid in
        {
          w_name = name;
          w_host = host;
          w_pid = pid;
          w_chunks = Option.value ~default:0 (Hashtbl.find_opt a.chunks name);
          w_busy_s =
            (match d with Some d -> d.Trace_stats.d_busy_s | None -> 0.0);
          w_util = (match d with Some d -> d.Trace_stats.d_util | None -> 0.0);
          w_timeline =
            (match d with Some d -> d.Trace_stats.d_timeline | None -> []);
          w_lease_count = Array.length lat;
          w_lease_median_s = Trace_stats.percentile lat 0.5;
          w_lease_p99_s = Trace_stats.percentile lat 0.99;
          w_lease_max_s = (if Array.length lat = 0 then 0.0 else lat.(Array.length lat - 1));
          w_lost = Option.value ~default:0 (Hashtbl.find_opt a.lost name);
        })
      (List.rev a.order)
  in
  {
    source;
    wall_s;
    total_events = a.total;
    skipped = a.skipped;
    rejoins = a.rejoins;
    expired_leases = a.expired;
    corrupt_frames = a.corrupt;
    reconnects = a.reconnects;
    restarts = a.restarts;
    workers;
    chronology =
      List.sort (fun x y -> compare x.c_ts_s y.c_ts_s) (List.rev a.chron);
    fanout = trace.Trace_stats.chunk_groups;
  }

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> Ok (analyse ~source:path (String.split_on_char '\n' contents))

(* ---------------------------------------------------------- rendering *)

let fmt_s v =
  if v = 0.0 then "-"
  else if v < 0.001 then Printf.sprintf "%.0fus" (v *. 1e6)
  else if v < 1.0 then Printf.sprintf "%.1fms" (v *. 1e3)
  else Printf.sprintf "%.2fs" v

let to_markdown r =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "# Fleet report — %s\n\n" r.source);
  Buffer.add_string b
    (Printf.sprintf "%d events over %s wall; %d workers%s\n\n" r.total_events
       (fmt_s r.wall_s) (List.length r.workers)
       (if r.skipped = 0 then ""
        else Printf.sprintf " (%d unparseable lines skipped)" r.skipped));
  if
    r.rejoins + r.expired_leases + r.corrupt_frames + r.reconnects + r.restarts
    > 0
  then
    Buffer.add_string b
      (Printf.sprintf
         "Recovery: %d coordinator restart%s, %d worker rejoin%s, %d \
          reconnect attempt%s, %d expired lease%s, %d corrupt frame%s \
          skipped.\n\n"
         r.restarts
         (if r.restarts = 1 then "" else "s")
         r.rejoins
         (if r.rejoins = 1 then "" else "s")
         r.reconnects
         (if r.reconnects = 1 then "" else "s")
         r.expired_leases
         (if r.expired_leases = 1 then "" else "s")
         r.corrupt_frames
         (if r.corrupt_frames = 1 then "" else "s"));
  if r.workers <> [] then begin
    Buffer.add_string b "## Workers\n\n";
    Buffer.add_string b
      "| worker | host | chunks | busy | util | timeline | lease med | \
       lease p99 | lease max | lost |\n";
    Buffer.add_string b "|---|---|---:|---:|---:|---|---:|---:|---:|---:|\n";
    List.iter
      (fun w ->
        Buffer.add_string b
          (Printf.sprintf "| %s | %s | %d | %s | %.0f%% | `%s` | %s | %s | %s | %d |\n"
             w.w_name
             (if w.w_host = "" then "-" else w.w_host)
             w.w_chunks (fmt_s w.w_busy_s) (w.w_util *. 100.0)
             (History.sparkline w.w_timeline)
             (fmt_s w.w_lease_median_s) (fmt_s w.w_lease_p99_s)
             (fmt_s w.w_lease_max_s) w.w_lost))
      r.workers;
    Buffer.add_char b '\n'
  end;
  if r.fanout <> [] then begin
    Buffer.add_string b "## Chunk fan-out\n\n";
    Buffer.add_string b
      "| section | count | median | p99 | max | straggler | per-task \
       straggler |\n";
    Buffer.add_string b "|---|---:|---:|---:|---:|---|---|\n";
    List.iter
      (fun g ->
        Buffer.add_string b
          (Printf.sprintf "| %s | %d | %s | %s | %s | %s | %s |\n"
             g.Trace_stats.g_section g.Trace_stats.g_count
             (fmt_s g.Trace_stats.g_median_s) (fmt_s g.Trace_stats.g_p99_s)
             (fmt_s g.Trace_stats.g_max_s)
             (if g.Trace_stats.g_straggler then "yes" else "no")
             (if not g.Trace_stats.g_sized then "unsized"
              else if g.Trace_stats.g_task_straggler then "yes"
              else "no")))
      r.fanout;
    Buffer.add_char b '\n'
  end;
  if r.chronology <> [] then begin
    Buffer.add_string b "## Chronology\n\n";
    List.iter
      (fun e ->
        Buffer.add_string b
          (Printf.sprintf "- `%8.3fs` **%s** %s\n" e.c_ts_s e.c_ev e.c_detail))
      r.chronology;
    Buffer.add_char b '\n'
  end;
  Buffer.contents b

let to_json r =
  let worker_json w =
    Json.Obj
      [
        ("worker", Json.String w.w_name);
        ("host", Json.String w.w_host);
        ("pid", Json.Int w.w_pid);
        ("chunks", Json.Int w.w_chunks);
        ("busy_s", Json.Float w.w_busy_s);
        ("util", Json.Float w.w_util);
        ("lease_count", Json.Int w.w_lease_count);
        ("lease_median_s", Json.Float w.w_lease_median_s);
        ("lease_p99_s", Json.Float w.w_lease_p99_s);
        ("lease_max_s", Json.Float w.w_lease_max_s);
        ("lost", Json.Int w.w_lost);
      ]
  in
  let entry_json e =
    Json.Obj
      [
        ("ts_s", Json.Float e.c_ts_s);
        ("ev", Json.String e.c_ev);
        ("detail", Json.String e.c_detail);
      ]
  in
  let group_json g =
    Json.Obj
      [
        ("section", Json.String g.Trace_stats.g_section);
        ("count", Json.Int g.Trace_stats.g_count);
        ("median_s", Json.Float g.Trace_stats.g_median_s);
        ("p99_s", Json.Float g.Trace_stats.g_p99_s);
        ("max_s", Json.Float g.Trace_stats.g_max_s);
        ("straggler", Json.Bool g.Trace_stats.g_straggler);
        ("sized", Json.Bool g.Trace_stats.g_sized);
        ("task_straggler", Json.Bool g.Trace_stats.g_task_straggler);
      ]
  in
  Json.Obj
    [
      ("schema", Json.String schema);
      ("source", Json.String r.source);
      ("wall_s", Json.Float r.wall_s);
      ("total_events", Json.Int r.total_events);
      ("skipped", Json.Int r.skipped);
      ("rejoins", Json.Int r.rejoins);
      ("expired_leases", Json.Int r.expired_leases);
      ("corrupt_frames", Json.Int r.corrupt_frames);
      ("reconnects", Json.Int r.reconnects);
      ("restarts", Json.Int r.restarts);
      ("workers", Json.List (List.map worker_json r.workers));
      ("chronology", Json.List (List.map entry_json r.chronology));
      ("fanout", Json.List (List.map group_json r.fanout));
    ]
