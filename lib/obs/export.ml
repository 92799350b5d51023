(* ------------------------------------------------- Prometheus text *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

(* exposition-format escaping: backslash and newline everywhere, double
   quotes only in label values (HELP text leaves them alone) *)
let escape ?(quote = false) v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '"' when quote -> Buffer.add_string buf "\\\""
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* ------------------------------------------------------- fleet view *)

type fleet_worker = {
  fw_worker : string;
  fw_host : string;
  fw_pid : int;
  fw_last_seen_s : float;
  fw_offset_s : float;
  fw_chunks_done : int;
  fw_leased : int;
  fw_events : int;
  fw_metrics : Metrics.snapshot;
}

(* Identity labels ({role,worker,host,...}) and the fleet provider are
   plain refs written from the main thread before the writer starts
   (or from the coordinator loop, which the snapshot read races with
   benignly: a torn read sees the previous provider, never a torn
   closure). *)
let identity_ref : (string * string) list ref = ref []
let set_identity kvs = identity_ref := kvs

let fleet_ref : (unit -> fleet_worker list) option ref = ref None
let set_fleet f = fleet_ref := f

let labels kvs =
  match kvs with
  | [] -> ""
  | kvs ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf "%s=\"%s\"" (sanitize k) (escape ~quote:true v))
           kvs)
    ^ "}"

let type_name = function
  | Metrics.Counter _ -> "counter"
  | Metrics.Gauge _ -> "gauge"
  | Metrics.Histogram _ -> "histogram"

let prometheus_of_snapshot ?meta ?(identity = []) ?(fleet = []) s =
  let buf = Buffer.create 1024 in
  let family name typ help_text =
    Printf.bprintf buf "# HELP %s %s\n# TYPE %s %s\n" name
      (escape help_text) name typ
  in
  (* the samples of one metric, under the labels [kvs] *)
  let samples pname kvs = function
    | Metrics.Counter n -> Printf.bprintf buf "%s%s %d\n" pname (labels kvs) n
    | Metrics.Gauge f -> Printf.bprintf buf "%s%s %.17g\n" pname (labels kvs) f
    | Metrics.Histogram { bounds; counts; sum; count } ->
      let cum = ref 0 in
      Array.iteri
        (fun i c ->
          cum := !cum + c;
          let le =
            if i < Array.length bounds then Printf.sprintf "%.17g" bounds.(i)
            else "+Inf"
          in
          Printf.bprintf buf "%s_bucket%s %d\n" pname
            (labels (kvs @ [ ("le", le) ]))
            !cum)
        counts;
      Printf.bprintf buf "%s_sum%s %.17g\n" pname (labels kvs) sum;
      Printf.bprintf buf "%s_count%s %d\n" pname (labels kvs) count
  in
  (* a bare worker or a test has no collected meta: the identity labels
     still deserve a provenance series *)
  let build =
    (match meta with
     | None -> []
     | Some m ->
       [
         ("git_rev", m.Run_meta.git_rev);
         ("hostname", m.Run_meta.hostname);
         ("ocaml_version", m.Run_meta.ocaml_version);
         ("jobs", string_of_int m.Run_meta.jobs);
       ])
    @ identity
  in
  if build <> [] then begin
    family "pp_build_info" "gauge"
      "Build and run provenance (value is always 1).";
    Printf.bprintf buf "pp_build_info%s 1\n" (labels build)
  end;
  List.iter
    (fun (name, v) ->
      let pname = "pp_" ^ sanitize name in
      family pname (type_name v) ("Registry metric " ^ name ^ ".");
      samples pname [] v)
    s;
  (* fleet: one labelled series per worker inside each family, HELP and
     TYPE once per family as the exposition format requires *)
  if fleet <> [] then begin
    let wl w = [ ("worker", w.fw_worker); ("host", w.fw_host) ] in
    family "pp_fleet_worker_info" "gauge"
      "Distributed-scan worker identity (value is always 1).";
    List.iter
      (fun w ->
        Printf.bprintf buf "pp_fleet_worker_info%s 1\n"
          (labels (wl w @ [ ("pid", string_of_int w.fw_pid) ])))
      fleet;
    let per_worker name typ help_text value =
      family name typ help_text;
      List.iter
        (fun w -> Printf.bprintf buf "%s%s %s\n" name (labels (wl w)) (value w))
        fleet
    in
    per_worker "pp_fleet_last_seen_seconds" "gauge"
      "Seconds since the coordinator last heard from this worker."
      (fun w -> Printf.sprintf "%.17g" w.fw_last_seen_s);
    per_worker "pp_fleet_clock_offset_seconds" "gauge"
      "Estimated worker-to-coordinator monotonic clock offset."
      (fun w -> Printf.sprintf "%.17g" w.fw_offset_s);
    per_worker "pp_fleet_chunks_done" "counter"
      "Fresh chunk results recorded from this worker."
      (fun w -> string_of_int w.fw_chunks_done);
    per_worker "pp_fleet_leased" "gauge"
      "Chunks currently leased to this worker."
      (fun w -> string_of_int w.fw_leased);
    per_worker "pp_fleet_events_forwarded" "counter"
      "Event-log lines forwarded by this worker."
      (fun w -> string_of_int w.fw_events);
    (* every metric the workers reported, one family per name with a
       {worker,host} series per reporter *)
    let names =
      List.concat_map (fun w -> List.map fst w.fw_metrics) fleet
      |> List.sort_uniq String.compare
    in
    List.iter
      (fun name ->
        let pname = "pp_worker_" ^ sanitize name in
        let rows =
          List.filter_map
            (fun w ->
              Option.map (fun v -> (w, v)) (List.assoc_opt name w.fw_metrics))
            fleet
        in
        match rows with
        | [] -> ()
        | (_, v0) :: _ ->
          family pname (type_name v0)
            ("Worker-reported registry metric " ^ name ^ ".");
          List.iter (fun (w, v) -> samples pname (wl w) v) rows)
      names
  end;
  Buffer.contents buf

(* ------------------------------------------------------ JSON snapshot *)

let fleet_worker_json w =
  Json.Obj
    [
      ("worker", Json.String w.fw_worker);
      ("host", Json.String w.fw_host);
      ("pid", Json.Int w.fw_pid);
      ("last_seen_s", Json.Float w.fw_last_seen_s);
      ("offset_s", Json.Float w.fw_offset_s);
      ("chunks_done", Json.Int w.fw_chunks_done);
      ("leased", Json.Int w.fw_leased);
      ("events", Json.Int w.fw_events);
      ("metrics", Metrics.to_json_value w.fw_metrics);
    ]

let schema = "ppmetrics/v2"

let snapshot_json ?meta ?(fleet = []) ~elapsed_s s =
  let meta_fields =
    match meta with None -> [] | Some m -> [ ("meta", Run_meta.to_json m) ]
  in
  Json.Obj
    (("schema", Json.String schema)
     :: meta_fields
    @ [
        ("elapsed_s", Json.Float elapsed_s);
        ("metrics", Metrics.to_json_value s);
        ("workers", Json.List (List.map fleet_worker_json fleet));
      ])

type snapshot = {
  meta : Run_meta.t option;
  elapsed_s : float;
  metrics : Metrics.snapshot;
  fleet : fleet_worker list;
}

let fleet_worker_of_json j =
  let open Json.Decode in
  let* fw_worker = field "worker" string j in
  let* fw_host = field "host" string j in
  let* fw_pid = field "pid" int j in
  let* fw_last_seen_s = field "last_seen_s" number j in
  let* fw_offset_s = field "offset_s" number j in
  let* fw_chunks_done = field "chunks_done" int j in
  let* fw_leased = field "leased" int j in
  let* fw_events = field "events" int j in
  let* fw_metrics = field "metrics" Metrics.of_json_value j in
  Ok
    { fw_worker; fw_host; fw_pid; fw_last_seen_s; fw_offset_s; fw_chunks_done;
      fw_leased; fw_events; fw_metrics }

let snapshot_of_json j =
  let module D = Json.Decode in
  let ( let* ) = Result.bind in
  let* () = D.schema schema j in
  let* metrics = D.field "metrics" Metrics.of_json_value j in
  let* fleet = D.field "workers" (D.list fleet_worker_of_json) j in
  Ok
    {
      (* the header only labels the view: a damaged one is shown as
         absent, not refused *)
      meta = Result.to_option (D.field "meta" Run_meta.of_json j);
      elapsed_s = D.field_or "elapsed_s" D.number ~default:0.0 j;
      metrics;
      fleet;
    }

(* -------------------------------------------------------- file output *)

let prom_path path =
  if Filename.check_suffix path ".json" then
    Filename.chop_suffix path ".json" ^ ".prom"
  else path ^ ".prom"

(* tmp + rename in the destination directory, so a concurrent reader
   (tail, a Prometheus scrape relay, ...) never sees a torn file *)
let atomic_write path contents =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc contents);
  Sys.rename tmp path

let write_now ?meta ~t0 ~path () =
  let s = Metrics.snapshot () in
  let elapsed_s = Clock.elapsed_s t0 in
  let identity = !identity_ref in
  let fleet = match !fleet_ref with Some f -> f () | None -> [] in
  atomic_write path
    (Json.to_string (snapshot_json ?meta ~fleet ~elapsed_s s) ^ "\n");
  atomic_write (prom_path path)
    (prometheus_of_snapshot ?meta ~identity ~fleet s)

(* ---------------------------------------------------- periodic export *)

type exporter = {
  stop_requested : bool Atomic.t;
  writer : Thread.t;
  write : unit -> unit;
}

let current : exporter option ref = ref None

let stop () =
  match !current with
  | None -> ()
  | Some ex ->
    current := None;
    Atomic.set ex.stop_requested true;
    Thread.join ex.writer;
    ex.write ()

let detach () = current := None

let start ?meta ?(every_s = 5.0) ~path () =
  stop ();
  let every_s = Float.max 0.05 every_s in
  let stop_requested = Atomic.make false in
  let t0 = Clock.now_ns () in
  let write () =
    (* a full disk or a yanked directory must not kill the scan *)
    try write_now ?meta ~t0 ~path ()
    with Sys_error _ | Unix.Unix_error _ -> ()
  in
  write ();
  let writer =
    (* a systhread, NOT a domain: it shares domain 0 (near-free on
       single-core machines where a background domain costs 20-30% in
       cross-domain GC coordination), and — decisive for the
       distributed scan — OCaml 5 forbids Unix.fork once any domain
       was ever spawned, so the exporter must not be the reason a
       coordinator cannot fork its workers *)
    Thread.create
      (fun () ->
        let rec run () =
          (* sleep in short slices so [stop] returns promptly *)
          let deadline =
            Int64.add (Clock.now_ns ()) (Int64.of_float (every_s *. 1e9))
          in
          let rec nap () =
            if (not (Atomic.get stop_requested))
               && Int64.compare (Clock.now_ns ()) deadline < 0
            then begin
              Thread.delay 0.05;
              nap ()
            end
          in
          nap ();
          if not (Atomic.get stop_requested) then begin
            write ();
            run ()
          end
        in
        run ())
      ()
  in
  current := Some { stop_requested; writer; write }

let active () = !current <> None
