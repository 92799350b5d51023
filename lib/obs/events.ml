type severity = Debug | Info | Warn | Error

let severity_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let schema = "ppevents/v1"

(* A sink writes records to a channel (the normal --events file) or
   hands each serialised line to a callback (a worker batching lines
   for its coordinator); an optional tee mirrors every line to a
   second callback so a worker with its own --events file can keep it
   AND stream upward. *)
type out = Chan of out_channel | Fn of (string -> unit)

type sink = {
  out : out;
  t0_ns : int64;  (** 0 for callback sinks: [ts_s] is then absolute *)
  lock : Mutex.t;
  mutable tee : (string -> unit) option;
}

(* Same start/stop discipline as the Trace and Metrics globals: the
   sink is installed from the main domain around the instrumented work;
   a racy read at the boundary drops an event, never corrupts one. *)
let current : sink option ref = ref None

let enabled () = !current <> None
let origin_s () =
  match !current with Some s -> Clock.ns_to_s s.t0_ns | None -> 0.0

let utc_string t =
  let tm = Unix.gmtime t in
  let ms = int_of_float (Float.rem t 1.0 *. 1000.0) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec ms

let write_line s line =
  Mutex.lock s.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock s.lock)
    (fun () ->
      (* a full disk or closed channel must not kill the run; each line
         is flushed so [tail -f] and a crash both see complete records *)
      (try
         match s.out with
         | Chan oc ->
           output_string oc line;
           output_char oc '\n';
           flush oc
         | Fn f -> f line
       with Sys_error _ -> ());
      match s.tee with None -> () | Some f -> ( try f line with _ -> ()))

let emit ?(severity = Info) ?(data = []) name =
  match !current with
  | None -> ()
  | Some s ->
    let ts_s = Clock.ns_to_s (Int64.sub (Clock.now_ns ()) s.t0_ns) in
    let fields =
      [
        ("ts_s", Json.Float ts_s);
        ("utc", Json.String (utc_string (Unix.gettimeofday ())));
        ("sev", Json.String (severity_to_string severity));
        ("dom", Json.Int (Domain.self () :> int));
      ]
      @ (match Trace.current_span_id () with
         | 0 -> []
         | sid -> [ ("span", Json.Int sid) ])
      @ [ ("ev", Json.String name) ]
      @ (match data with [] -> [] | d -> [ ("data", Json.Obj d) ])
    in
    write_line s (Json.to_string (Json.Obj fields))

let inject j =
  match !current with
  | None -> ()
  | Some s -> write_line s (Json.to_string j)

let set_tee f =
  match !current with None -> () | Some s -> s.tee <- f

let stop () =
  match !current with
  | None -> ()
  | Some s ->
    emit "events.stop";
    current := None;
    Trace.untrack_stacks ();
    (match s.out with
     | Chan oc -> ( try close_out oc with Sys_error _ -> ())
     | Fn _ -> ())

let detach () =
  if Option.is_some !current then (current := None; Trace.untrack_stacks ())

let start_channel oc =
  stop ();
  let s =
    { out = Chan oc; t0_ns = Clock.now_ns (); lock = Mutex.create (); tee = None }
  in
  write_line s
    (Json.to_string
       (Json.Obj
          [
            ("schema", Json.String schema);
            ("t0_utc", Json.String (utc_string (Unix.gettimeofday ())));
          ]));
  Trace.track_stacks ();
  current := Some s

let start_file path = start_channel (open_out path)

let start_sink f =
  stop ();
  (* t0 = 0: ts_s is absolute monotonic time, so a coordinator holding
     a clock-offset estimate can realign the lines it receives; no
     header line either — the receiving sink already wrote its own *)
  let s = { out = Fn f; t0_ns = 0L; lock = Mutex.create (); tee = None } in
  Trace.track_stacks ();
  current := Some s
