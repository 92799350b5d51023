type event = {
  name : string;
  cat : string;
  ts_ns : int64;
  dur_ns : int64;
  tid : int;
  sid : int;
  parent : int;
  args : (string * string) list;
}

type sink =
  | Memory of { mutable events : event list (* newest first *) }
  | File of { oc : out_channel; mutable first : bool }

type state = { sink : sink; t0 : int64; lock : Mutex.t }

(* Like the metrics flag, reads are racy by design: sinks are
   started/stopped from the main domain around the instrumented work,
   and a stale read skips or drops a span at the boundary. *)
let current : state option ref = ref None

(* --------------------------------------------- per-domain span stacks *)

(* Span identity and nesting are tracked only while some consumer needs
   them (a trace sink for parent ids, the event log for correlation
   ids, the profiler for sampling): [tracking] is a refcount bumped by
   each consumer, and with it at zero a span costs exactly what it did
   before this machinery existed — one load and a branch. *)

type frame = { f_name : string; f_sid : int }

let tracking = Atomic.make 0
let stacks_tracked () = Atomic.get tracking > 0
let track_stacks () = Atomic.incr tracking

let untrack_stacks () =
  let rec go () =
    let n = Atomic.get tracking in
    if n > 0 && not (Atomic.compare_and_set tracking n (n - 1)) then go ()
  in
  go ()

(* Span ids are process-global and never reused; 0 means "no span". *)
let next_sid = Atomic.make 1

(* Each domain owns one stack cell, written only by that domain (a
   single [Atomic.set] per span entry/exit) and read by anyone through
   the registry — that cross-domain read path is what lets the profiler
   thread sample every stack without stopping the world. The DLS key
   caches a domain's own cell so the registry mutex is taken once per
   domain lifetime, not once per span. *)
let stacks_lock = Mutex.create ()
let stacks : (int, frame list Atomic.t) Hashtbl.t = Hashtbl.create 16

let stack_key =
  Domain.DLS.new_key (fun () ->
      let cell = Atomic.make [] in
      let id = (Domain.self () :> int) in
      Mutex.lock stacks_lock;
      Hashtbl.replace stacks id cell;
      Mutex.unlock stacks_lock;
      cell)

let current_span_id () =
  if stacks_tracked () then
    match Atomic.get (Domain.DLS.get stack_key) with
    | [] -> 0
    | f :: _ -> f.f_sid
  else 0

let sample_stacks () =
  Mutex.lock stacks_lock;
  let cells = Hashtbl.fold (fun id c acc -> (id, Atomic.get c) :: acc) stacks [] in
  Mutex.unlock stacks_lock;
  List.filter_map
    (fun (id, frames) ->
      match frames with
      | [] -> None
      | _ -> Some (id, List.rev_map (fun f -> f.f_name) frames))
    cells
  |> List.sort compare

(* ------------------------------------------------------------- events *)

let json_of_event ev =
  let us ns = Int64.to_float ns /. 1e3 in
  let fields =
    [
      ("name", Json.String ev.name);
      ("cat", Json.String (if ev.cat = "" then "pp" else ev.cat));
      ("ph", Json.String (if Int64.equal ev.dur_ns (-1L) then "i" else "X"));
      ("ts", Json.Float (us ev.ts_ns));
      ("pid", Json.Int 1);
      ("tid", Json.Int ev.tid);
    ]
    @ (if Int64.equal ev.dur_ns (-1L) then [ ("s", Json.String "t") ]
       else [ ("dur", Json.Float (us ev.dur_ns)) ])
    (* top-level extension fields; Chrome/Perfetto ignore unknown keys *)
    @ (if ev.sid <> 0 then [ ("sid", Json.Int ev.sid) ] else [])
    @ (if ev.parent <> 0 then [ ("parent", Json.Int ev.parent) ] else [])
    @
    match ev.args with
    | [] -> []
    | args ->
      [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) args)) ]
  in
  Json.to_string (Json.Obj fields)

let emit st ev =
  Mutex.lock st.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock st.lock)
    (fun () ->
      match st.sink with
      | Memory m -> m.events <- ev :: m.events
      | File f ->
        (try
           if f.first then f.first <- false else output_string f.oc ",\n";
           output_string f.oc (json_of_event ev)
         with Sys_error _ -> ()))

let finalise st =
  match st.sink with
  | Memory m -> List.rev m.events
  | File f ->
    (try
       (* a final instant event closes the array with valid JSON *)
       if f.first then f.first <- false else output_string f.oc ",\n";
       output_string f.oc
         (json_of_event
            { name = "trace.stop"; cat = "obs"; ts_ns = Int64.sub (Clock.now_ns ()) st.t0;
              dur_ns = -1L; tid = 0; sid = 0; parent = 0; args = [] });
       output_string f.oc "]\n";
       close_out f.oc
     with Sys_error _ -> ());
    []

let stop () =
  match !current with
  | None -> []
  | Some st ->
    current := None;
    untrack_stacks ();
    finalise st

let detach () =
  match !current with
  | None -> ()
  | Some _ ->
    current := None;
    untrack_stacks ()

let start sink =
  ignore (stop ());
  track_stacks ();
  current := Some { sink; t0 = Clock.now_ns (); lock = Mutex.create () }

let start_memory () = start (Memory { events = [] })

let start_file path =
  let oc = open_out path in
  output_string oc "[\n";
  start (File { oc; first = true })

let tid () = (Domain.self () :> int)

let with_span ?(cat = "") ?(args = []) name f =
  let st = !current in
  if st = None then
    if not (stacks_tracked ()) then f ()
    else begin
      (* tracking without a sink (the event log or profiler is on, no
         trace file): maintain the frame stack but skip the clock reads
         and event construction — nothing records the span itself *)
      let cell = Domain.DLS.get stack_key in
      let saved = Atomic.get cell in
      let sid = Atomic.fetch_and_add next_sid 1 in
      Atomic.set cell ({ f_name = name; f_sid = sid } :: saved);
      match f () with
      | r ->
        Atomic.set cell saved;
        r
      | exception e ->
        Atomic.set cell saved;
        raise e
    end
  else begin
    let t0 = Clock.now_ns () in
    (* push the frame (when tracked) before running [f], so the event
       log and profiler see the span from inside it *)
    let cell, sid, parent, saved =
      if stacks_tracked () then begin
        let cell = Domain.DLS.get stack_key in
        let saved = Atomic.get cell in
        let sid = Atomic.fetch_and_add next_sid 1 in
        Atomic.set cell ({ f_name = name; f_sid = sid } :: saved);
        ( Some cell,
          sid,
          (match saved with [] -> 0 | p :: _ -> p.f_sid),
          saved )
      end
      else (None, 0, 0, [])
    in
    Fun.protect
      ~finally:(fun () ->
        (match cell with Some c -> Atomic.set c saved | None -> ());
        match st with
        | None -> ()
        | Some st ->
          let t1 = Clock.now_ns () in
          emit st
            {
              name;
              cat;
              ts_ns = Int64.sub t0 st.t0;
              dur_ns = Int64.sub t1 t0;
              tid = tid ();
              sid;
              parent;
              args;
            })
      f
  end

let instant ?(cat = "") ?(args = []) name =
  match !current with
  | None -> ()
  | Some st ->
    emit st
      {
        name;
        cat;
        ts_ns = Int64.sub (Clock.now_ns ()) st.t0;
        dur_ns = -1L;
        tid = tid ();
        sid = 0;
        parent = current_span_id ();
        args;
      }
